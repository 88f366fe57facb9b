(* debug-session: one developer replays the reverse-debug case study of
   the Cohort TLB hang (EXPERIMENTS.md) over the `zoomie repl` path —
   Repl.parse_line then Timeline.execute, flight recorder on — against
   the Cohort SoC grown with filler tiles.  Each pass ends on
   `reverse-continue 0`, so every pass starts from the same state and
   costs the same modeled cable time. *)

open Workload
module Board = Api.Bitstream.Board
module Host = Api.Debug.Host
module Repl = Api.Debug.Repl
module Timeline = Api.Debug.Timeline
module Cohort = Api.Workloads.Cohort
module Bits = Api.Rtl.Bits

type config = { tiles : int  (** 18-core filler tiles beside the SoC *) }

let default = { tiles = 5 }

let cadence = 10

(* The pass.  [print_reg] is the one seeded input: which MUT register the
   developer prints at the stop. *)
let script ~print_reg =
  [
    "run 10"; "run 10"; "run 10"; "run 10"; "continue 400"; "cause"; "cycles";
    "print " ^ print_reg; "when-did pf_waiting"; "reverse-continue 40"; "step 6";
    "state"; "inject lsu_state 3"; "resume"; "run 60"; "print items_done";
    "reverse-continue 0";
  ]

let verb line = List.hd (String.split_on_char ' ' line)

let build cfg =
  let open Api in
  let monitor = assertion_exn ~widths:Cohort.sva_widths Cohort.mmu_sva in
  let project =
    if cfg.tiles = 0 then create_project (Cohort.design ())
    else
      create_project ~replicated_units:Cohort.filler_units
        (Cohort.design ~filler_clusters:cfg.tiles ())
  in
  let project =
    add_debug project ~mut:Cohort.accel_module ~interfaces:(Cohort.interfaces ())
      ~watches:(Cohort.watches ()) ~assertions:[ monitor ]
  in
  let run = compile_vendor project in
  let board = board project in
  program_vendor board run;
  let host =
    attach project board ~mut_path:(if cfg.tiles = 0 then "accel" else "soc.accel")
  in
  Synth.Netsim.poke_input (Board.netsim board) "start" (Bits.of_int ~width:1 1);
  (board, host)

let exec ts line =
  match Repl.parse_line line with
  | Ok cmd -> Timeline.execute ts cmd
  | Error msg -> "error: " ^ msg

(* MUT registers by their original names, sorted. *)
let mut_registers host =
  let prefix = Host.full_register_name host "" in
  List.filter_map
    (fun n ->
      if String.starts_with ~prefix n then
        Some (String.sub n (String.length prefix) (String.length n - String.length prefix))
      else None)
    (Api.Debug.Readback.register_names (Host.site_map host))

let state_lines st =
  List.sort compare (List.map (fun (n, v) -> n ^ " = " ^ Bits.to_string v) st)

(* What an unrecorded session on a twin rig sees: the MUT state at MUT
   cycle 40, the cycle the assertion stops the MUT at, and the cycle
   pf_waiting flips, found by stepping one cycle at a time from the
   checkpoint before the stop (MUT cycle 40).  Computed once, before the
   measured set-ups: only these three figures outlive the twin, so the
   process's peak RSS covers one rig. *)
type oracle = { state40 : string list; stop_cycle : int; flip_cycle : int }

let oracle cfg =
  let board, host = build cfg in
  for _ = 1 to 4 do
    ignore (Repl.execute host board (Repl.Run 10))
  done;
  if Host.mut_cycles host <> 40 then fail "twin: run 10 x4 reached mut cycle %d" (Host.mut_cycles host);
  let state40 = state_lines (Host.read_state host) in
  let at40 = Host.snapshot host in
  ignore (Repl.execute host board (Repl.Continue 400));
  let stop_cycle = Host.mut_cycles host in
  Host.restore host at40;
  Host.pause host;
  let before = Host.read_register host "pf_waiting" in
  let rec walk () =
    if Host.mut_cycles host > stop_cycle then fail "twin: pf_waiting never flipped"
    else begin
      Host.step host 1;
      if Bits.equal (Host.read_register host "pf_waiting") before then walk ()
      else Host.mut_cycles host
    end
  in
  { state40; stop_cycle; flip_cycle = walk () }

(* The when-did window (lo, hi]: "... between mut cycle LO and now (mut
   cycle HI) ..." or "... between mut cycle LO and mut cycle HI ...". *)
let when_did_window resp =
  let key = "between mut cycle " in
  let rec find i =
    if i + String.length key > String.length resp then None
    else if String.sub resp i (String.length key) = key then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some i -> (
    let rest = String.sub resp (i + String.length key) (String.length resp - i - String.length key) in
    try Some (Scanf.sscanf rest "%d and now (mut cycle %d)" (fun lo hi -> (lo, hi)))
    with Scanf.Scan_failure _ | End_of_file | Failure _ -> (
      try Some (Scanf.sscanf rest "%d and mut cycle %d" (fun lo hi -> (lo, hi)))
      with Scanf.Scan_failure _ | End_of_file | Failure _ -> None))

let register_value text name =
  (* "NAME = 8'h12 (18)" from print, or a "...NAME = 8'h07" line of state *)
  List.find_map
    (fun line ->
      match String.split_on_char '=' line with
      | [ lhs; rhs ] when String.ends_with ~suffix:("." ^ name) (String.trim lhs)
                          || String.trim lhs = name ->
        let v = String.trim rhs in
        let v = match String.index_opt v ' ' with Some j -> String.sub v 0 j | None -> v in
        (match String.index_opt v 'h' with
         | Some j -> int_of_string_opt ("0x" ^ String.sub v (j + 1) (String.length v - j - 1))
         | None -> None)
      | _ -> None)
    (String.split_on_char '\n' text)

(** The checks one pass's transcript must pass, given the oracle.  Used on
    every timed pass and by the tests (with a planted wrong oracle). *)
let check_pass o transcript =
  let resp verb_line =
    match List.assoc_opt verb_line transcript with
    | Some r -> r
    | None -> fail "pass has no %S" verb_line
  in
  List.iter
    (fun (line, r) ->
      if String.starts_with ~prefix:"error:" r then fail "%s -> %s" line r)
    transcript;
  if resp "continue 400" <> "stopped (breakpoint)" then
    fail "continue 400 did not stop: %s" (resp "continue 400");
  if not (List.mem "assertion=true" (String.split_on_char ' ' (resp "cause"))) then fail "stop cause is not the MMU assertion: %s" (resp "cause");
  let stop = Scanf.sscanf (resp "cycles") "mut cycles = %d" Fun.id in
  if stop <> o.stop_cycle then
    fail "assertion stopped the MUT at cycle %d, expected %d" stop o.stop_cycle;
  (match when_did_window (resp "when-did pf_waiting") with
   | Some (lo, hi) when lo < o.flip_cycle && o.flip_cycle <= hi -> ()
   | Some (lo, hi) -> fail "when-did window (%d, %d] misses the flip at %d" lo hi o.flip_cycle
   | None -> fail "when-did gave no window: %s" (resp "when-did pf_waiting"));
  match (register_value (resp "state") "items_done", register_value (resp "print items_done") "items_done") with
  | Some before, Some after when after > before -> ()
  | before, after ->
    fail "items_done did not rise after resume (%s -> %s)"
      (Option.fold ~none:"?" ~some:string_of_int before)
      (Option.fold ~none:"?" ~some:string_of_int after)

(* Once per run, before timing: a probe pass with two extra reads checks
   that reverse-continue 40 lands on the unrecorded state and that the
   injection reads back.  Its reverse-continue 0 leaves the recording as
   it found it. *)
let probe_pass ts o ~print_reg =
  let extra = ref [] in
  List.iter
    (fun line ->
      ignore (exec ts line);
      if line = "reverse-continue 40" then extra := ("state@40", exec ts "state") :: !extra;
      if line = "inject lsu_state 3" then extra := ("lsu_state", exec ts "print lsu_state") :: !extra)
    (script ~print_reg);
  let st = List.sort compare (String.split_on_char '\n' (List.assoc "state@40" !extra)) in
  if st <> o.state40 then fail "state after reverse-continue 40 differs from the unrecorded session";
  if register_value (List.assoc "lsu_state" !extra) "lsu_state" <> Some 3 then
    fail "injected lsu_state reads back as %s" (List.assoc "lsu_state" !extra)

(** The last pass's transcript and the oracle it was checked against, for
    the tests' planted-failure checks. *)
let last_pass = ref None

let setup ?(cfg = default) ~oracle ~seed () =
  let board, host = build cfg in
  let (_ : Bits.t), first_read_s, first_read_words, excluded_s =
    first_read (fun () -> Host.read_register host "items_done")
  in
  let ts = Timeline.session ~rig:"cohort" host board in
  ignore (Timeline.execute ts (Repl.Record (Some cadence)));
  let regs = Array.of_list (mut_registers host) in
  let print_reg = regs.(Random.State.int (Random.State.make [| seed |]) (Array.length regs)) in
  let lines = script ~print_reg in
  let last = ref [] and last_cable = ref Meter.zero in
  let first = ref None in
  let iterate tr ~untimed:_ _i =
    let m0 = Meter.counts (Board.meter board) in
    let tr_lines =
      List.map
        (fun line -> (line, Trace.span tr ("cmd." ^ verb line) (fun () -> exec ts line)))
        lines
    in
    last := tr_lines;
    last_cable := Trace.sub (Meter.counts (Board.meter board)) m0;
    List.length (List.filter (fun (_, r) -> String.starts_with ~prefix:"error:" r) tr_lines)
  in
  let check _i =
    last_pass := Some (oracle, !last);
    check_pass oracle !last;
    match !first with
    | None -> first := Some (!last, !last_cable)
    | Some (t, c) ->
      if t <> !last then fail "pass transcript differs from the first pass";
      if c <> !last_cable then
        fail "pass cable %.17g model_s differs from the first pass's %.17g" (Meter.price !last_cable)
          (Meter.price c)
  in
  let reissue tr =
    repeat tr 5 "Host.snapshot" (fun () -> ignore (Host.snapshot host));
    let snap = Host.snapshot host in
    repeat tr 5 "Host.restore" (fun () -> Host.restore host snap);
    repeat tr 3 "Board.run" (fun () -> Board.run board 100)
  in
  let verbs = [ "run"; "continue"; "step"; "resume"; "print"; "state"; "inject"; "when-did"; "reverse-continue" ] in
  let layers ~untraced ~traced =
    List.map (fun v -> ("cmd." ^ v ^ "_p50_ms", p50_ms traced ("cmd." ^ v))) verbs
    @ [
        ( "timeline.checkpoint_kb",
          obs_delta untraced "timeline.checkpoint_bytes"
          /. Float.max 1.0 (obs_delta untraced "timeline.checkpoints")
          /. 1024.0 );
        ("timeline.restore_cable_s_per_iter", per_iter untraced (obs_delta untraced "timeline.restore_jtag_s"));
        ("readback.snapshot_ms", 1000.0 *. reissued_s traced "Host.snapshot");
        ("readback.restore_ms", 1000.0 *. reissued_s traced "Host.restore");
        ("netsim.cycles_per_s", 100.0 /. reissued_s traced "Board.run");
        ("host.status_polls_per_iter", per_iter untraced (obs_delta untraced "host.status_polls"));
        ("board.first_capture_mwords", first_read_words /. 1e6);
      ]
  in
  let rig =
    {
      meter = (fun () -> Board.meter board);
      cycle = 1;
      ops_per_iter = List.length lines;
      iterate;
      check;
      netsim_events = (fun () -> (Api.Synth.Netsim.counters (Board.netsim board)).events_settled);
      reissue;
      layers;
    }
  in
  ( { rig; prepare = (fun () -> probe_pass ts oracle ~print_reg); first_read_s; first_read_words; excluded_s },
    [
      ("design", Util.Str "Cohort SoC (buggy MMU) + MMU handshake assertion");
      ("filler_tiles", Util.Int cfg.tiles);
      ("filler_cores", Util.Int (cfg.tiles * 18));
      ("checkpoint_cadence", Util.Int cadence);
      ("print_register", Util.Str print_reg);
      ("pass", Util.List (List.map (fun l -> Util.Str l) lines));
    ] )
