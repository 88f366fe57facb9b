(* edit-loop: the VTI loop on a manycore SoC.  One edit changes the
   debugged core's program, recompiles its partition, programs the
   partial bitstream, runs the SoC until the core halts and checks the
   result.  Results are read through Synth.Netsim.read_register, never
   through frames, so the loop bypasses readback and the hub. *)

open Workload
module Board = Api.Bitstream.Board
module Manycore = Api.Workloads.Manycore
module Serv = Api.Workloads.Serv
module Netsim = Api.Synth.Netsim
module Flow = Api.Vti.Flow
module Bits = Api.Rtl.Bits

type config = { clusters : int  (** 18-core clusters *) }

let default = { clusters = 10 }

let core = Manycore.debug_core_path

let halt_state = 1 lsl Serv.st_halt

(* The edit, as program text.  The expected result is read back out of
   this text, not out of anything the toolchain produced. *)
let program_text ~seed i =
  let rng = Random.State.make [| seed; i; 0x6564 |] in
  [
    Printf.sprintf "li r1, %d" (1 + Random.State.int rng 255);
    Printf.sprintf "li r0, %d" (1 + Random.State.int rng 255);
    "halt";
  ]

let assemble lines =
  Array.of_list
    (List.map
       (fun line ->
         match String.split_on_char ' ' line with
         | [ "li"; rd; imm ] ->
           Serv.instr ~op:Serv.op_li
             ~rd:(Scanf.sscanf rd "r%d," Fun.id)
             ~rs:0 ~imm:(int_of_string imm)
         | [ "halt" ] -> Serv.instr ~op:Serv.op_halt ~rd:0 ~rs:0 ~imm:0
         | _ -> fail "cannot assemble %S" line)
       lines)

let expected_result lines =
  List.fold_left
    (fun acc line ->
      match String.split_on_char ' ' line with
      | [ "li"; "r0,"; imm ] -> Some (int_of_string imm)
      | _ -> acc)
    None lines

type outcome = {
  text : string list;
  state : int;
  r0 : int;
  static_before : (string * Bits.t) list;
  static_after : (string * Bits.t) list;
}

(** The checks of one edit.  Used on every timed edit and by the tests. *)
let check_edit o =
  if o.state <> halt_state then fail "debugged core did not halt (state %d)" o.state;
  (match expected_result o.text with
   | Some v when v = o.r0 -> ()
   | Some v -> fail "result register holds %d, the program loads %d" o.r0 v
   | None -> fail "program text loads no result");
  List.iter2
    (fun (n, a) (_, b) ->
      if not (Bits.equal a b) then
        fail "static %s changed across the partial reprogram: %s -> %s" n (Bits.to_string a)
          (Bits.to_string b))
    o.static_before o.static_after

let run_chunk = 16

(** The last edit's outcome, for the tests' planted-failure checks. *)
let last_outcome = ref None

let setup ?(cfg = default) ~seed () =
  let config =
    { Manycore.default_config with Manycore.clusters = cfg.clusters; cores_per_cluster = 18 }
  in
  let design, _ = Manycore.design ~config () in
  let project =
    {
      Flow.device = Api.Fabric.Device.u200 ();
      design;
      clock_root = "clk";
      freq_mhz = 50.0;
      replicated_units = Manycore.core_units ~config;
      iterated = [ core ];
      c = Api.Vti.Estimate.default_coefficient;
      debug_slr = 1;
    }
  in
  let build = ref (Flow.compile project) in
  let board = Board.create project.Flow.device in
  Api.program_vti board !build;
  let one = Bits.of_int ~width:1 1 in
  Netsim.poke_input (Board.netsim board) "start" one;
  Netsim.poke_input (Board.netsim board) "result_ready" one;
  (* The first read: the debugged core's registers, through the same path
     the loop reads results by — the live model, not frames. *)
  let registers =
    List.sort_uniq compare
      (List.filter_map
         (fun (n, _) ->
           if String.starts_with ~prefix:(core ^ ".") n then Some n else None)
         (Array.to_list !build.Flow.netlist.Api.Synth.Netlist.ff_names))
  in
  let first, first_read_s, first_read_words, excluded_s =
    first_read (fun () -> List.map (Netsim.read_register (Board.netsim board)) registers)
  in
  if first = [] then fail "first read: no registers under %s" core;
  (* Static registers the checks compare across each reprogram. *)
  let rng = Random.State.make [| seed; 0x7374 |] in
  let statics =
    List.init 4 (fun _ ->
        Printf.sprintf "cluster%d.core%d.%s"
          (1 + Random.State.int rng (max 1 (cfg.clusters - 1)))
          (Random.State.int rng 18)
          [| "mcycle"; "pc"; "acc"; "minstret" |].(Random.State.int rng 4))
  in
  let read_statics () =
    let ns = Board.netsim board in
    List.map (fun n -> (n, Netsim.read_register ns n)) statics
  in
  let last = last_outcome and events = ref 0 in
  let modeled = ref [] and cycles_run = ref 0 in
  let iterate tr ~untimed i =
    let text = program_text ~seed i in
    let circuit =
      Serv.core ~name:(Printf.sprintf "zerv_core_dbg_e%d" i) ~program:(assemble text) ()
    in
    let nb = Trace.span tr "Vti.Flow.recompile" (fun () -> Flow.recompile !build ~path:core ~circuit) in
    let before = ref [] and after = ref [] in
    untimed (fun () -> before := read_statics ());
    Trace.span tr "Vti.Flow.load_onto" (fun () -> Flow.load_onto board nb);
    untimed (fun () -> after := read_statics ());
    build := nb;
    modeled := nb.Flow.modeled_seconds :: !modeled;
    let ns = Board.netsim board in
    let state () = Bits.to_int (Trace.span tr "Netsim.read_register" (fun () -> Netsim.read_register ns (core ^ ".state"))) in
    let ran = ref 0 in
    while state () <> halt_state && !ran < 4096 do
      Trace.span tr "Board.run" (fun () -> Board.run board run_chunk);
      ran := !ran + run_chunk
    done;
    if Trace.enabled tr then cycles_run := !cycles_run + !ran;
    let r0 = Bits.to_int (Trace.span tr "Netsim.read_register" (fun () -> Netsim.read_register ns (core ^ ".r0"))) in
    events := !events + (Netsim.counters ns).Netsim.events_settled;
    last := Some { text; state = state (); r0; static_before = !before; static_after = !after };
    0
  in
  let check _ = Option.iter check_edit !last in
  let reissue tr =
    let netlist = (Board.payload board).Board.netlist in
    repeat tr 3 "Synth.Netsim.create" (fun () -> ignore (Netsim.create netlist))
  in
  let layers ~untraced ~traced =
    let cpu names =
      per_iter traced
        (Util.sum
           (List.filter_map
              (fun (o : Obs.span) ->
                if List.mem o.Obs.sp_name names then Some o.Obs.sp_wall_dur else None)
              traced.obs_spans))
    in
    [
      ("board.load_s_per_iter", total_s_per_iter traced "Vti.Flow.load_onto");
      ("board.load_mwords_per_iter", words_per_iter traced "Vti.Flow.load_onto" /. 1e6);
      ("vti.recompile_s_per_iter", total_s_per_iter traced "Vti.Flow.recompile");
      ("vti.recompile_mwords_per_iter", words_per_iter traced "Vti.Flow.recompile" /. 1e6);
      ("vti.synth_cpu_s", cpu [ "vti.synth" ]);
      ("vti.place_cpu_s", cpu [ "vti.place" ]);
      ("vti.relink_cpu_s", cpu [ "vti.relink (splice)"; "vti.link"; "vti.locmap splice" ]);
      ("vti.route_cpu_s", cpu [ "vti.route contrib"; "vti.route fold" ]);
      ("vti.timing_cpu_s", cpu [ "vti.timing" ]);
      ( "vti.framegen_cpu_s",
        cpu [ "vti.framegen slice"; "vti.frame merge"; "vti.partial filter"; "vti.bitgen partial" ] );
      ("vti.synth_cache_hits_per_iter", per_iter untraced (obs_delta untraced "vti.synth_cache_hits"));
      ("vti.compile_model_s_per_iter", Util.median !modeled);
      ("netsim.create_s", reissued_s traced "Synth.Netsim.create");
      ("netsim.run_s_per_iter", total_s_per_iter traced "Board.run");
      ( "netsim.cycles_per_s",
        float_of_int !cycles_run
        /. Util.sum (List.map (fun (s, _) -> Trace.dur s) (spans_named traced "Board.run")) );
    ]
  in
  let rig =
    {
      meter = (fun () -> Board.meter board);
      cycle = 1;
      ops_per_iter = 1;
      iterate;
      check;
      netsim_events = (fun () -> !events);
      reissue;
      layers;
    }
  in
  ( { rig; prepare = ignore; first_read_s; first_read_words; excluded_s },
    [
      ("design", Util.Str "manycore SoC of 18-core zerv clusters, VTI build");
      ("cores", Util.Int (cfg.clusters * 18));
      ("iterated_partition", Util.Str core);
      ("edit", Util.Str "new debugged-core program: li r1, A; li r0, B; halt (A, B seeded)");
      ("static_registers", Util.List (List.map (fun s -> Util.Str s) statics));
    ] )
