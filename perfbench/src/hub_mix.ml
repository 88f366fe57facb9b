(* hub-mix: K sessions share one manycore board through the farm front
   end.  Every request and response crosses the zh1 text codec and the
   length-prefixed framing; Router -> Shard -> Hub serve them, stepped
   inline by Router.step on this thread, so the run is deterministic.
   The MUT is a whole cluster.  Each round every session issues one
   request: K-2 coalescable Read_registers over overlapping selections,
   then one exclusive `step 1` and one exclusive `inject`, dispatched in
   that order so the injection is the round's last mutation. *)

open Workload
module Board = Api.Bitstream.Board
module Host = Api.Debug.Host
module Readback = Api.Debug.Readback
module Manycore = Api.Workloads.Manycore
module Bits = Api.Rtl.Bits
module Protocol = Api.Hub.Protocol
module Framing = Api.Hub.Framing
module Router = Api.Hub.Router

type config = { clusters : int  (** 18-core clusters; cluster 0 is the MUT *) }

let default = { clusters = 10 }

(* K sessions; K - 2 of them read in each round. *)
let sessions = 8

(* Rounds in one whole cycle of the mix. *)
let rounds = 4

let cores_per_cluster = 18

let mut_path = "cluster0"

let build cfg =
  let open Api in
  let config =
    { Manycore.default_config with Manycore.clusters = cfg.clusters; cores_per_cluster }
  in
  let design, units = Manycore.design ~config () in
  let project = create_project design ~replicated_units:units in
  let ring name ~requester =
    Pause.Decoupled.make ~name ~data_width:32 ~valid:(name ^ "_valid")
      ~ready:(name ^ "_ready") ~data:(name ^ "_data") ~mut_is_requester:requester ()
  in
  let project =
    add_debug project ~mut:Manycore.debug_cluster_module
      ~interfaces:[ ring "ring_out" ~requester:true; ring "ring_in" ~requester:false ]
      ~watches:[ { Debug.Trigger.w_name = "all_halted"; w_width = 1 } ]
  in
  let run = compile_vendor project in
  let board = board project in
  program_vendor board run;
  let one = Bits.of_int ~width:1 1 in
  Synth.Netsim.poke_input (Board.netsim board) "start" one;
  Synth.Netsim.poke_input (Board.netsim board) "result_ready" one;
  (board, Option.get project.debug_info)

type request = { session : int; req : Protocol.request }

(* One whole cycle of rounds, generated from the seed.  The seed picks
   which registers; the shape of every round, and so the amount of work,
   is the same for every seed. *)
let plan ~seed names =
  let rng = Random.State.make [| seed; 0x6875 |] in
  let core_regs c =
    let prefix = Printf.sprintf "core%d." c in
    List.filter (String.starts_with ~prefix) names
  in
  let data_regs = [| "r0"; "r1"; "acc"; "opb" |] in
  let injects =
    Array.init rounds (fun _ ->
        let reg =
          Printf.sprintf "core%d.%s"
            (Random.State.int rng cores_per_cluster)
            data_regs.(Random.State.int rng (Array.length data_regs))
        in
        (reg, 1 + Random.State.int rng 0xFFFF))
  in
  Array.init rounds (fun r ->
      (* A round focuses on three cores: every reader takes two of them
         whole, so any two selections overlap, plus six single registers
         from the three. *)
      let focus = Array.init 3 (fun _ -> core_regs (Random.State.int rng cores_per_cluster)) in
      let pool = Array.of_list (List.concat (Array.to_list focus)) in
      let pick () = pool.(Random.State.int rng (Array.length pool)) in
      let stepper = (2 * r) mod sessions and injector = ((2 * r) + 1) mod sessions in
      let readers =
        List.filter (fun s -> s <> stepper && s <> injector) (List.init sessions Fun.id)
      in
      let prev_inject = fst injects.((r + rounds - 1) mod rounds) in
      List.mapi
        (fun i s ->
          let skip = Random.State.int rng 3 in
          let shared = List.concat (List.filteri (fun k _ -> k <> skip) (Array.to_list focus)) in
          let extra = List.init 6 (fun _ -> pick ()) in
          let extra = if i = 0 then prev_inject :: extra else extra in
          { session = s; req = Protocol.Read_registers (List.sort_uniq compare (shared @ extra)) })
        readers
      @ [
          { session = stepper; req = Protocol.Command (Api.Debug.Repl.Step 1) };
          (let reg, v = injects.(r) in
           { session = injector; req = Protocol.Command (Api.Debug.Repl.Inject (reg, v)) });
        ])

(** Checks of one round's responses.  [expected] holds, per reader, the
    uncoalesced single-session read taken just before the round;
    [injected] the previous round's injection, when no step ran after
    it.  Used on every timed round and by the tests. *)
let check_round ~requests ~responses ~expected ~injected =
  List.iter
    (fun { session; req } ->
      let payload =
        match List.assoc_opt session responses with
        | Some p -> p
        | None -> fail "session %d got no response" session
      in
      match (req, payload) with
      | Protocol.Read_registers names, Protocol.Values vs ->
        let got = List.map fst vs in
        if List.sort compare got <> List.sort_uniq compare names then
          fail "session %d read %d names, asked for %d" session (List.length got)
            (List.length (List.sort_uniq compare names));
        let want = List.assoc session expected in
        List.iter
          (fun (n, v) ->
            if not (Bits.equal v (List.assoc n want)) then
              fail "session %d: %s = %s, uncoalesced read says %s" session n
                (Bits.to_string v) (Bits.to_string (List.assoc n want)))
          vs;
        Option.iter
          (fun (reg, value) ->
            match List.assoc_opt reg vs with
            | Some v when Bits.to_int v <> value ->
              fail "injected %s = %d reads back as %d" reg value (Bits.to_int v)
            | _ -> ())
          injected
      | Protocol.Command (Api.Debug.Repl.Step _), Protocol.Done "stepped 1 cycles" -> ()
      | Protocol.Command (Api.Debug.Repl.Inject (reg, v)), Protocol.Done d
        when d = Printf.sprintf "%s <- %d" reg v -> ()
      | _, p ->
        fail "session %d: unexpected response %s" session
          (Protocol.response_to_wire (Protocol.frame session 0 p)))
    requests

(** The last round's requests and responses with the expectations they
    were checked against, for the tests' planted-failure checks. *)
let last_round = ref None

let setup ?(cfg = default) ~seed () =
  let board, info = build cfg in
  let config =
    {
      Api.Hub.Shard.inbox_capacity = 4 * sessions;
      lease_ticks = max_int / 2;
      hub_config =
        { Api.Hub.Hub.default_config with Api.Hub.Hub.session_timeout_ticks = max_int / 2 };
    }
  in
  let router = Router.create ~config ~fleet:[ [ (board, info, "manycore") ] ] () in
  let cur_tr = ref (Trace.disabled ()) in
  let req_dec = Framing.decoder () and resp_dec = Framing.decoder () in
  let through dec bytes =
    Framing.feed dec bytes ~off:0 ~len:(Bytes.length bytes);
    match Framing.next dec with Some line -> line | None -> fail "framing lost a frame"
  in
  (* responses of the current round: gsid -> (payload, arrival time) *)
  let got = Hashtbl.create 16 in
  let respond line =
    let tr = !cur_tr in
    let bytes = Trace.span tr "protocol.encode" (fun () -> Framing.encode line) in
    let fr =
      Trace.span tr "protocol.decode" (fun () -> Protocol.response_of_wire (through resp_dec bytes))
    in
    match fr with
    | Ok fr -> Hashtbl.replace got fr.Protocol.fr_session (fr.Protocol.fr_payload, Util.now ())
    | Error msg -> fail "undecodable response %S: %s" line msg
  in
  let event _ = () in
  let gsids =
    Array.init sessions (fun i ->
        match Router.open_session router ~session:i ~seq:0 ~spec:"any" ~respond ~event with
        | Some g -> g
        | None -> fail "router refused session %d" i)
  in
  Router.settle router;
  Array.iter (fun g -> Router.dispatch router (Protocol.frame g 1 (Protocol.Attach mut_path)) ~respond) gsids;
  Router.settle router;
  Hashtbl.reset got;
  (* The reference session: a plain Host on the same board, used only
     between rounds for the uncoalesced reads the checks compare with.
     Attaching it builds a second site map; that time belongs to the
     checks, so it is left out of set-up. *)
  let t_ref = Util.now () in
  let reference = Host.attach board ~info ~mut_path in
  let reference_s = Util.now () -. t_ref in
  let prefix = Host.full_register_name reference "" in
  let strip n = String.sub n (String.length prefix) (String.length n - String.length prefix) in
  let names =
    List.filter_map
      (fun n -> if String.starts_with ~prefix n then Some (strip n) else None)
      (Readback.register_names (Host.site_map reference))
  in
  let mix = plan ~seed names in
  let seq = ref 1 in
  let send tr { session; req } =
    incr seq;
    let g = gsids.(session) in
    let bytes =
      Trace.span tr "protocol.encode" (fun () ->
          Framing.encode (Protocol.request_to_wire (Protocol.frame g !seq req)))
    in
    let fr = Trace.span tr "protocol.decode" (fun () -> Protocol.request_of_wire (through req_dec bytes)) in
    match fr with
    | Ok fr -> Trace.span tr "Router.dispatch" (fun () -> Router.dispatch router fr ~respond)
    | Error msg -> fail "undecodable request: %s" msg
  in
  (* The first read: one session's selection through the whole path. *)
  let first = List.hd mix.(0) in
  let (), first_read_s, first_read_words, excluded_s =
    first_read (fun () ->
        send (Trace.disabled ()) first;
        while Hashtbl.length got = 0 do
          ignore (Router.step router)
        done)
  in
  Hashtbl.reset got;
  (* per-round record for the checks and the latency metrics *)
  let expected = ref [] and injected = ref None in
  let cycles = ref 0 and steps_granted = ref 0 in
  let last = ref ([], []) in
  let latencies = ref [] in
  let reference_read r =
    (* one uncoalesced single-session sweep of every register the round
       reads *)
    let requests = mix.(r mod rounds) in
    let union =
      List.sort_uniq compare
        (List.concat_map
           (fun { req; _ } -> match req with Protocol.Read_registers sel -> sel | _ -> [])
           requests)
    in
    let state = Hashtbl.create 256 in
    List.iter
      (fun (n, v) -> Hashtbl.replace state (strip n) v)
      (Readback.read_registers_indexed board (Host.site_map reference)
         (Host.register_plan reference union) ~select:(fun _ -> true));
    expected :=
      List.filter_map
        (fun { session; req } ->
          match req with
          | Protocol.Read_registers sel ->
            Some (session, List.map (fun n -> (n, Hashtbl.find state n)) sel)
          | _ -> None)
        requests;
    let c = Host.mut_cycles reference in
    if c <> !cycles + !steps_granted then
      fail "MUT cycles went %d -> %d with %d steps granted" !cycles c !steps_granted;
    cycles := c;
    steps_granted := 0
  in
  let prepare () =
    cycles := Host.mut_cycles reference;
    reference_read 0
  in
  let iterate tr ~untimed:_ r =
    cur_tr := tr;
    let requests = mix.(r mod rounds) in
    let sent = List.map (fun rq -> (rq, (send tr rq; Util.now ()))) requests in
    let n = ref 0 in
    while Hashtbl.length got < List.length requests do
      incr n;
      if !n > 64 then fail "round %d: %d of %d responses after 64 steps" r (Hashtbl.length got)
          (List.length requests);
      ignore (Trace.span tr "Router.step" (fun () -> Router.step router))
    done;
    let responses =
      List.map
        (fun (rq, t_sent) ->
          let payload, t_got = Hashtbl.find got gsids.(rq.session) in
          if not (Trace.enabled tr) then latencies := (rq.req, t_got -. t_sent) :: !latencies;
          (rq.session, payload))
        sent
    in
    Hashtbl.reset got;
    last := (requests, responses);
    List.length
      (List.filter
         (fun (_, p) -> match p with Protocol.Failed _ | Protocol.Busy _ -> true | _ -> false)
         responses)
  in
  let check r =
    let requests, responses = !last in
    last_round := Some (requests, responses, !expected, !injected);
    check_round ~requests ~responses ~expected:!expected ~injected:!injected;
    injected :=
      List.find_map
        (fun { req; _ } ->
          match req with
          | Protocol.Command (Api.Debug.Repl.Inject (reg, v)) -> Some (reg, v)
          | _ -> None)
        requests;
    steps_granted :=
      List.length
        (List.filter
           (fun { req; _ } -> match req with Protocol.Command (Api.Debug.Repl.Step _) -> true | _ -> false)
           requests);
    reference_read (r + 1)
  in
  let sm = Host.site_map reference in
  let reissue tr =
    Array.iter
      (fun requests ->
        let sels =
          List.filter_map
            (fun { req; _ } ->
              match req with
              | Protocol.Read_registers sel -> Some (List.map (fun n -> prefix ^ n) sel)
              | _ -> None)
            requests
        in
        let plans = List.map (fun sel -> Trace.span tr "Readback.plan_of_names" (fun () -> Readback.plan_of_names sm sel)) sels in
        let merged = Trace.span tr "Readback.merge_plans" (fun () -> Readback.merge_plans plans) in
        let frames = Trace.span tr "Readback.read_plan_frames" (fun () -> Readback.read_plan_frames board merged) in
        List.iter
          (fun names ->
            ignore
              (Trace.span tr "Readback.extract_registers_named" (fun () ->
                   Readback.extract_registers_named sm frames ~names)))
          sels)
      mix
  in
  let layers ~untraced ~traced =
    let per_round name = 1000.0 *. Util.sum (List.map (fun (s, _) -> Trace.dur s) (spans_named traced name)) /. float_of_int rounds in
    let lat pred =
      1000.0 *. Util.median (List.filter_map (fun (rq, l) -> if pred rq then Some l else None) !latencies)
    in
    let is_read = function Protocol.Read_registers _ -> true | _ -> false in
    let shard x = "farm.shard0.hub." ^ x in
    let codec = Util.sum (List.map (fun (s, _) -> Trace.dur s) (spans_named traced "protocol.encode" @ spans_named traced "protocol.decode")) in
    [
      ("readback.plan_ms_per_round", per_round "Readback.plan_of_names");
      ("readback.merge_ms_per_round", per_round "Readback.merge_plans");
      ("readback.capture_ms_per_round", per_round "Readback.read_plan_frames");
      ("readback.extract_ms_per_round", per_round "Readback.extract_registers_named");
      ("readback.frames_per_round", per_iter untraced (obs_delta untraced (shard "frames_read")));
      ("hub.step_ms_per_round", 1000.0 *. total_s_per_iter traced "Router.step");
      ("hub.read_p50_ms", lat is_read);
      ("hub.write_p50_ms", lat (fun r -> not (is_read r)));
      ( "hub.coalescing_ratio",
        obs_delta untraced (shard "serial_cable_seconds") /. obs_delta untraced (shard "cable_seconds") );
      ("hub.sweeps_per_round", per_iter untraced (obs_delta untraced (shard "sweeps")));
      ("hub.lock_conflicts_per_round", per_iter untraced (obs_delta untraced (shard "lock_conflicts")));
      ("host.status_polls_per_iter", per_iter untraced (obs_delta untraced "host.status_polls"));
      ("board.first_capture_mwords", first_read_words /. 1e6);
      ( "protocol.codec_us_per_req",
        1e6 *. codec /. float_of_int (max 1 (iterations traced * sessions)) );
    ]
  in
  let rig =
    {
      meter = (fun () -> Board.meter board);
      cycle = rounds;
      ops_per_iter = sessions;
      iterate;
      check;
      netsim_events = (fun () -> (Api.Synth.Netsim.counters (Board.netsim board)).events_settled);
      reissue;
      layers;
    }
  in
  ( { rig; prepare; first_read_s; first_read_words; excluded_s = excluded_s +. reference_s },
    [
      ("design", Util.Str "manycore SoC of 18-core zerv clusters; MUT = cluster0");
      ("cores", Util.Int (cfg.clusters * cores_per_cluster));
      ("mut_registers", Util.Int (List.length names));
      ("sessions", Util.Int sessions);
      ("rounds_per_cycle", Util.Int rounds);
      ("reads_per_round", Util.Int (sessions - 2));
      ("writes_per_round", Util.Str "step 1, then inject");
      ( "selection_sizes",
        Util.List
          (List.concat_map
             (fun rs ->
               List.filter_map
                 (fun { req; _ } ->
                   match req with
                   | Protocol.Read_registers s -> Some (Util.Int (List.length s))
                   | _ -> None)
                 rs)
             (Array.to_list mix)) );
    ] )
