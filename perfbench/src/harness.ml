(* Runs one workload: repeated set-up, the timed loop, the checks, and —
   with tracing — the per-layer split.  End-to-end numbers come only from
   untraced loops; the traced loop runs after an untraced one in the same
   process, so its tracing overhead is measured, not assumed. *)

open Workload
module Jtag = Api.Bitstream.Jtag

let end_to_end =
  [
    ("setup_s", "s");
    ("first_read_s", "s");
    ("iter_p50_ms", "ms");
    ("iters_per_s", "1/s");
    ("cable_s_per_iter", "model_s");
    ("peak_rss_mb", "MB");
  ]

let per_layer =
  List.map
    (fun v -> ("cmd." ^ v ^ "_p50_ms", "ms"))
    [ "run"; "continue"; "step"; "resume"; "print"; "state"; "inject"; "when-did"; "reverse-continue" ]
  @ [
      ("timeline.checkpoint_kb", "KB");
      ("timeline.restore_cable_s_per_iter", "model_s");
      ("host.status_polls_per_iter", "count");
      ("readback.snapshot_ms", "ms");
      ("readback.restore_ms", "ms");
      ("readback.plan_ms_per_round", "ms");
      ("readback.merge_ms_per_round", "ms");
      ("readback.capture_ms_per_round", "ms");
      ("readback.extract_ms_per_round", "ms");
      ("readback.frames_per_round", "count");
      ("board.first_capture_mwords", "Mwords");
      ("board.load_s_per_iter", "s");
      ("board.load_mwords_per_iter", "Mwords");
      ("jtag.transfers_per_iter", "count");
      ("jtag.words_per_iter", "count");
      ("jtag.gcaptures_per_iter", "count");
      ("jtag.grestores_per_iter", "count");
      ("netsim.cycles_per_s", "cycles/s");
      ("netsim.events_per_iter", "count");
      ("netsim.run_s_per_iter", "s");
      ("netsim.create_s", "s");
      ("vti.recompile_s_per_iter", "s");
      ("vti.recompile_mwords_per_iter", "Mwords");
      ("vti.synth_cpu_s", "cpu_s");
      ("vti.place_cpu_s", "cpu_s");
      ("vti.relink_cpu_s", "cpu_s");
      ("vti.route_cpu_s", "cpu_s");
      ("vti.timing_cpu_s", "cpu_s");
      ("vti.framegen_cpu_s", "cpu_s");
      ("vti.synth_cache_hits_per_iter", "count");
      ("vti.compile_model_s_per_iter", "model_s");
      ("hub.step_ms_per_round", "ms");
      ("hub.read_p50_ms", "ms");
      ("hub.write_p50_ms", "ms");
      ("hub.coalescing_ratio", "ratio");
      ("hub.sweeps_per_round", "count");
      ("hub.lock_conflicts_per_round", "count");
      ("protocol.codec_us_per_req", "us");
      ("gc.alloc_mwords_per_iter", "Mwords");
      ("gc.major_per_iter", "count");
      ("gc.top_heap_mb", "MB");
      ("iter_p90_ms", "ms");
      ("trace.iter_p50_ms", "ms");
    ]

let unit_of name =
  match List.assoc_opt name end_to_end with
  | Some u -> u
  | None -> List.assoc name per_layer

(* Jtag.Meter.price of per-iteration average counts: the modeled cable
   seconds of one iteration.  Averaging integer counts first makes the
   figure identical for any number of whole cycles run. *)
let cable_seconds ~words ~syncs ~hops ~gcaptures ~grestores =
  (words *. Jtag.word_seconds) +. (syncs *. Jtag.sync_seconds) +. (hops *. Jtag.hop_seconds)
  +. (gcaptures *. Jtag.gcapture_seconds) +. (grestores *. Jtag.grestore_seconds)

let avg p f =
  float_of_int (List.fold_left (fun a s -> a + f s) 0 p.samples)
  /. float_of_int (max 1 (iterations p))

let cable_s_per_iter p =
  cable_seconds
    ~words:(avg p (fun s -> s.cable.Meter.m_words))
    ~syncs:(avg p (fun s -> s.cable.Meter.m_syncs))
    ~hops:(avg p (fun s -> s.cable.Meter.m_hops))
    ~gcaptures:(avg p (fun s -> s.cable.Meter.m_gcaptures))
    ~grestores:(avg p (fun s -> s.cable.Meter.m_grestores))

let walls p = List.map (fun s -> s.wall) p.samples

type run = {
  mutable failures : string list;
  mutable attempted : int;
  mutable failed : int;
  mutable counter : int;  (** iteration ids run on this rig so far *)
}

(* One timed loop: at least one whole cycle, then whole cycles until
   [seconds] of wall time have passed. *)
let phase run rig tr ~seconds =
  Gc.full_major ();
  let obs0 = Obs.snapshot () in
  let samples = ref [] in
  let start = Util.now () and first = run.counter in
  while
    run.counter = first
    || (run.counter - first) mod rig.cycle <> 0
    || Util.now () -. start < seconds
  do
    let i = run.counter in
    Trace.set_iter tr i;
    let excluded = ref 0.0 and excluded_words = ref 0.0 in
    let untimed f =
      let a = Util.now () and w = Util.alloc_words () in
      Trace.span tr "check" f;
      excluded := !excluded +. (Util.now () -. a);
      excluded_words := !excluded_words +. (Util.alloc_words () -. w)
    in
    let m = rig.meter () in
    let c0 = Meter.counts m and x0 = Meter.transfers m in
    let e0 = rig.netsim_events () and g0 = (Gc.quick_stat ()).Gc.major_collections in
    let w0 = Util.alloc_words () in
    let t0 = Util.now () in
    let failed = Trace.span tr "iteration" (fun () -> rig.iterate tr ~untimed i) in
    let t1 = Util.now () in
    let w1 = Util.alloc_words () in
    let m = rig.meter () in
    samples :=
      {
        wall = t1 -. t0 -. !excluded;
        cable = Trace.sub (Meter.counts m) c0;
        cable_s = Meter.price (Trace.sub (Meter.counts m) c0);
        transfers = Meter.transfers m - x0;
        words = w1 -. w0 -. !excluded_words;
        majors = (Gc.quick_stat ()).Gc.major_collections - g0;
        events = rig.netsim_events () - e0;
        failed;
      }
      :: !samples;
    run.attempted <- run.attempted + rig.ops_per_iter;
    run.failed <- run.failed + failed;
    (try rig.check i with Check_failed msg ->
       if List.length run.failures < 20 then
         run.failures <- Printf.sprintf "iteration %d: %s" i msg :: run.failures);
    run.counter <- i + 1
  done;
  {
    samples = List.rev !samples;
    spans = [];
    obs0;
    obs1 = Obs.snapshot ();
    obs_spans = [];
  }

(* --- the per-layer table -------------------------------------------- *)

type row = {
  r_name : string;
  r_calls : int;
  r_self : float;
  r_total : float;
  r_cable : Meter.counts;
  r_words : float;
}

let rows spans ~keep =
  let tbl = Hashtbl.create 32 and order = ref [] in
  List.iter
    (fun ((s : Trace.span), self) ->
      if keep s then begin
        let r =
          match Hashtbl.find_opt tbl s.name with
          | Some r -> r
          | None ->
            order := s.name :: !order;
            { r_name = s.name; r_calls = 0; r_self = 0.0; r_total = 0.0; r_cable = Meter.zero; r_words = 0.0 }
        in
        Hashtbl.replace tbl s.name
          {
            r with
            r_calls = r.r_calls + 1;
            r_self = r.r_self +. self;
            r_total = r.r_total +. Trace.dur s;
            r_cable = Meter.add r.r_cable s.cable;
            r_words = r.r_words +. s.words;
          }
      end)
    spans;
  List.rev_map (Hashtbl.find tbl) !order

let layer_table ~workload ~untraced ~traced =
  let n = float_of_int (max 1 (iterations traced)) in
  let ids = Hashtbl.create 64 in
  List.iter (fun ((s : Trace.span), _) -> if s.name = "iteration" then Hashtbl.replace ids s.id ()) traced.spans;
  let top (s : Trace.span) = Hashtbl.mem ids s.parent && s.name <> "check" in
  let inside (s : Trace.span) = s.iter >= 0 && s.name <> "iteration" && s.name <> "check" in
  let body = rows traced.spans ~keep:inside in
  let tops = rows traced.spans ~keep:top in
  let hidden = rows traced.spans ~keep:(fun s -> s.iter = -2) in
  let sum_counts rs = List.fold_left (fun a r -> Meter.add a r.r_cable) Meter.zero rs in
  let iter_counts = List.fold_left (fun a s -> Meter.add a s.cable) Meter.zero traced.samples in
  let top_wall = Util.sum (List.map (fun r -> r.r_total) tops) /. n in
  let iter_wall = Util.sum (walls traced) /. n in
  let exact = sum_counts tops = iter_counts in
  let b = Buffer.create 4096 in
  let pr fmt = Printf.bprintf b fmt in
  pr "per-layer table: %s, %d traced iterations (benchmark spans, wall clock)\n" workload
    (iterations traced);
  pr "%-36s %10s %12s %12s %14s %12s\n" "span" "calls/iter" "self ms/it" "total ms/it"
    "model_s/iter" "Mwords/iter";
  List.iter
    (fun r ->
      pr "%-36s %10.2f %12.4f %12.4f %14.6f %12.4f\n" r.r_name
        (float_of_int r.r_calls /. n) (1000.0 *. r.r_self /. n) (1000.0 *. r.r_total /. n)
        (Meter.price r.r_cable /. n) (r.r_words /. n /. 1e6))
    body;
  pr "top boundary: spans %.4f ms + unattributed %.4f ms = iteration wall %.4f ms/iter (checks excluded)\n"
    (1000.0 *. top_wall) (1000.0 *. (iter_wall -. top_wall)) (1000.0 *. iter_wall);
  pr "modeled: top-boundary spans %.9f model_s/iter, cable_s_per_iter %.9f; meter counts sum exactly: %b\n"
    (Meter.price (sum_counts tops) /. n) (cable_s_per_iter traced) exact;
  if hidden <> [] then begin
    pr "hidden lower layers, re-issued through public functions after the loop:\n";
    List.iter
      (fun r ->
        pr "  %-34s %4d calls  %10.4f ms/call  %14.6f model_s/call\n" r.r_name r.r_calls
          (1000.0 *. r.r_total /. float_of_int r.r_calls)
          (Meter.price r.r_cable /. float_of_int r.r_calls))
      hidden
  end;
  let p50u = 1000.0 *. Util.median (walls untraced) and p50t = 1000.0 *. Util.median (walls traced) in
  pr "tracing overhead: traced iter_p50 %.4f ms vs untraced %.4f ms (%+.2f%%)\n" p50t p50u
    (100.0 *. ((p50t /. p50u) -. 1.0));
  let json_rows =
    List.map
      (fun r ->
        Util.Obj
          [
            ("span", Util.Str r.r_name);
            ("calls_per_iter", Util.Float (float_of_int r.r_calls /. n));
            ("self_ms_per_iter", Util.Float (1000.0 *. r.r_self /. n));
            ("total_ms_per_iter", Util.Float (1000.0 *. r.r_total /. n));
            ("model_s_per_iter", Util.Float (Meter.price r.r_cable /. n));
            ("mwords_per_iter", Util.Float (r.r_words /. n /. 1e6));
          ])
      (body @ hidden)
  in
  ( Buffer.contents b,
    Util.Obj
      [
        ("rows", Util.List json_rows);
        ("top_boundary_ms_per_iter", Util.Float (1000.0 *. top_wall));
        ("unattributed_ms_per_iter", Util.Float (1000.0 *. (iter_wall -. top_wall)));
        ("iteration_ms_per_iter", Util.Float (1000.0 *. iter_wall));
        ("cable_counts_exact", Util.Bool exact);
        ("traced_iter_p50_ms", Util.Float p50t);
        ("untraced_iter_p50_ms", Util.Float p50u);
        ("tracing_overhead_pct", Util.Float (100.0 *. ((p50t /. p50u) -. 1.0)));
      ],
    exact )

(* --- the whole run -------------------------------------------------- *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  failures : string list;
  metrics : (string * float) list;  (** what the workload produced *)
  table : (string * Util.json) option;  (** printed text, JSON rows *)
  chrome : string option;
  makeup : (string * Util.json) list;
  setups : (float * float) list;  (** (setup_s, first_read_s) per repetition *)
}

let generic_layers ~untraced ~traced =
  let per s = avg untraced s in
  [
    ("jtag.transfers_per_iter", per (fun s -> s.transfers));
    ("jtag.words_per_iter", per (fun s -> s.cable.Meter.m_words));
    ("jtag.gcaptures_per_iter", per (fun s -> s.cable.Meter.m_gcaptures));
    ("jtag.grestores_per_iter", per (fun s -> s.cable.Meter.m_grestores));
    ("netsim.events_per_iter", per (fun s -> s.events));
    ("gc.alloc_mwords_per_iter", Util.sum (List.map (fun s -> s.words) untraced.samples) /. float_of_int (max 1 (iterations untraced)) /. 1e6);
    ("gc.major_per_iter", per (fun s -> s.majors));
    ("gc.top_heap_mb", Util.top_heap_mb ());
    ("iter_p90_ms", 1000.0 *. Util.quantile (walls untraced) 0.9);
    ("trace.iter_p50_ms", 1000.0 *. Util.median (walls traced));
  ]

let run ~workload ~(setup : unit -> Workload.setup * (string * Util.json) list) ~seconds ~trace =
  let timed_setup () =
    Gc.full_major ();
    let t0 = Util.now () in
    let s, makeup = setup () in
    let total = Util.now () -. t0 in
    ((total -. s.excluded_s, s.first_read_s), s, makeup)
  in
  let first, s, makeup = timed_setup () in
  let rig = s.rig in
  let run = { failures = []; attempted = 0; failed = 0; counter = 0 } in
  (try s.prepare () with Check_failed msg -> run.failures <- ("oracle: " ^ msg) :: run.failures);
  let metrics, table, chrome =
    if not trace then begin
      let untraced = phase run rig (Trace.disabled ()) ~seconds in
      ( [
          ("iter_p50_ms", 1000.0 *. Util.median (walls untraced));
          ("iters_per_s", float_of_int (iterations untraced) /. Util.sum (walls untraced));
          ("cable_s_per_iter", cable_s_per_iter untraced);
          ("peak_rss_mb", Util.peak_rss_mb ());
        ],
        None,
        None )
    end
    else begin
      let untraced = phase run rig (Trace.disabled ()) ~seconds:(seconds /. 2.0) in
      let tr = Trace.create ~enabled:true ~meter:rig.meter in
      Obs.set_trace_capacity 500_000;
      Obs.clear_spans ();
      Obs.set_tracing true;
      let traced = phase run rig tr ~seconds:(seconds /. 2.0) in
      Obs.set_tracing false;
      let obs_spans = Obs.spans () in
      Trace.set_iter tr (-2);
      rig.reissue tr;
      let traced = { traced with spans = Trace.self_times tr; obs_spans } in
      let text, rows, exact = layer_table ~workload ~untraced ~traced in
      if not exact then run.failures <- "per-layer meter counts do not sum to the iteration's" :: run.failures;
      ( generic_layers ~untraced ~traced @ rig.layers ~untraced ~traced,
        Some (text, rows),
        Some (Trace.chrome_json tr ~obs_spans) )
    end
  in
  (* setup_s and first_read_s are medians over the set-ups of a run; on a
     shared host one set-up moves by a fifth from one repetition to the
     next, so an untraced run sets up ten more times.  They come after the
     peak RSS is read, so the discarded rigs do not count in it. *)
  let setups =
    first :: (if trace then [] else List.init 10 (fun _ -> let t, _, _ = timed_setup () in t))
  in
  let metrics =
    if trace then metrics
    else
      ("setup_s", Util.median (List.map fst setups))
      :: ("first_read_s", Util.median (List.map snd setups))
      :: metrics
  in
  {
    correct = run.failures = [] && run.failed = 0;
    attempted = run.attempted;
    failed = run.failed;
    failures = List.rev run.failures;
    metrics;
    table;
    chrome;
    makeup;
    setups;
  }
