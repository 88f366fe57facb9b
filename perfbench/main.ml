(* perfbench: the Zoomie benchmark.

     main.exe --workload debug-session|hub-mix|edit-loop --seed N
              --seconds S --trace 0|1 [--out DIR]

   Prints the per-layer table (with --trace 1) and, as its last line, one
   JSON object: correct, attempted, failed and the metrics — every
   end-to-end metric with --trace 0, every per-layer metric with
   --trace 1.  A per-layer metric of a layer the workload never enters
   reads 0 there; the record written under DIR leaves it out.  Exits 1
   when a check fails. *)

open Perfbench

(* Each entry makes a workload's set-up function.  debug-session's
   oracle runs on its own twin rig first, so the twin is garbage before
   the first measured set-up. *)
let workloads =
  [
    ( "debug-session",
      fun ~seed ->
        let oracle = Debug_session.oracle Debug_session.default in
        fun () -> Debug_session.setup ~oracle ~seed () );
    ("hub-mix", fun ~seed () -> Hub_mix.setup ~seed ());
    ("edit-loop", fun ~seed () -> Edit_loop.setup ~seed ());
  ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let out = ref (Filename.concat "perfbench" "results") in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  debug-session | hub-mix | edit-loop");
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_float seconds, "S  length of the timed loop");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or per-layer (1) run");
      ("--out", Arg.Set_string out, "DIR  where records and traces go");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let setup =
    match List.assoc_opt !workload workloads with
    | Some f -> (
      try f ~seed:!seed
      with Workload.Check_failed msg ->
        Printf.printf "CHECK FAILED: oracle: %s\n" msg;
        exit 1)
    | None ->
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
  in
  let trace_flag = !trace in
  let trace = trace_flag = 1 in
  let r = Harness.run ~workload:!workload ~setup ~seconds:!seconds ~trace in
  Option.iter (fun (text, _) -> print_string text) r.table;
  List.iter (fun f -> Printf.printf "CHECK FAILED: %s\n" f) r.failures;
  Util.mkdir_p !out;
  let stem =
    Filename.concat !out
      (Printf.sprintf "%s-seed%d-trace%d-%d" !workload !seed trace_flag (Unix.getpid ()))
  in
  let trace_file =
    Option.map
      (fun json ->
        let f = stem ^ ".trace.json" in
        Util.write_file f json;
        f)
      r.chrome
  in
  let record = Record.to_json ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace r ~trace_file in
  Util.write_file (stem ^ ".json") (Util.to_json record ^ "\n");
  Printf.printf "record: %s.json\n" stem;
  print_endline (Record.result_line ~trace r);
  exit (if r.correct then 0 else 1)
