(* The machine-readable record each run writes: every metric with its
   unit, the operation counts, the seed and the workload's make-up, a
   fingerprint of the host, and the program's Obs snapshot.  `compare`
   reads these. *)

let read_lines path =
  try
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go acc = match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc in
        go [])
  with Sys_error _ -> []

let field_after prefix lines =
  List.find_map
    (fun l ->
      if String.starts_with ~prefix l then
        match String.index_opt l ':' with
        | Some i -> Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
        | None -> None
      else None)
    lines

(* The commit, when the checkout is a git work tree (it is not always). *)
let git_commit () =
  match read_lines ".git/HEAD" with
  | [ head ] when String.starts_with ~prefix:"ref: " head -> (
    let ref_ = String.sub head 5 (String.length head - 5) in
    match read_lines (Filename.concat ".git" ref_) with
    | [ sha ] -> sha
    | _ ->
      Option.value ~default:"unknown"
        (List.find_map
           (fun l ->
             match String.split_on_char ' ' l with
             | [ sha; r ] when r = ref_ -> Some sha
             | _ -> None)
           (read_lines ".git/packed-refs")))
  | [ sha ] -> sha
  | _ -> "unknown"

let host () =
  let cpu = read_lines "/proc/cpuinfo" in
  let cores = List.length (List.filter (String.starts_with ~prefix:"processor") cpu) in
  Util.Obj
    [
      ("cores", Util.Int (if cores > 0 then cores else Domain.recommended_domain_count ()));
      ("cpu_model", Util.Str (Option.value ~default:"unknown" (field_after "model name" cpu)));
      ("mem_total", Util.Str (Option.value ~default:"unknown" (field_after "MemTotal" (read_lines "/proc/meminfo"))));
      ("ocaml", Util.Str Sys.ocaml_version);
      ("commit", Util.Str (git_commit ()));
    ]

let metric name value = (name, Util.Obj [ ("value", Util.Float value); ("unit", Util.Str (Harness.unit_of name)) ])

let to_json ~workload ~seed ~seconds ~trace (r : Harness.result) ~trace_file =
  Util.Obj
    ([
       ("benchmark", Util.Str "perfbench");
       ("workload", Util.Str workload);
       ("seed", Util.Int seed);
       ("seconds", Util.Float seconds);
       ("trace", Util.Bool trace);
       ("time", Util.Float (Unix.gettimeofday ()));
       ("makeup", Util.Obj r.makeup);
       ("host", host ());
       ("correct", Util.Bool r.correct);
       ("attempted", Util.Int r.attempted);
       ("failed", Util.Int r.failed);
       ("failures", Util.List (List.map (fun s -> Util.Str s) r.failures));
       ( "setups",
         Util.List
           (List.map
              (fun (s, f) -> Util.Obj [ ("setup_s", Util.Float s); ("first_read_s", Util.Float f) ])
              r.setups) );
       ("metrics", Util.Obj (List.map (fun (n, v) -> metric n v) r.metrics));
       ("obs", Util.Raw (Zoomie.Zoomie_api.Obs.snapshot_to_json (Zoomie.Zoomie_api.Obs.snapshot ())));
     ]
    @ (match r.table with Some (_, rows) -> [ ("layers", rows) ] | None -> [])
    @ match trace_file with Some f -> [ ("chrome_trace", Util.Str f) ] | None -> [])

(** The result line: correct, attempted, failed and every metric
    BENCHMARK.json names for this kind of run — end-to-end untraced,
    per-layer traced.  A layer the workload never enters reads 0. *)
let result_line ~trace (r : Harness.result) =
  let names = if trace then Harness.per_layer else Harness.end_to_end in
  Util.to_json
    (Util.Obj
       [
         ("correct", Util.Bool r.correct);
         ("attempted", Util.Int r.attempted);
         ("failed", Util.Int r.failed);
         ( "metrics",
           Util.Obj
             (List.map
                (fun (name, unit_) ->
                  ( name,
                    Util.Obj
                      [
                        ("value", Util.Float (Option.value ~default:0.0 (List.assoc_opt name r.metrics)));
                        ("unit", Util.Str unit_);
                      ] ))
                names) );
       ])
