(* Machine-readable bench results: each bench case writes
   BENCH_<case>.json into artifacts/ (under the working directory — the
   repo root under `dune exec`), so the perf trajectory is tracked across
   PRs instead of living only in scrollback.  Every record embeds the
   bench RNG seed (`--seed N`, default 1) so a run can be reproduced. *)

type field =
  | Str of string
  | Num of float
  | Int of int
  | Bool of bool
  | Raw of string
      (* pre-rendered JSON, emitted verbatim — for nesting a metrics
         snapshot (Obs.snapshot_to_json) inside a bench record *)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let field_to_string = function
  | Str s -> Printf.sprintf "\"%s\"" (escape s)
  | Num f ->
    if Float.is_finite f then Printf.sprintf "%.6g" f else "null"
  | Int i -> string_of_int i
  | Bool b -> if b then "true" else "false"
  | Raw json -> json

(* The bench RNG seed, set once from `--seed N` by the driver; every
   record written after that carries it. *)
let seed = ref 1

let set_seed s = seed := s
let current_seed () = !seed

let out_dir = "artifacts"

(* Peak resident set size of this process so far (VmHWM), in MB; nan
   (written as null) where /proc/self/status is unavailable. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> Float.nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> Float.nan
      | line -> (
        match Scanf.sscanf line "VmHWM: %d kB" Fun.id with
        | kb -> float_of_int kb /. 1024.0
        | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> scan ())
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan

(* The process's memory so far: peak RSS, the OCaml heap's high-water
   mark and the words allocated since start-up. *)
let memory_fields () =
  let st = Gc.quick_stat () in
  [
    ("peak_rss_mb", Num (peak_rss_mb ()));
    ( "top_heap_mb",
      Num (float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0) );
    ( "alloc_mwords",
      Num ((st.Gc.minor_words +. st.Gc.major_words -. st.Gc.promoted_words) /. 1e6) );
  ]

(** [write ~case fields] writes [artifacts/BENCH_<case>.json] and returns
    the path written.  ["seed"], ["peak_rss_mb"], ["top_heap_mb"] and
    ["alloc_mwords"] fields are appended unless the caller already
    supplied them. *)
let write ~case fields =
  (try Unix.mkdir out_dir 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let fields =
    fields
    @ List.filter
        (fun (k, _) -> not (List.mem_assoc k fields))
        (("seed", Int !seed) :: memory_fields ())
  in
  (* Every record must carry a metrics snapshot: a bench result without
     its zoomie_obs context can't be compared across PRs.  Fail the run
     loudly rather than writing a crippled record. *)
  if not (List.mem_assoc "metrics" fields) then
    invalid_arg
      (Printf.sprintf "BENCH_%s.json: record has no \"metrics\" field" case);
  let file = Filename.concat out_dir (Printf.sprintf "BENCH_%s.json" case) in
  let oc = open_out file in
  output_string oc "{\n";
  let n = List.length fields in
  List.iteri
    (fun i (k, v) ->
      output_string oc
        (Printf.sprintf "  \"%s\": %s%s\n" (escape k) (field_to_string v)
           (if i < n - 1 then "," else "")))
    fields;
  output_string oc "}\n";
  close_out oc;
  file
