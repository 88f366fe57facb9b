(* Clocks, allocation counters, order statistics and a small JSON
   printer shared by the workloads and the harness. *)

(* Every timer and span in the benchmark reads the wall clock.  Obs spans
   stamp [Sys.time ()], which is process CPU time and grows faster than
   the wall clock while VTI's pool domains run, so harvested Obs spans
   are only ever reported as CPU seconds. *)
let now = Unix.gettimeofday

(* Words allocated so far: minor allocations plus direct major ones. *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let sorted xs = List.sort compare xs

(* Linear interpolation between closest ranks (Python's
   statistics.quantiles "inclusive" method): q in [0, 1]. *)
let quantile xs q =
  match sorted xs with
  | [] -> 0.0
  | l ->
    let a = Array.of_list l in
    let n = Array.length a in
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

let sum xs = List.fold_left ( +. ) 0.0 xs

(* VmHWM of this process, in MB (0 where /proc is unavailable). *)
let peak_rss_mb () =
  try
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec find () =
          let line = input_line ic in
          if String.starts_with ~prefix:"VmHWM:" line then
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
          else find ()
        in
        find ())
  with Sys_error _ | End_of_file | Scanf.Scan_failure _ -> 0.0

let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

type json =
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of json list
  | Obj of (string * json) list
  | Raw of string  (** pre-rendered JSON, emitted verbatim *)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let rec to_json = function
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Float f when Float.is_integer f && Float.abs f < 1e15 ->
    Printf.sprintf "%.1f" f
  | Float f when Float.is_finite f -> Printf.sprintf "%.17g" f
  | Float _ -> "null"
  | Str s -> "\"" ^ escape s ^ "\""
  | List l -> "[" ^ String.concat ", " (List.map to_json l) ^ "]"
  | Obj l ->
    "{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> "\"" ^ escape k ^ "\": " ^ to_json v) l)
    ^ "}"
  | Raw s -> s

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end
