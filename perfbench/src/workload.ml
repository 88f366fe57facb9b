(* The contract between a workload and the harness. *)

module Api = Zoomie.Zoomie_api
module Meter = Api.Bitstream.Jtag.Meter
module Obs = Api.Obs

(** A check on the program's output failed; the run is not correct. *)
exception Check_failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Check_failed s)) fmt

(** One timed iteration (a pass, a round or an edit) as the harness saw
    it.  Check time is excluded from [wall] and [words]. *)
type sample = {
  wall : float;
  cable : Meter.counts;
  cable_s : float;
  transfers : int;
  words : float;
  majors : int;
  events : int;  (** netsim cell evaluations *)
  failed : int;
}

(** Everything one timed loop leaves behind. *)
type phase = {
  samples : sample list;  (** in iteration order *)
  spans : (Trace.span * float) list;  (** with self time; [] untraced *)
  obs0 : (string * Obs.value) list;  (** Obs registry at loop start *)
  obs1 : (string * Obs.value) list;  (** ... and at loop end *)
  obs_spans : Obs.span list;  (** program-side spans, CPU clock *)
}

type rig = {
  meter : unit -> Meter.t;  (** JTAG meter of the measured board *)
  cycle : int;  (** iterations per whole round of the operation mix *)
  ops_per_iter : int;
  iterate : Trace.t -> untimed:((unit -> unit) -> unit) -> int -> int;
      (** run iteration [i]; returns the operations that failed.  Work
          passed to [untimed] (checks inside an iteration) is excluded
          from the iteration's wall time. *)
  check : int -> unit;  (** checks of iteration [i]; @raise Check_failed *)
  netsim_events : unit -> int;
  reissue : Trace.t -> unit;
      (** traced runs only: re-issue one iteration's hidden lower-layer
          work through public functions, each call in its own span *)
  layers : untraced:phase -> traced:phase -> (string * float) list;
      (** the workload's own per-layer metrics *)
}

type setup = {
  rig : rig;
  prepare : unit -> unit;
      (** the checks' own work on the measured rig (probe passes, the
          first reference read): after set-up, before the timed loop,
          never timed *)
  first_read_s : float;  (** wall time of the first register read *)
  first_read_words : float;  (** words allocated by it *)
  excluded_s : float;
      (** wall time to leave out of set-up: the first read, the collection
          before it, and any oracle work set-up had to do *)
}

(** Time the first read after programming.  A full major collection runs
    first, so the read pays only for its own garbage; neither counts as
    set-up.  Returns the result, the read's wall time and words, and the
    wall time to leave out of set-up. *)
let first_read f =
  let g0 = Util.now () in
  Gc.full_major ();
  let w0 = Util.alloc_words () and t0 = Util.now () in
  let r = f () in
  let t1 = Util.now () in
  (r, t1 -. t0, Util.alloc_words () -. w0, t1 -. g0)

(* --- helpers the workloads share ----------------------------------- *)

let obs_value snap name =
  match List.assoc_opt name snap with
  | Some (Obs.Count n) -> float_of_int n
  | Some (Obs.Value v) -> v
  | Some (Obs.Dist { d_sum; _ }) -> d_sum
  | None -> 0.0

(** Growth of an Obs counter, gauge or histogram sum across a phase. *)
let obs_delta p name = obs_value p.obs1 name -. obs_value p.obs0 name

let iterations p = List.length p.samples

let per_iter p x = x /. float_of_int (max 1 (iterations p))

(** Spans of one name, with their self times. *)
let spans_named p name = List.filter (fun ((s : Trace.span), _) -> s.name = name) p.spans

let p50_ms p name =
  1000.0 *. Util.median (List.map (fun (s, _) -> Trace.dur s) (spans_named p name))

(** Total duration of one span name, per iteration (seconds). *)
let total_s_per_iter p name =
  per_iter p (Util.sum (List.map (fun (s, _) -> Trace.dur s) (spans_named p name)))

let words_per_iter p name =
  per_iter p (Util.sum (List.map (fun ((s : Trace.span), _) -> s.words) (spans_named p name)))

(** Median wall time of one re-issued call (seconds). *)
let reissued_s p name = Util.median (List.map (fun (s, _) -> Trace.dur s) (spans_named p name))

(** Repeat a re-issued call [n] times, each in its own span. *)
let repeat tr n name f =
  for _ = 1 to n do
    ignore (Trace.span tr name f)
  done
