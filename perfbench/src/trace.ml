(* Spans recorded by the benchmark's own code around every call it makes
   into a layer of the program.  Nothing inside lib/ is instrumented for
   this: a span covers exactly one public-function call (or one group of
   calls the benchmark issues together), stamped with the wall clock, the
   board's JTAG meter and the allocation counters.  Spans stay in memory
   and are exported as Chrome trace JSON when the run ends. *)

module Meter = Zoomie.Zoomie_api.Bitstream.Jtag.Meter

type span = {
  id : int;
  name : string;
  parent : int;  (** id of the enclosing span, -1 at the top *)
  iter : int;  (** pass, round or edit id; -1 outside iterations *)
  t0 : float;
  t1 : float;
  cable : Meter.counts;  (** JTAG traffic inside the span *)
  cable_s : float;  (** modeled cable seconds inside the span *)
  words : float;  (** words allocated inside the span *)
}

type t = {
  enabled : bool;
  meter : unit -> Meter.t;
  mutable next : int;
  mutable stack : int list;
  mutable iter : int;
  mutable spans : span list;  (** newest first *)
}

let create ~enabled ~meter =
  { enabled; meter; next = 0; stack = []; iter = -1; spans = [] }

let disabled () = create ~enabled:false ~meter:(fun () -> Meter.create ())

let enabled t = t.enabled

let set_iter t i = t.iter <- i

let sub (a : Meter.counts) (b : Meter.counts) =
  {
    Meter.m_words = a.Meter.m_words - b.Meter.m_words;
    m_syncs = a.m_syncs - b.m_syncs;
    m_hops = a.m_hops - b.m_hops;
    m_gcaptures = a.m_gcaptures - b.m_gcaptures;
    m_grestores = a.m_grestores - b.m_grestores;
  }

(* Run [f] inside a span named [name].  Disabled tracers cost one branch. *)
let span t name f =
  if not t.enabled then f ()
  else begin
    let id = t.next in
    t.next <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    t.stack <- id :: t.stack;
    let m = t.meter () in
    let c0 = Meter.counts m and s0 = Meter.seconds m in
    let w0 = Util.alloc_words () in
    let t0 = Util.now () in
    let finish () =
      let t1 = Util.now () in
      let m = t.meter () in
      t.stack <- List.tl t.stack;
      t.spans <-
        {
          id;
          name;
          parent;
          iter = t.iter;
          t0;
          t1;
          cable = sub (Meter.counts m) c0;
          cable_s = Meter.seconds m -. s0;
          words = Util.alloc_words () -. w0;
        }
        :: t.spans
    in
    match f () with
    | r ->
      finish ();
      r
    | exception e ->
      finish ();
      raise e
  end

let spans t = List.rev t.spans

let dur s = s.t1 -. s.t0

(* Self time: the span minus the part of it its child spans cover. *)
let self_times t =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (dur s +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    t.spans;
  List.map
    (fun s -> (s, dur s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)))
    (spans t)

(* Chrome trace_event JSON: the benchmark's wall-clock spans on thread 1,
   and any harvested Obs spans on thread 2.  Obs stamps [Sys.time ()],
   so those events sit on a CPU-seconds axis of their own and say so. *)
let chrome_json t ~obs_spans =
  let us x = Util.Float (x *. 1e6) in
  let base = match spans t with s :: _ -> s.t0 | [] -> 0.0 in
  let ours =
    List.map
      (fun s ->
        Util.Obj
          [
            ("name", Util.Str s.name);
            ("cat", Util.Str "perfbench");
            ("ph", Util.Str "X");
            ("ts", us (s.t0 -. base));
            ("dur", us (dur s));
            ("pid", Util.Int 1);
            ("tid", Util.Int 1);
            ( "args",
              Util.Obj
                [
                  ("clock", Util.Str "wall");
                  ("iter", Util.Int s.iter);
                  ("parent", Util.Int s.parent);
                  ("cable_model_s", Util.Float s.cable_s);
                  ("alloc_words", Util.Float s.words);
                ] );
          ])
      (spans t)
  in
  let theirs =
    List.map
      (fun (o : Zoomie.Zoomie_api.Obs.span) ->
        Util.Obj
          [
            ("name", Util.Str o.sp_name);
            ("cat", Util.Str ("obs." ^ o.sp_cat));
            ("ph", Util.Str "X");
            ("ts", us o.sp_wall_start);
            ("dur", us o.sp_wall_dur);
            ("pid", Util.Int 1);
            ("tid", Util.Int 2);
            ( "args",
              Util.Obj
                [
                  ("clock", Util.Str "cpu");
                  ("parent_seq", Util.Int o.sp_parent);
                  ("model_s", Util.Float o.sp_model_dur);
                ] );
          ])
      obs_spans
  in
  Util.to_json
    (Util.Obj
       [
         ("traceEvents", Util.List (ours @ theirs));
         ("displayTimeUnit", Util.Str "ms");
       ])
