(** The simulated FPGA board: a chiplet device, one configuration
    microcontroller per SLR connected in a ring, and the currently loaded
    design executing in a netlist simulator.

    The chain dispatcher implements the §4.4 discovery: a run of [k]
    consecutive empty BOUT writes directs subsequent JTAG operations to the
    SLR [k] hops from the primary, until another BOUT run appears.  All JTAG
    traffic is accounted against the {!Jtag} timing model, giving the
    readback measurements of Table 3. *)

open Zoomie_fabric
module Netsim = Zoomie_synth.Netsim
module Netsim_batch = Zoomie_synth.Netsim_batch
module Netlist = Zoomie_synth.Netlist

type payload = {
  netlist : Netlist.t;
  locmap : Loc.map;
  clock_root : string;
  freq_mhz : float;
}

type bitstream = {
  bs_words : int array;
  bs_payload : payload option;
  bs_partial : bool;
  bs_dynamic : Region.t list;  (** regions being reconfigured *)
}

(* The state bits resident in one (row, column) cell of an SLR's region
   grid, per frame minor, as packed ints: FFs as [(ff lsl 12) lor pos],
   memory sites as [(mem lsl 32) lor site ordinal], where [pos] is
   [word * 32 + bit] within the frame.  A site's bits are never stored;
   [iter_mem_bits] expands them from the closed-form layouts. *)
type cell = { c_ffs : int array array; c_mems : int array array }

type t = {
  device : Device.t;
  ucs : Uc.t array;
  mutable design : (payload * Netsim.t) option;
  mutable batch : Netsim_batch.t option;  (* lazy 63-lane shadow model *)
  mutable dynamic_regions : Region.t list;
  meter : Jtag.Meter.t;
  mutable fpga_cycles : int;
  mutable lease : string option;
  mutable index : (payload * cell array array) option;
      (* per-SLR state index of the keyed payload (see [build_index]) *)
  mutable cable_scale : float;
      (* wall seconds slept per modeled cable second during execute;
         0 = pure model (default) *)
  mutable cable_debt : float;
      (* accumulated unslept cable wall time; paid off in >=5ms chunks
         so sub-millisecond transfers don't each eat a scheduler tick *)
}

let device t = t.device
let jtag_seconds t = Jtag.Meter.seconds t.meter
let meter t = t.meter
let fpga_cycles t = t.fpga_cycles

(* Wall-clock cable emulation: when set, every execute sleeps
   [cable_scale] wall seconds per modeled cable second it charged.  The
   transport is the resource a debug farm shards — one cable per board,
   transfers overlapping across boards but serial on each — so a farm
   harness enables this to make cable occupancy real to the scheduler.
   Off (0.0) everywhere else: the model stays purely virtual-time. *)
let set_cable_scale t s = t.cable_scale <- max 0.0 s
let cable_scale t = t.cable_scale

(* --- ownership lease (advisory, for multi-session front-ends) --- *)

let lease_owner t = t.lease

let acquire_lease t ~owner =
  match t.lease with
  | None ->
    t.lease <- Some owner;
    Ok ()
  | Some o when o = owner -> Ok ()
  | Some o -> Error (Printf.sprintf "board leased by %S" o)

let release_lease t ~owner =
  match t.lease with
  | Some o when o = owner -> t.lease <- None
  | _ -> ()

(* --- cable transfer accounting (batched-sweep bookkeeping) --- *)

let transfer_count t = Jtag.Meter.transfers t.meter
let words_transferred t = (Jtag.Meter.counts t.meter).Jtag.Meter.m_words

let netsim t =
  match t.design with
  | Some (_, sim) -> sim
  | None -> invalid_arg "Board: no design loaded"

let payload t =
  match t.design with
  | Some (p, _) -> p
  | None -> invalid_arg "Board: no design loaded"

(* The 63-lane shadow model of the loaded design, compiled lazily on
   first use and dropped whenever (re)configuration replaces the design.
   It runs off-cable: a fuzz farm stepping 63 stimulus scenarios per
   settle against the same netlist the board executes, without charging
   the JTAG meter or the board's cycle clock. *)
let batch_sim t =
  match t.batch with
  | Some b -> b
  | None ->
    let p =
      match t.design with
      | Some (p, _) -> p
      | None -> invalid_arg "Board: no design loaded"
    in
    let b = Netsim_batch.create p.netlist in
    t.batch <- Some b;
    b

let run_batch t cycles =
  let p =
    match t.design with
    | Some (p, _) -> p
    | None -> invalid_arg "Board: no design loaded"
  in
  Netsim_batch.step ~n:cycles (batch_sim t) p.clock_root

let uc t i = t.ucs.(i)

(* --- the per-frame state index ------------------------------------------ *)

(* Is state at (row, col) on [slr] visible to capture/restore?  Not when
   a partial bitstream has left the CTL0 GSR restriction set and (row,
   col) lies outside the dynamic regions.  Every site of a frame shares
   its key's (row, col), so this is one test per frame. *)
let visible t ~slr ~row ~col =
  (not (Uc.gsr_restricted t.ucs.(slr)))
  || Region.contains_any t.dynamic_regions ~slr ~row ~col

let no_state = { c_ffs = [||]; c_mems = [||] }

(* One pass over the payload's FF cells and memory sites — nothing per
   memory bit — into a dense per-SLR grid of cells.  A BRAM site lands in
   each frame its bits reach (the content frames from bit 0 to its last
   valid bit), a LUTRAM site in its LUT's frame. *)
let build_index t (p : payload) =
  let grids = Array.map (fun u -> Array.make (u.Uc.region_rows * Uc.num_columns u) None) t.ucs in
  let add ~mem slr ~row ~col ~minor v =
    let u = t.ucs.(slr) in
    let c = (row * Uc.num_columns u) + col in
    let ffs, mems =
      match grids.(slr).(c) with
      | Some b -> b
      | None ->
        let n = Geometry.frames_per_column u.Uc.layout.Geometry.columns.(col) in
        let b = (Array.make n [], Array.make n []) in
        grids.(slr).(c) <- Some b;
        b
    in
    let l = if mem then mems else ffs in
    l.(minor) <- v :: l.(minor)
  in
  Array.iteri
    (fun i (s : Loc.ff_site) ->
      let minor, word, bit = Loc.ff_frame_bit s in
      add ~mem:false s.Loc.f_slr ~row:s.Loc.f_row ~col:s.Loc.f_col ~minor
        ((i lsl 12) lor (word lsl 5) lor bit))
    p.locmap.Loc.ff_sites;
  Array.iteri
    (fun mi placement ->
      let m = p.netlist.Netlist.mems.(mi) in
      let depth = m.Netlist.mem_depth and width = m.Netlist.mem_width in
      if depth > 0 && width > 0 then
        match placement with
        | Loc.In_bram sites ->
          let wb = (width + 35) / 36 in
          Array.iteri
            (fun k (s : Loc.bram_site) ->
              let addr0 = k / wb * 1024 and bit0 = k mod wb * 36 in
              if addr0 < depth then begin
                let last_addr = min (addr0 + 1023) (depth - 1)
                and last_bit = min (bit0 + 35) (width - 1) in
                let _, _, within = Loc.bram_bit_position ~depth ~addr:last_addr ~bit:last_bit in
                let first, _, _ = Geometry.bram_location ~tile:s.Loc.b_tile ~bit:0 in
                let last, _, _ = Geometry.bram_location ~tile:s.Loc.b_tile ~bit:within in
                for minor = first to last do
                  add ~mem:true s.Loc.b_slr ~row:s.Loc.b_row ~col:s.Loc.b_col ~minor
                    ((mi lsl 32) lor k)
                done
              end)
            sites
        | Loc.In_lutram sites ->
          let units = (depth + 63) / 64 in
          Array.iteri
            (fun k (s : Loc.lut_site) ->
              if k / units < width then
                let minor, _, _ =
                  Geometry.lut_location ~tile:s.Loc.l_tile ~site:s.Loc.l_index ~bit:0
                in
                add ~mem:true s.Loc.l_slr ~row:s.Loc.l_row ~col:s.Loc.l_col ~minor
                  ((mi lsl 32) lor k))
            sites)
    p.locmap.Loc.mem_placements;
  let pack = Array.map (fun l -> Array.of_list (List.rev l)) in
  Array.map
    (Array.map (function
      | None -> no_state
      | Some (ffs, mems) -> { c_ffs = pack ffs; c_mems = pack mems }))
    grids

(* Keyed on the payload's physical identity: (re)configuration installs a
   fresh payload, which invalidates the index by construction. *)
let index t (p : payload) =
  match t.index with
  | Some (p', idx) when p' == p -> idx
  | _ ->
    let idx = build_index t p in
    t.index <- Some (p, idx);
    idx

(* The state of frame [key] on [slr], when it holds any and is visible:
   its packed FFs and memory sites. *)
let frame_state t p ~slr (row, col, minor) =
  let c = (index t p).(slr).((row * Uc.num_columns t.ucs.(slr)) + col) in
  if
    minor < Array.length c.c_ffs
    && (c.c_ffs.(minor) <> [||] || c.c_mems.(minor) <> [||])
    && visible t ~slr ~row ~col
  then Some (c.c_ffs.(minor), c.c_mems.(minor))
  else None

let bits_per_frame = Geometry.words_per_frame * 32

(* [f mi addr bit pos] for every bit the memory [sites] of frame [minor]
   hold: the inverse of Loc.bram_bit_position with Geometry.bram_location
   (1024 x 36 blocks, each spread over consecutive content frames) and of
   Loc.lutram_bit_position with Geometry.lut_location (64 x 1 per LUT,
   two words per tile). *)
let iter_mem_bits (p : payload) sites ~minor f =
  Array.iter
    (fun e ->
      let mi = e lsr 32 and k = e land 0xFFFFFFFF in
      let m = p.netlist.Netlist.mems.(mi) in
      let depth = m.Netlist.mem_depth and width = m.Netlist.mem_width in
      match p.locmap.Loc.mem_placements.(mi) with
      | Loc.In_bram s ->
        let wb = (width + 35) / 36 in
        let addr0 = k / wb * 1024 and bit0 = k mod wb * 36 in
        let first, _, _ = Geometry.bram_location ~tile:s.(k).Loc.b_tile ~bit:0 in
        let lo = (minor - first) * bits_per_frame in
        let rows = min 1024 (depth - addr0) and cols = min 36 (width - bit0) in
        for a = lo / 36 to min (rows - 1) ((lo + bits_per_frame - 1) / 36) do
          for b = 0 to cols - 1 do
            let pos = (a * 36) + b - lo in
            if pos >= 0 && pos < bits_per_frame then f mi (addr0 + a) (bit0 + b) pos
          done
        done
      | Loc.In_lutram s ->
        let units = (depth + 63) / 64 in
        let addr0 = k mod units * 64 and bit = k / units in
        let _, word0, _ =
          Geometry.lut_location ~tile:s.(k).Loc.l_tile ~site:s.(k).Loc.l_index ~bit:0
        in
        for a = 0 to min 63 (depth - addr0 - 1) do
          f mi (addr0 + a) bit ((word0 * 32) + a)
        done)
    sites

let get_bit f pos = (f.(pos lsr 5) lsr (pos land 31)) land 1 = 1

let set_bit f pos v =
  let w = pos lsr 5 and m = 1 lsl (pos land 31) in
  f.(w) <- (if v then f.(w) lor m else f.(w) land lnot m)

(* The lazy half of GCAPTURE: refresh the state bits of one frame from
   the live design, at FDRO read time. *)
let fill_frame t slr ((_, _, minor) as key) =
  match t.design with
  | None -> ()
  | Some (p, sim) -> (
    match frame_state t p ~slr key with
    | None -> ()
    | Some (ffs, mems) ->
      let f = Frames.frame t.ucs.(slr).Uc.frames key in
      Array.iter (fun e -> set_bit f (e land 0xFFF) (Netsim.ff_value sim (e lsr 12))) ffs;
      iter_mem_bits p mems ~minor (fun mi addr bit pos ->
          set_bit f pos (Netsim.mem_bit sim mi ~addr ~bit)))

(* GRESTORE: drive the frames written since the last GCAPTURE back into
   live state.  Clean frames either mirror the fabric already (captured)
   or predate the capture that superseded them — either way the full-SLR
   sweep they used to get was a no-op. *)
let restore_slr t slr =
  match t.design with
  | None -> ()
  | Some (p, sim) ->
    let u = t.ucs.(slr) in
    let applied = ref false in
    List.iter
      (fun ((_, _, minor) as key) ->
        match frame_state t p ~slr key with
        | None -> ()
        | Some (ffs, mems) ->
          applied := true;
          Uc.mark_clean u key;
          let f = Frames.frame u.Uc.frames key in
          Array.iter (fun e -> Netsim.set_ff sim (e lsr 12) (get_bit f (e land 0xFFF))) ffs;
          iter_mem_bits p mems ~minor (fun mi addr bit pos ->
              Netsim.set_mem_bit sim mi ~addr ~bit (get_bit f pos)))
      (Uc.dirty_keys u);
    if !applied then Netsim.eval_comb sim

(* START: pulse GSR — FFs (within the restriction) take their init value. *)
let start_slr t slr =
  match t.design with
  | None -> ()
  | Some (p, sim) ->
    Array.iteri
      (fun i (s : Loc.ff_site) ->
        if s.Loc.f_slr = slr && visible t ~slr ~row:s.Loc.f_row ~col:s.Loc.f_col then
          Netsim.set_ff sim i p.netlist.Netlist.ffs.(i).Netlist.init)
      p.locmap.Loc.ff_sites

let create device =
  let t =
    {
      device;
      ucs = Array.init (Device.num_slrs device) (fun i -> Uc.create ~device ~slr_index:i);
      design = None;
      batch = None;
      dynamic_regions = [];
      meter = Jtag.Meter.create ();
      fpga_cycles = 0;
      lease = None;
      index = None;
      cable_scale = 0.0;
      cable_debt = 0.0;
    }
  in
  Array.iteri
    (fun i u ->
      Uc.set_hooks u
        {
          (* GCAPTURE itself is bookkeeping only (the µc arms lazy
             readout); frames materialize per-key as FDRO serves them. *)
          Uc.on_gcapture = (fun () -> ());
          on_grestore = (fun () -> restore_slr t i);
          on_start = (fun () -> start_slr t i);
          on_frame_read = (fun key -> fill_frame t i key);
        })
    t.ucs;
  t

(** Execute a JTAG word stream through the chain dispatcher.  Returns read
    data (FDRO responses etc.) and charges transfer time. *)
let execute t (stream : int array) =
  let n_slrs = Device.num_slrs t.device in
  let primary = t.device.Device.primary in
  let target = ref primary in
  let bout_run = ref 0 in
  let out = ref [] in
  let out_words = ref 0 in
  let i = ref 0 in
  let n = Array.length stream in
  let take count =
    let data = Array.sub stream (!i) (min count (n - !i)) in
    i := !i + Array.length data;
    data
  in
  let syncs = ref 0 in
  let hops = ref 0 in
  let gcaptures = ref 0 in
  let grestores = ref 0 in
  let pending_op = ref None in
  while !i < n do
    let w = stream.(!i) in
    incr i;
    match Packet.decode w with
    | Packet.Sync ->
      incr syncs;
      target := primary;
      bout_run := 0
    | Packet.Dummy -> ()
    | Packet.Type1 { op = Packet.Op_write; reg; count } -> (
      match Packet.reg_of_addr reg with
      | Some Packet.Bout when count = 0 ->
        (* Consecutive-run semantics: k empty BOUT writes select primary+k. *)
        incr bout_run;
        target := (primary + !bout_run) mod n_slrs;
        incr hops
      | Some r ->
        bout_run := 0;
        let data = take count in
        (match r with
        | Packet.Cmd ->
          Array.iter
            (fun v ->
              match Packet.command_of_code v with
              | Some Packet.Cmd_gcapture -> incr gcaptures
              | Some Packet.Cmd_grestore -> incr grestores
              | _ -> ())
            data
        | _ -> ());
        if count = 0 && r = Packet.Fdri then pending_op := Some (`Write, r)
        else Uc.write_reg t.ucs.(!target) r data
      | None ->
        bout_run := 0;
        ignore (take count))
    | Packet.Type1 { op = Packet.Op_read; reg; count } -> (
      bout_run := 0;
      match Packet.reg_of_addr reg with
      | Some r ->
        if count = 0 then pending_op := Some (`Read, r)
        else begin
          let data = Uc.read_reg t.ucs.(!target) r ~count in
          out := data :: !out;
          out_words := !out_words + Array.length data
        end
      | None -> ())
    | Packet.Type2 { op; count } -> (
      bout_run := 0;
      match (!pending_op, op) with
      | Some (`Write, r), Packet.Op_write ->
        pending_op := None;
        let data = take count in
        Uc.write_reg t.ucs.(!target) r data
      | Some (`Read, r), Packet.Op_read ->
        pending_op := None;
        let data = Uc.read_reg t.ucs.(!target) r ~count in
        out := data :: !out;
        out_words := !out_words + Array.length data
      | _ -> ignore (take (match op with Packet.Op_write -> count | _ -> 0)))
    | Packet.Type1 { op = Packet.Op_nop; _ } | Packet.Raw _ -> bout_run := 0
  done;
  let before = Jtag.Meter.seconds t.meter in
  Jtag.Meter.charge t.meter
    {
      Jtag.Meter.m_words = n + !out_words;
      m_syncs = !syncs;
      m_hops = !hops;
      m_gcaptures = !gcaptures;
      m_grestores = !grestores;
    };
  if t.cable_scale > 0.0 then begin
    (* occupy the cable in wall time (scaled); the executing domain
       blocks exactly as a thread driving a real JTAG adapter would,
       letting other boards' cables run concurrently.  Debt below 5ms
       carries over — sleeping it immediately would round every tiny
       transfer up to a whole scheduler tick and inflate the total far
       beyond [cable_scale]'s compression factor. *)
    t.cable_debt <-
      t.cable_debt +. (t.cable_scale *. (Jtag.Meter.seconds t.meter -. before));
    if t.cable_debt >= 0.005 then begin
      let d = t.cable_debt in
      t.cable_debt <- 0.0;
      Unix.sleepf d
    end
  end;
  Array.concat (List.rev !out)

(** Pure pricing scan: the {!Jtag.Meter.counts} an {!execute} of [stream]
    would charge, without touching board or uc state.  The response word
    total is derivable from the stream alone because the ucs answer every
    read with exactly the requested count.  [price_stream] is the modeled
    standalone cost of the transfer — what a scheduler uses to price
    hypothetical traffic through the same {!Jtag.Meter.price} the
    executor charges with. *)
let stream_counts (stream : int array) =
  let i = ref 0 in
  let n = Array.length stream in
  let out_words = ref 0 in
  let syncs = ref 0 in
  let hops = ref 0 in
  let gcaptures = ref 0 in
  let grestores = ref 0 in
  let pending_op = ref None in
  let skip count = i := min n (!i + count) in
  while !i < n do
    let w = stream.(!i) in
    incr i;
    match Packet.decode w with
    | Packet.Sync -> incr syncs
    | Packet.Dummy -> ()
    | Packet.Type1 { op = Packet.Op_write; reg; count } -> (
      match Packet.reg_of_addr reg with
      | Some Packet.Bout when count = 0 -> incr hops
      | Some r ->
        (match r with
        | Packet.Cmd ->
          for k = 0 to min count (n - !i) - 1 do
            match Packet.command_of_code stream.(!i + k) with
            | Some Packet.Cmd_gcapture -> incr gcaptures
            | Some Packet.Cmd_grestore -> incr grestores
            | _ -> ()
          done
        | _ -> ());
        skip count;
        if count = 0 && r = Packet.Fdri then pending_op := Some `Write
      | None -> skip count)
    | Packet.Type1 { op = Packet.Op_read; reg; count } -> (
      match Packet.reg_of_addr reg with
      | Some _ ->
        if count = 0 then pending_op := Some `Read
        else out_words := !out_words + count
      | None -> ())
    | Packet.Type2 { op; count } -> (
      match (!pending_op, op) with
      | Some `Write, Packet.Op_write ->
        pending_op := None;
        skip count
      | Some `Read, Packet.Op_read ->
        pending_op := None;
        out_words := !out_words + count
      | _ -> skip (match op with Packet.Op_write -> count | _ -> 0))
    | Packet.Type1 { op = Packet.Op_nop; _ } | Packet.Raw _ -> ()
  done;
  {
    Jtag.Meter.m_words = n + !out_words;
    m_syncs = !syncs;
    m_hops = !hops;
    m_gcaptures = !gcaptures;
    m_grestores = !grestores;
  }

let price_stream stream = Jtag.Meter.price (stream_counts stream)

(* Carry live state across a partial reconfiguration: FFs and memories
   outside the dynamic regions keep their values (matched by RTL name);
   inside, GSR re-initializes. *)
let carry_over_state t (fresh : Netsim.t) (p : payload) ~dynamic =
  match t.design with
  | None -> ()
  | Some (old_p, old_sim) ->
    let old_values = Hashtbl.create 1024 in
    Array.iteri
      (fun i (name, bit) ->
        Hashtbl.replace old_values (name, bit) (Netsim.ff_value old_sim i))
      old_p.netlist.Netlist.ff_names;
    Array.iteri
      (fun i (name, bit) ->
        let site = p.locmap.Loc.ff_sites.(i) in
        let in_dynamic =
          Region.contains_any dynamic ~slr:site.Loc.f_slr ~row:site.Loc.f_row
            ~col:site.Loc.f_col
        in
        if not in_dynamic then
          match Hashtbl.find_opt old_values (name, bit) with
          | Some v -> Netsim.set_ff fresh i v
          | None -> ())
      p.netlist.Netlist.ff_names;
    (* Memories: carry whole arrays by name when static. *)
    let old_mem_index = Hashtbl.create 16 in
    Array.iteri
      (fun mi (m : Netlist.mem) -> Hashtbl.replace old_mem_index m.Netlist.mem_name mi)
      old_p.netlist.Netlist.mems;
    Array.iteri
      (fun mi (m : Netlist.mem) ->
        let in_dynamic =
          match p.locmap.Loc.mem_placements.(mi) with
          | Loc.In_bram sites ->
            Array.exists
              (fun (s : Loc.bram_site) ->
                Region.contains_any dynamic ~slr:s.Loc.b_slr ~row:s.Loc.b_row
                  ~col:s.Loc.b_col)
              sites
          | Loc.In_lutram sites ->
            Array.exists
              (fun (s : Loc.lut_site) ->
                Region.contains_any dynamic ~slr:s.Loc.l_slr ~row:s.Loc.l_row
                  ~col:s.Loc.l_col)
              sites
        in
        if not in_dynamic then
          match Hashtbl.find_opt old_mem_index m.Netlist.mem_name with
          | Some old_mi when
              old_p.netlist.Netlist.mems.(old_mi).Netlist.mem_width = m.Netlist.mem_width
              && old_p.netlist.Netlist.mems.(old_mi).Netlist.mem_depth = m.Netlist.mem_depth ->
            for addr = 0 to m.Netlist.mem_depth - 1 do
              for bit = 0 to m.Netlist.mem_width - 1 do
                Netsim.set_mem_bit fresh mi ~addr ~bit
                  (Netsim.mem_bit old_sim old_mi ~addr ~bit)
              done
            done
          | _ -> ())
      p.netlist.Netlist.mems

(** Program the board.  Full bitstreams replace the design; partial
    bitstreams swap the dynamic regions while static state carries over.
    Note: partial reconfiguration leaves each target SLR's CTL0 GSR-mask
    bit set — the quirk Zoomie must handle before readback (§4.7). *)
let load t (bs : bitstream) =
  let (_ : int array) = execute t bs.bs_words in
  (match bs.bs_payload with
  | Some p ->
    let fresh = Netsim.create p.netlist in
    if bs.bs_partial then begin
      t.dynamic_regions <- bs.bs_dynamic;
      carry_over_state t fresh p ~dynamic:bs.bs_dynamic
    end;
    (* Board pins are driven by the environment: their values persist
       across (re)configuration. *)
    (match t.design with
    | Some (old_p, old_sim) ->
      let old_inputs = Hashtbl.create 16 in
      Array.iter
        (fun (io : Netlist.io) ->
          Hashtbl.replace old_inputs
            (io.Netlist.io_name, io.Netlist.io_bit)
            (Netsim.get old_sim io.Netlist.io_net))
        old_p.netlist.Netlist.inputs;
      Array.iter
        (fun (io : Netlist.io) ->
          match Hashtbl.find_opt old_inputs (io.Netlist.io_name, io.Netlist.io_bit) with
          | Some v -> Netsim.set fresh io.Netlist.io_net v
          | None -> ())
        p.netlist.Netlist.inputs
    | None -> ());
    t.design <- Some (p, fresh);
    t.batch <- None;
    t.index <- None;
    Netsim.eval_comb fresh
  | None -> ());
  (* The primary µc rejects the whole configuration on IDCODE mismatch. *)
  if (uc t t.device.Device.primary).Uc.idcode_error then
    invalid_arg "Board.load: IDCODE verification failed on primary SLR"

(** Advance the free-running root clock of the loaded design. *)
let run t cycles =
  let p, sim = (payload t, netsim t) in
  Netsim.step ~n:cycles sim p.clock_root;
  t.fpga_cycles <- t.fpga_cycles + cycles

(** Advance up to [cycles], stopping early once net [stop_net] settles
    high after an edge (the debug controller's stop latch, resolved by
    the host at attach).  Returns the cycles actually run — the clock
    keeps real-time accounting exact even on early stop. *)
let run_until t ~stop_net cycles =
  let p, sim = (payload t, netsim t) in
  let ran = Netsim.run_until sim p.clock_root ~stop_net ~max_cycles:cycles in
  t.fpga_cycles <- t.fpga_cycles + ran;
  ran

(** FPGA wall-clock seconds elapsed so far at the design frequency. *)
let fpga_seconds t =
  match t.design with
  | Some (p, _) -> float_of_int t.fpga_cycles /. (p.freq_mhz *. 1.0e6)
  | None -> 0.0
