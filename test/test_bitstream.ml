(* Bitstream/configuration tests, including reproductions of the §4.4-4.5
   reverse-engineering experiments: the BOUT ring-hop selection, IDCODE
   irrelevance on secondary SLRs, the U250 repetition pattern, and the
   GSR-mask quirk of partial reconfiguration (§4.7). *)

open Zoomie_rtl
module Packet = Zoomie_bitstream.Packet
module Program = Zoomie_bitstream.Program
module Board = Zoomie_bitstream.Board
module Uc = Zoomie_bitstream.Uc
module Device = Zoomie_fabric.Device
module Geometry = Zoomie_fabric.Geometry

let bits = Bits.of_int

(* --- packet codec --- *)

let test_packet_roundtrip () =
  let h = Packet.type1 ~op:Packet.Op_write ~reg:(Packet.reg_addr Packet.Far) ~count:1 in
  (match Packet.decode h with
  | Packet.Type1 { op = Packet.Op_write; reg; count = 1 }
    when reg = Packet.reg_addr Packet.Far ->
    ()
  | _ -> Alcotest.fail "type1 roundtrip");
  let h2 = Packet.type2 ~op:Packet.Op_read ~count:123456 in
  (match Packet.decode h2 with
  | Packet.Type2 { op = Packet.Op_read; count = 123456 } -> ()
  | _ -> Alcotest.fail "type2 roundtrip");
  Alcotest.(check bool) "sync" true (Packet.decode Packet.sync_word = Packet.Sync);
  Alcotest.(check bool) "dummy" true (Packet.decode Packet.nop_word = Packet.Dummy)

let test_far_roundtrip () =
  let w = Packet.far_encode ~row:3 ~col:187 ~minor:14 in
  Alcotest.(check (triple int int int)) "far" (3, 187, 14) (Packet.far_decode w)

let prop_packet_roundtrip =
  QCheck2.Test.make ~name:"packet header roundtrip" ~count:200 QCheck2.Gen.int
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let op = List.nth [ Packet.Op_nop; Packet.Op_read; Packet.Op_write ] (Random.State.int st 3) in
      let reg = Random.State.int st 30 in
      let count = Random.State.int st 2000 in
      if count <= 0x7FF then
        match Packet.decode (Packet.type1 ~op ~reg ~count) with
        | Packet.Type1 { op = o; reg = r; count = c } -> o = op && r = reg && c = count
        | _ -> false
      else true)

(* --- the §4.5 experiment: three constant registers, one per SLR --- *)

(* A board whose frames are written directly (no design): we imitate the
   experiment by writing distinct constants into the same frame address of
   each SLR, then reading back with and without BOUT hops. *)
let experiment_board () =
  let device = Device.u200 () in
  let board = Board.create device in
  (* Write constant i into SLR i's frame (0,0,0) word 0, with a chunked
     bitstream exactly like the §4.4 layout. *)
  let prog = Program.create () in
  List.iteri
    (fun k slr ->
      ignore slr;
      Program.sync prog;
      Program.select_slr prog ~hops:k;
      Program.write_idcode prog (Int32.to_int device.Device.idcode);
      Program.set_far prog ~row:0 ~col:0 ~minor:0;
      Program.write_frames prog
        [ Array.init Geometry.words_per_frame (fun w -> if w = 0 then 0x1000 + ((device.Device.primary + k) mod 3) else 0) ])
    [ 0; 1; 2 ];
  Program.desync prog;
  let (_ : int array) = Board.execute board (Program.words prog) in
  (device, board)

let readback_word0 board ~hops =
  let prog = Program.create () in
  Program.sync prog;
  Program.select_slr prog ~hops;
  Program.set_far prog ~row:0 ~col:0 ~minor:0;
  Program.read_frames prog ~words:Geometry.words_per_frame;
  Program.desync prog;
  let data = Board.execute board (Program.words prog) in
  data.(0)

let test_bout_selects_slr () =
  let device, board = experiment_board () in
  let primary = device.Device.primary in
  (* No hops: always the primary SLR's value — the Bitfiltrator trap. *)
  Alcotest.(check int) "no hops -> primary" (0x1000 + primary)
    (readback_word0 board ~hops:0);
  (* k hops -> primary + k. *)
  Alcotest.(check int) "1 hop" (0x1000 + ((primary + 1) mod 3)) (readback_word0 board ~hops:1);
  Alcotest.(check int) "2 hops" (0x1000 + ((primary + 2) mod 3)) (readback_word0 board ~hops:2)

let test_idcode_ignored_on_secondaries () =
  (* Mutating the IDCODE written to a secondary SLR has no effect (§4.5);
     a wrong IDCODE on the primary aborts configuration. *)
  let device = Device.u200 () in
  let board = Board.create device in
  let prog = Program.create () in
  Program.sync prog;
  Program.select_slr prog ~hops:1;
  Program.write_idcode prog 0xDEADBEE;  (* garbage, secondary: ignored *)
  Program.set_far prog ~row:0 ~col:0 ~minor:0;
  Program.write_frames prog [ Array.init Geometry.words_per_frame (fun w -> if w = 0 then 77 else 0) ];
  Program.desync prog;
  let (_ : int array) = Board.execute board (Program.words prog) in
  Alcotest.(check int) "secondary configured despite bad idcode" 77
    (readback_word0 board ~hops:1);
  (* Primary checks: wrong idcode flags an error. *)
  let prog2 = Program.create () in
  Program.sync prog2;
  Program.write_idcode prog2 0xBAD;
  Program.desync prog2;
  let (_ : int array) = Board.execute board (Program.words prog2) in
  Alcotest.(check bool) "primary flags idcode error" true
    (Board.uc board device.Device.primary).Uc.idcode_error

let test_u250_repetition_pattern () =
  (* §4.5: on a 4-SLR U250 the final SLR is reached with 3 BOUT pulses. *)
  let device = Device.u250 () in
  let board = Board.create device in
  let prog = Program.create () in
  List.iter
    (fun k ->
      Program.sync prog;
      Program.select_slr prog ~hops:k;
      Program.set_far prog ~row:0 ~col:0 ~minor:0;
      Program.write_frames prog
        [ Array.init Geometry.words_per_frame (fun w -> if w = 0 then 0x2000 + k else 0) ])
    [ 0; 1; 2; 3 ];
  Program.desync prog;
  let (_ : int array) = Board.execute board (Program.words prog) in
  List.iter
    (fun k ->
      Alcotest.(check int)
        (Printf.sprintf "%d hops" k)
        (0x2000 + k) (readback_word0 board ~hops:k))
    [ 0; 1; 2; 3 ]

let test_sync_resets_target () =
  (* After SYNC the chain targets the primary again. *)
  let _device, board = experiment_board () in
  let prog = Program.create () in
  Program.sync prog;
  Program.select_slr prog ~hops:2;
  Program.sync prog; (* reset *)
  Program.set_far prog ~row:0 ~col:0 ~minor:0;
  Program.read_frames prog ~words:Geometry.words_per_frame;
  Program.desync prog;
  let data = Board.execute board (Program.words prog) in
  Alcotest.(check int) "back to primary" 0x1001 data.(0)

let test_ctl0_mask_gating () =
  (* CTL0 writes only take effect through MASK-enabled bits. *)
  let device = Device.u200 () in
  let board = Board.create device in
  let uc = Board.uc board device.Device.primary in
  let prog = Program.create () in
  Program.sync prog;
  Program.write_reg prog Packet.Mask [ 0x0 ];
  Program.write_reg prog Packet.Ctl0 [ 0x1 ];
  Program.desync prog;
  let (_ : int array) = Board.execute board (Program.words prog) in
  Alcotest.(check bool) "masked write ignored" false (Uc.gsr_restricted uc);
  let prog2 = Program.create () in
  Program.sync prog2;
  Program.set_ctl0 prog2 ~mask:1 ~value:1;
  Program.desync prog2;
  let (_ : int array) = Board.execute board (Program.words prog2) in
  Alcotest.(check bool) "unmasked write applies" true (Uc.gsr_restricted uc)

let test_jtag_accounting_scales () =
  let _device, board = experiment_board () in
  let t0 = Board.jtag_seconds board in
  let (_ : int) = readback_word0 board ~hops:0 in
  let t1 = Board.jtag_seconds board in
  let (_ : int) = readback_word0 board ~hops:2 in
  let t2 = Board.jtag_seconds board in
  Alcotest.(check bool) "time accrues" true (t1 > t0);
  (* Two hops cost more than zero hops. *)
  Alcotest.(check bool) "hops cost" true (t2 -. t1 > t1 -. t0)

let test_frame_store () =
  let module Frames = Zoomie_bitstream.Frames in
  let f = Frames.create () in
  let fr = Frames.frame f (1, 2, 3) in
  Alcotest.(check int) "frame length" Geometry.words_per_frame (Array.length fr);
  fr.(5) <- 1 lsl 17;
  Alcotest.(check int) "a second look-up sees the same storage" (1 lsl 17)
    (Frames.frame f (1, 2, 3)).(5);
  Alcotest.(check int) "other frames untouched" 0 (Frames.frame f (1, 2, 4)).(5);
  Alcotest.(check int) "unconfigured frame reads zero" 0 (Frames.frame f (9, 9, 9)).(0)

let suite =
  [
    Alcotest.test_case "packet roundtrip" `Quick test_packet_roundtrip;
    Alcotest.test_case "FAR roundtrip" `Quick test_far_roundtrip;
    QCheck_alcotest.to_alcotest prop_packet_roundtrip;
    Alcotest.test_case "BOUT selects SLR (4.4)" `Quick test_bout_selects_slr;
    Alcotest.test_case "IDCODE ignored on secondaries (4.5)" `Quick
      test_idcode_ignored_on_secondaries;
    Alcotest.test_case "U250 repetition pattern (4.5)" `Quick test_u250_repetition_pattern;
    Alcotest.test_case "SYNC resets chain target" `Quick test_sync_resets_target;
    Alcotest.test_case "CTL0 mask gating" `Quick test_ctl0_mask_gating;
    Alcotest.test_case "JTAG accounting" `Quick test_jtag_accounting_scales;
    Alcotest.test_case "frame store" `Quick test_frame_store;
  ]

(* Robustness: arbitrary word streams never crash the configuration engine
   (corrupt bitstreams must fail safe, §4.1's µc is a real interpreter). *)
let prop_executor_total =
  QCheck2.Test.make ~name:"executor survives random streams" ~count:60
    QCheck2.Gen.int (fun seed ->
      let st = Random.State.make [| seed |] in
      let board = Board.create (Device.u200 ()) in
      let n = Random.State.int st 300 in
      let words =
        Array.init n (fun _ ->
            match Random.State.int st 6 with
            | 0 -> Packet.sync_word
            | 1 -> Packet.nop_word
            | 2 ->
              Packet.type1
                ~op:(List.nth [ Packet.Op_nop; Packet.Op_read; Packet.Op_write ]
                       (Random.State.int st 3))
                ~reg:(Random.State.int st 30)
                ~count:(Random.State.int st 20)
            | 3 -> Packet.type2 ~op:Packet.Op_write ~count:(Random.State.int st 50)
            | _ ->
              Random.State.int st 65536 lor (Random.State.int st 65536 lsl 16))
      in
      match Board.execute board words with
      | (_ : int array) -> true
      | exception Invalid_argument _ -> true (* explicit rejection is fine *))

(* Property: frames written through FDRI read back identically via FDRO
   (per SLR, arbitrary addresses). *)
let prop_frame_write_read =
  QCheck2.Test.make ~name:"FDRI/FDRO roundtrip" ~count:40 QCheck2.Gen.int
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let device = Device.u200 () in
      let board = Board.create device in
      let slr = Random.State.int st 3 in
      let row = Random.State.int st 5 in
      let col = Random.State.int st 100 in
      let data =
        Array.init Geometry.words_per_frame (fun _ ->
            Random.State.int st 65536 lor (Random.State.int st 65536 lsl 16))
      in
      let hops = (slr - device.Device.primary + 3) mod 3 in
      let prog = Program.create () in
      Program.sync prog;
      Program.select_slr prog ~hops;
      Program.set_far prog ~row ~col ~minor:2;
      Program.write_frames prog [ data ];
      Program.set_far prog ~row ~col ~minor:2;
      Program.read_frames prog ~words:Geometry.words_per_frame;
      Program.desync prog;
      let out = Board.execute board (Program.words prog) in
      Array.length out = Geometry.words_per_frame && out = data)

let suite =
  suite
  @ [
      QCheck_alcotest.to_alcotest prop_executor_total;
      QCheck_alcotest.to_alcotest prop_frame_write_read;
    ]

(* --- the board's per-frame state index, against the forward maps --- *)

module Loc = Zoomie_fabric.Loc
module Region = Zoomie_fabric.Region
module Netlist = Zoomie_synth.Netlist
module Netsim = Zoomie_synth.Netsim
module Vivado = Zoomie_vendor.Vivado

(* FFs, a block RAM deeper than one 1024-entry block and wider than one
   36-bit block (both last blocks ragged) and a LUTRAM deeper than one
   64-entry LUT. *)
let state_design ~bram_depth ~bram_width ~lut_depth ~extra =
  let b = Builder.create "state_top" in
  let clk = Builder.clock b "clk" in
  let count =
    Builder.reg_fb b ~clock:clk "count" 11 ~next:(fun q -> Expr.(q +: const_int ~width:11 1))
  in
  let shadow =
    Builder.reg_fb b ~clock:clk "shadow" extra ~next:(fun q ->
        Expr.(Slice (Concat (q, Signal count), extra - 1, 0)))
  in
  let data = Expr.Slice (Expr.Concat (Expr.Signal shadow, Expr.Concat (Expr.Signal count, Expr.Signal count)), bram_width - 1, 0) in
  let bram_out = Builder.mem_read_wire b "bram_out" bram_width in
  Builder.memory b ~name:"bram" ~width:bram_width ~depth:bram_depth
    ~writes:[ { Circuit.w_clock = clk; w_enable = Expr.vdd; w_addr = Expr.Signal count; w_data = data } ]
    ~reads:[ { Circuit.r_addr = Expr.Signal count; r_out = bram_out; r_kind = Circuit.Read_sync clk } ]
    ();
  let lut_out = Builder.mem_read_wire b "lut_out" 5 in
  let lut_addr = Expr.Slice (Expr.Signal count, 6, 0) in
  Builder.memory b ~name:"lutram" ~width:5 ~depth:lut_depth
    ~writes:
      [ { Circuit.w_clock = clk; w_enable = Expr.vdd; w_addr = lut_addr;
          w_data = Expr.Slice (Expr.Signal count, 4, 0) } ]
    ~reads:[ { Circuit.r_addr = lut_addr; r_out = lut_out; r_kind = Circuit.Read_comb } ]
    ();
  ignore (Builder.output b "o_bram" bram_width (Expr.Signal bram_out));
  ignore (Builder.output b "o_lut" 5 (Expr.Signal lut_out));
  let device = Device.u200 () in
  Vivado.compile
    { Vivado.device; design = Design.create ~top:"state_top" [ Builder.finish b ];
      clock_root = "clk"; freq_mhz = 50.0; replicated_units = [] }

type state_bit = Ff of int | Mem of int * int * int

(* Every FF and memory bit with its frame position, through the forward
   maps alone: (slr, frame key, word * 32 + bit, the bit). *)
let state_bits (p : Board.payload) =
  let out = ref [] in
  Array.iteri
    (fun i (s : Loc.ff_site) ->
      let minor, word, bit = Loc.ff_frame_bit s in
      out := (s.Loc.f_slr, (s.Loc.f_row, s.Loc.f_col, minor), (word * 32) + bit, Ff i) :: !out)
    p.Board.locmap.Loc.ff_sites;
  Array.iteri
    (fun mi placement ->
      let m = p.Board.netlist.Netlist.mems.(mi) in
      let depth = m.Netlist.mem_depth and width = m.Netlist.mem_width in
      for addr = 0 to depth - 1 do
        for bit = 0 to width - 1 do
          let slr, key, pos =
            match placement with
            | Loc.In_bram sites ->
              let brow, bcol, within = Loc.bram_bit_position ~depth ~addr ~bit in
              let s = sites.((brow * ((width + 35) / 36)) + bcol) in
              let minor, word, fbit = Geometry.bram_location ~tile:s.Loc.b_tile ~bit:within in
              (s.Loc.b_slr, (s.Loc.b_row, s.Loc.b_col, minor), (word * 32) + fbit)
            | Loc.In_lutram sites ->
              let unit, bitcol, within = Loc.lutram_bit_position ~addr ~bit in
              let s = sites.((bitcol * ((depth + 63) / 64)) + unit) in
              let minor, word, fbit =
                Geometry.lut_location ~tile:s.Loc.l_tile ~site:s.Loc.l_index ~bit:within
              in
              (s.Loc.l_slr, (s.Loc.l_row, s.Loc.l_col, minor), (word * 32) + fbit)
          in
          out := (slr, key, pos, Mem (mi, addr, bit)) :: !out
        done
      done)
    p.Board.locmap.Loc.mem_placements;
  !out

let hops_of device slr =
  let n = Device.num_slrs device in
  (slr - device.Device.primary + n) mod n

(* One stream per SLR through Board.execute: optionally clear the CTL0
   GSR mask and GCAPTURE, then FDRO-read each frame. *)
let read_state_frames board slr keys ~capture ~clear_mask =
  let wpf = Geometry.words_per_frame in
  let prog = Program.create () in
  Program.sync prog;
  Program.select_slr prog ~hops:(hops_of (Board.device board) slr);
  if clear_mask then Program.set_ctl0 prog ~mask:1 ~value:0;
  if capture then Program.gcapture prog;
  List.iter
    (fun (row, col, minor) ->
      Program.set_far prog ~row ~col ~minor;
      Program.read_frames prog ~words:wpf)
    keys;
  Program.desync prog;
  let data = Board.execute board (Program.words prog) in
  List.mapi (fun j key -> ((slr, key), Array.sub data (j * wpf) wpf)) keys

let write_state_frames board slr frames =
  let prog = Program.create () in
  Program.sync prog;
  Program.select_slr prog ~hops:(hops_of (Board.device board) slr);
  List.iter
    (fun ((_, (row, col, minor)), words) ->
      Program.set_far prog ~row ~col ~minor;
      Program.write_frames prog [ words ])
    frames;
  Program.grestore prog;
  Program.desync prog;
  ignore (Board.execute board (Program.words prog))

let frame_bit words pos = (words.(pos lsr 5) lsr (pos land 31)) land 1 = 1

(* Randomise the live state, then capture and read every state frame:
   each mapped bit must read its live value (visible frames) or stay as
   it was (frames the GSR restriction hides), and no unmapped bit may
   move.  Then write random frames and GRESTORE: each visible bit must
   take its frame's value, each hidden one keep its own.  [dynamic] are
   the regions of the last partial bitstream.  Returns how many bits
   were visible and hidden. *)
let state_round ?(dynamic = []) st board ~clear_mask =
  let p = Board.payload board and sim = Board.netsim board in
  let bits = state_bits p in
  let live = function
    | Ff i -> Netsim.ff_value sim i
    | Mem (mi, addr, bit) -> Netsim.mem_bit sim mi ~addr ~bit
  in
  let set b v =
    match b with
    | Ff i -> Netsim.set_ff sim i v
    | Mem (mi, addr, bit) -> Netsim.set_mem_bit sim mi ~addr ~bit v
  in
  List.iter (fun (_, _, _, b) -> set b (Random.State.bool st)) bits;
  let slrs = List.sort_uniq compare (List.map (fun (slr, _, _, _) -> slr) bits) in
  let keys slr =
    List.sort_uniq compare (List.filter_map (fun (s, k, _, _) -> if s = slr then Some k else None) bits)
  in
  let mapped = Hashtbl.create 64 in
  List.iter
    (fun (slr, key, pos, _) ->
      let m =
        match Hashtbl.find_opt mapped (slr, key) with
        | Some m -> m
        | None ->
          let m = Array.make (Geometry.words_per_frame * 32) false in
          Hashtbl.add mapped (slr, key) m;
          m
      in
      if m.(pos) then Alcotest.fail "two state bits share a frame position";
      m.(pos) <- true)
    bits;
  let visible (slr, (row, col, _)) =
    (not (Uc.gsr_restricted (Board.uc board slr)))
    || Region.contains_any dynamic ~slr ~row ~col
  in
  let sweep ~capture =
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun slr ->
        List.iter
          (fun (k, w) -> Hashtbl.replace tbl k w)
          (read_state_frames board slr (keys slr) ~capture ~clear_mask))
      slrs;
    tbl
  in
  let before = sweep ~capture:false in
  let values = List.map (fun (slr, key, pos, b) -> (slr, key, pos, b, live b)) bits in
  let after = sweep ~capture:true in
  let shown = ref 0 and hidden = ref 0 in
  List.iter
    (fun (slr, key, pos, _, v) ->
      let expect = if visible (slr, key) then v else frame_bit (Hashtbl.find before (slr, key)) pos in
      if visible (slr, key) then incr shown else incr hidden;
      if frame_bit (Hashtbl.find after (slr, key)) pos <> expect then
        Alcotest.failf "captured bit at SLR%d frame position %d differs" slr pos)
    values;
  Hashtbl.iter
    (fun k m ->
      let b = Hashtbl.find before k and a = Hashtbl.find after k in
      Array.iteri
        (fun pos is_state ->
          if (not is_state) && frame_bit a pos <> frame_bit b pos then
            Alcotest.failf "capture moved an unmapped bit at position %d" pos)
        m)
    mapped;
  let written = Hashtbl.create 64 in
  Hashtbl.iter
    (fun k _ ->
      Hashtbl.replace written k
        (Array.init Geometry.words_per_frame (fun _ ->
             Random.State.bits st lor (Random.State.int st 4 lsl 30))))
    mapped;
  List.iter
    (fun slr ->
      write_state_frames board slr
        (List.filter (fun ((s, _), _) -> s = slr) (List.of_seq (Hashtbl.to_seq written))))
    slrs;
  List.iter
    (fun (slr, key, pos, b, v) ->
      let expect = if visible (slr, key) then frame_bit (Hashtbl.find written (slr, key)) pos else v in
      if live b <> expect then Alcotest.failf "restored bit at SLR%d frame position %d differs" slr pos)
    values;
  (!shown, !hidden)

let test_state_index () =
  let st = Random.State.make [| 22 |] in
  let run = state_design ~bram_depth:1500 ~bram_width:40 ~lut_depth:100 ~extra:20 in
  let kinds = Array.to_list (Array.map (fun m -> m.Netlist.mem_kind) run.Vivado.netlist.Netlist.mems) in
  Alcotest.(check bool) "a BRAM and a LUTRAM" true
    (List.mem Netlist.Bram_mem kinds && List.mem Netlist.Lutram_mem kinds);
  let board = Board.create (Device.u200 ()) in
  Vivado.load_onto board run;
  let shown, hidden = state_round st board ~clear_mask:true in
  Alcotest.(check bool) "full bitstream: every bit visible" true (shown > 0 && hidden = 0);
  (* A partial bitstream over the BRAM's first column leaves CTL0's GSR
     bit set: only that region's frames may move. *)
  let bram =
    match
      Array.to_list run.Vivado.placement.Zoomie_pnr.Place.locmap.Loc.mem_placements
      |> List.find_map (function Loc.In_bram s -> Some s.(0) | Loc.In_lutram _ -> None)
    with
    | Some s -> s
    | None -> Alcotest.fail "no BRAM placed"
  in
  let region =
    Region.make ~slr:bram.Loc.b_slr ~row_lo:bram.Loc.b_row ~row_hi:bram.Loc.b_row
      ~col_lo:bram.Loc.b_col ~col_hi:bram.Loc.b_col
  in
  let frames =
    List.filter
      (fun (fw : Zoomie_pnr.Framegen.frame_write) ->
        let row, col, _ = fw.Zoomie_pnr.Framegen.fw_key in
        Region.contains region ~slr:fw.Zoomie_pnr.Framegen.fw_slr ~row ~col)
      run.Vivado.frames
  in
  Board.load board
    (Zoomie_vendor.Bitgen.partial (Board.device board) ~frames ~dynamic:[ region ]
       ~payload:(Option.get run.Vivado.bitstream.Board.bs_payload));
  let shown, hidden = state_round ~dynamic:[ region ] st board ~clear_mask:false in
  Alcotest.(check bool) "partial bitstream: some bits hidden, some visible" true (shown > 0 && hidden > 0);
  (* A full reprogram with another design: the index follows the new
     payload. *)
  Vivado.load_onto board (state_design ~bram_depth:1100 ~bram_width:37 ~lut_depth:70 ~extra:33);
  let shown, hidden = state_round st board ~clear_mask:true in
  Alcotest.(check bool) "reprogrammed: every bit visible" true (shown > 0 && hidden = 0)

let suite = suite @ [ Alcotest.test_case "state index == forward maps" `Quick test_state_index ]
