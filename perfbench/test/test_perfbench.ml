(* The benchmark's own tests: every workload at a tiny size emits every
   metric BENCHMARK.json names for its kind of run, with its unit, and
   each workload's check fails when handed a planted wrong expectation. *)

open Perfbench

(* --- a minimal JSON reader, enough for BENCHMARK.json and result lines *)

type j = N of float | S of string | B of bool | Null | L of j list | O of (string * j) list

let parse text =
  let pos = ref 0 in
  let peek () = text.[!pos] in
  let rec ws () =
    if !pos < String.length text && String.contains " \n\r\t" (peek ()) then (incr pos; ws ())
  in
  let expect c = ws (); if peek () <> c then failwith (Printf.sprintf "json: expected %c at %d" c !pos); incr pos in
  let rec value () =
    ws ();
    match peek () with
    | '{' ->
      incr pos;
      ws ();
      if peek () = '}' then (incr pos; O [])
      else
        let rec members acc =
          let k = (match value () with S s -> s | _ -> failwith "json: key") in
          expect ':';
          let v = value () in
          ws ();
          let acc = (k, v) :: acc in
          if peek () = ',' then (incr pos; members acc) else (expect '}'; O (List.rev acc))
        in
        members []
    | '[' ->
      incr pos;
      ws ();
      if peek () = ']' then (incr pos; L [])
      else
        let rec items acc =
          let v = value () in
          ws ();
          if peek () = ',' then (incr pos; items (v :: acc)) else (expect ']'; L (List.rev (v :: acc)))
        in
        items []
    | '"' ->
      incr pos;
      let b = Buffer.create 16 in
      while peek () <> '"' do
        if peek () = '\\' then incr pos;
        Buffer.add_char b (peek ());
        incr pos
      done;
      incr pos;
      S (Buffer.contents b)
    | 't' -> pos := !pos + 4; B true
    | 'f' -> pos := !pos + 5; B false
    | 'n' -> pos := !pos + 4; Null
    | _ ->
      let start = !pos in
      while !pos < String.length text && String.contains "+-0123456789.eE" (peek ()) do incr pos done;
      N (float_of_string (String.sub text start (!pos - start)))
  in
  value ()

let member k = function O l -> List.assoc k l | _ -> failwith ("json: no member " ^ k)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let benchmark = lazy (parse (read_file "../../BENCHMARK.json"))

let declared kind =
  match member kind (Lazy.force benchmark) with
  | L ms -> List.map (fun m -> match (member "name" m, member "unit" m) with S n, S u -> (n, u) | _ -> failwith "metric") ms
  | _ -> failwith kind

let failures = ref 0

let check name cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end
  else Printf.printf "ok   %s\n%!" name

let must_fail name f =
  match f () with
  | () -> check (name ^ " (planted error not caught)") false
  | exception Workload.Check_failed msg -> check (name ^ ": " ^ msg) true

(* --- each workload at a tiny size ------------------------------------ *)

let tiny =
  [
    ( "debug-session",
      let cfg = { Debug_session.tiles = 0 } in
      let oracle = lazy (Debug_session.oracle cfg) in
      fun () -> Debug_session.setup ~cfg ~oracle:(Lazy.force oracle) ~seed:3 () );
    ("hub-mix", fun () -> Hub_mix.setup ~cfg:{ Hub_mix.clusters = 2 } ~seed:3 ());
    ("edit-loop", fun () -> Edit_loop.setup ~cfg:{ Edit_loop.clusters = 2 } ~seed:3 ());
  ]

let emits (workload, setup) =
  List.iter
    (fun (trace, kind) ->
      let r = Harness.run ~workload ~setup ~seconds:0.0 ~trace in
      let line = parse (Record.result_line ~trace r) in
      let label = Printf.sprintf "%s %s" workload kind in
      check (label ^ ": correct") (member "correct" line = B true && r.Harness.failures = []);
      List.iter (fun f -> Printf.printf "     %s\n" f) r.Harness.failures;
      check (label ^ ": operations attempted, none failed")
        (match (member "attempted" line, member "failed" line) with
         | N a, N f -> a > 0.0 && f = 0.0
         | _ -> false);
      let metrics = match member "metrics" line with O l -> l | _ -> [] in
      check (label ^ ": exactly the declared metrics")
        (List.sort compare (List.map fst metrics) = List.sort compare (List.map fst (declared kind)));
      List.iter
        (fun (name, unit_) ->
          match List.assoc_opt name metrics with
          | Some m ->
            check (Printf.sprintf "%s: %s in %s" label name unit_) (member "unit" m = S unit_);
            if not trace then
              check (Printf.sprintf "%s: %s above 0" label name)
                (match member "value" m with N v -> v > 0.0 | _ -> false)
          | None -> check (Printf.sprintf "%s: %s missing" label name) false)
        (declared kind))
    [ (false, "end_to_end"); (true, "per_layer") ]

(* --- planted wrong expectations --------------------------------------- *)

let planted () =
  (match !Edit_loop.last_outcome with
   | Some o ->
     Edit_loop.check_edit o;
     let plus_one =
       List.map
         (fun line ->
           match String.split_on_char ' ' line with
           | [ "li"; "r0,"; imm ] -> Printf.sprintf "li r0, %d" (int_of_string imm + 1)
           | _ -> line)
         o.Edit_loop.text
     in
     must_fail "edit-loop expecting the immediate plus one" (fun () ->
         Edit_loop.check_edit { o with Edit_loop.text = plus_one })
   | None -> check "edit-loop ran an edit" false);
  (match !Hub_mix.last_round with
   | Some (requests, responses, expected, injected) ->
     Hub_mix.check_round ~requests ~responses ~expected ~injected;
     let flipped = ref false in
     let responses =
       List.map
         (fun (s, p) ->
           match p with
           | Zoomie.Zoomie_api.Hub.Protocol.Values ((n, v) :: rest) when not !flipped ->
             flipped := true;
             let module B = Zoomie.Zoomie_api.Rtl.Bits in
             let bit0 = B.of_int ~width:(B.width v) 1 in
             (s, Zoomie.Zoomie_api.Hub.Protocol.Values ((n, B.logxor v bit0) :: rest))
           | _ -> (s, p))
         responses
     in
     must_fail "hub-mix with one coalesced value flipped" (fun () ->
         Hub_mix.check_round ~requests ~responses ~expected ~injected)
   | None -> check "hub-mix ran a round" false);
  match !Debug_session.last_pass with
  | Some (o, transcript) ->
    Debug_session.check_pass o transcript;
    must_fail "debug-session expecting the assertion a cycle late" (fun () ->
        Debug_session.check_pass
          { o with Debug_session.stop_cycle = o.Debug_session.stop_cycle + 1 }
          transcript)
  | None -> check "debug-session ran a pass" false

let () =
  List.iter emits tiny;
  planted ();
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end
