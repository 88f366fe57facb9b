(** Sparse configuration-frame store for one SLR.

    Frames are allocated on first touch; unconfigured frames read back as
    zeros (like a blank device).  Keys are (region row, column, minor). *)

type key = int * int * int

type t = (key, int array) Hashtbl.t

let create () : t = Hashtbl.create 1024

let frame t key =
  match Hashtbl.find_opt t key with
  | Some f -> f
  | None ->
    let f = Array.make Zoomie_fabric.Geometry.words_per_frame 0 in
    Hashtbl.add t key f;
    f
