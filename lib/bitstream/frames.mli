(** Sparse configuration-frame store: one per SLR microcontroller.

    Frames are keyed by (row, column, minor) and allocated on first
    touch; a frame is {!Zoomie_fabric.Geometry.words_per_frame} words.
    This is the "SRAM" a real device's configuration plane writes — the
    board reads LUT equations, FF init/captured state and memory contents
    out of it.  Callers look a frame up once and work on its words. *)

(** (row, column, minor). *)
type key = int * int * int

type t

val create : unit -> t

(** The frame at [key] — its live storage, allocated zeroed on first
    touch. *)
val frame : t -> key -> int array
