(** In-memory spans and counters for the traced run.

    A span records one call the benchmark makes into a layer: its name,
    start and end (seconds since the trace began), the enclosing span and
    the operation it served. Spans stay in memory and are written out
    once, when the run ends, so recording costs two clock reads and a
    cons. *)

val now : unit -> float
(** Monotonic clock, in seconds: the one every benchmark time is read from. *)

type t

val create : unit -> t

val op : t -> int -> unit
(** Spans recorded from now on belong to operation [n] (0: set-up and
    layer samples outside any operation). *)

val span : t -> string -> (unit -> 'a) -> 'a
(** [span t name f] runs [f], recording a span named [name] whose parent
    is the innermost span open around the call. *)

val durations : t -> string -> float array
(** Durations, in seconds, of every span named [name], in start order. *)

val count : t -> string -> int -> unit
(** Add to a named counter. *)

val write : t -> string -> unit
(** Write every span and counter to a file, one JSON object per line. *)
