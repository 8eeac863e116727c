(** Branch-direction coverage accounting.

    Tracks which (site, direction) pairs executions have exercised —
    including branches taken on purely concrete data — so the explorer can
    tell when a negation would open genuinely new territory and when the
    aggregate constraint set has converged.

    A table belongs to one exploration: it is keyed by that exploration's
    site ids, and written only by the domain that runs it. *)

type t

val create : unit -> t

val record : t -> Path.Site.t -> bool -> bool
(** [record t site dir] marks the direction covered; returns [true] if it
    was new. *)

val covered : t -> Path.Site.t -> bool -> bool

val hits_id : t -> int * bool -> int
(** How many times [record] has seen the (site id, direction) pair — 0
    when never covered. On an exploration's table this is the frequency
    across all of its runs. *)

val site_count : t -> int
(** Number of distinct sites seen at least once. *)

val direction_count : t -> int
(** Number of (site, direction) pairs seen. *)

val snapshot : t -> (int * bool) list
(** Covered (site id, direction) pairs, sorted. *)
