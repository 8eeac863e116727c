(** Deterministic pseudo-random number generation.

    All randomized components of the reproduction (trace generation, random
    exploration strategy, workload synthesis) draw from this splittable
    SplitMix64 generator so that every experiment is reproducible from a
    seed. *)

type t
(** Mutable generator state. *)

val create : int64 -> t
(** [create seed] returns a fresh generator. Equal seeds yield equal
    streams. *)

val copy : t -> t
(** [copy t] duplicates the generator state; the copy evolves
    independently. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t].
    Use to give subsystems their own streams without cross-coupling. *)

val int64 : t -> int64
(** Next raw 64-bit value. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]]. Requires [lo <= hi]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool
(** Fair coin. *)

val chance : t -> float -> bool
(** [chance t p] is [true] with probability [p]. *)

val pick : t -> 'a array -> 'a
(** Uniform choice from a non-empty array. *)

val pick_list : t -> 'a list -> 'a
(** Uniform choice from a non-empty list. *)

val exponential : t -> float -> float
(** [exponential t rate] samples an exponential inter-arrival time with the
    given rate (events per unit time). *)
