(** Order statistics and name rules for the benchmark's reported metrics. *)

val median : float array -> float
(** @raise Invalid_argument on an empty sample. *)

val percentile : float -> float array -> float option
(** [percentile p xs], [p] in [(0, 1)], by linear interpolation between
    closest ranks. A percentile above the median is refused ([None]) unless
    at least ten samples lie beyond it, so a p90 needs 100 samples. The
    median needs one. *)

val min_samples : float -> int
(** The smallest sample count {!percentile} accepts for [p]. *)

val valid_name : string -> bool
(** A metric or workload name: a letter or digit, then at most 63 more
    letters, digits, [_], [.] or [-]. *)

val valid_unit : string -> bool
(** A unit: 1 to 16 letters, digits, [_], [/], [%], [.] or [-]. *)
