(** Synthetic AS-level topology for generating realistic AS paths.

    Built by preferential attachment: a small clique of tier-1 networks,
    then every new AS picks one or two providers with probability skewed
    towards well-connected ASes — giving the heavy-tailed degree
    distribution real BGP tables exhibit. *)

type t

val generate : rng:Dice_util.Rng.t -> n_ases:int -> unit -> t
(** The tier-1 clique has [min 8 n_ases] members. AS numbers are dense from
    [base_asn] (64600) upward so they never collide with the testbed's
    own AS numbers. *)

val base_asn : int
val n_ases : t -> int
val asns : t -> int array
(** All AS numbers, index order = creation order (tier-1s first). *)

val providers : t -> int -> int list
(** Provider ASNs of an AS (empty for tier-1s). *)

val degree : t -> int -> int
(** Number of customer+provider edges at an AS. *)

val is_tier1 : t -> int -> bool

val random_as : t -> rng:Dice_util.Rng.t -> int
(** Degree-biased random AS (popular origins are picked more often). *)

val path_from_origin : t -> rng:Dice_util.Rng.t -> collector_as:int -> origin:int -> int list
(** An AS path as seen by a route collector peering with [collector_as]:
    [collector_as] first, then the (customer-to-provider reversed) chain
    down to [origin]. Loop-free. *)
