(** Normalized routes: the attribute set of one announcement, plus the
    provenance the decision process needs. *)

open Dice_inet

type t = {
  origin : Attr.origin;
  as_path : Asn.Path.t;
  next_hop : Ipv4.t;
  med : int option;
  local_pref : int option;  (** set on import; iBGP carries it *)
  communities : Community.t list;
  atomic_aggregate : bool;
  aggregator : (int * Ipv4.t) option;
  unknowns : Attr.unknown list;
}

val make :
  ?origin:Attr.origin ->
  ?med:int option ->
  ?local_pref:int option ->
  ?communities:Community.t list ->
  ?atomic_aggregate:bool ->
  ?aggregator:(int * Ipv4.t) option ->
  ?unknowns:Attr.unknown list ->
  as_path:Asn.Path.t ->
  next_hop:Ipv4.t ->
  unit ->
  t

val of_attrs : Attr.t list -> (t, Attr.error) result
(** Normalize a decoded attribute list; fails on missing mandatory
    attributes (ORIGIN, AS_PATH, NEXT_HOP). *)

val to_attrs : t -> Attr.t list
(** Back to a canonical attribute list (sorted by type code). *)

val origin_as : t -> int option
(** The AS that originated the route — what the hijack checker compares. *)

val neighbor_as : t -> int option

val has_community : t -> Community.t -> bool
val add_community : t -> Community.t -> t
val remove_community : t -> Community.t -> t
val prepend_as : t -> int -> t

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** Where a route was learned, for tie-breaking and loop checks. *)
type src = {
  peer_addr : Ipv4.t;
  peer_asn : int;
  peer_bgp_id : Ipv4.t;
  ebgp : bool;
}

val static_src : src
(** Placeholder provenance for locally-originated (static) routes: they
    win every tie-break against learned routes. *)
