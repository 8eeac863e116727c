(** Concolic routes: the attribute view of one announcement whose fields
    are {!Dice_concolic.Cval.t}s.

    During normal operation every field is purely concrete and the router
    pays nothing for the instrumentation. During exploration the
    symbolizer replaces selected fields (NLRI address and length, MED,
    LOCAL_PREF, origin AS — paper §3.2) with symbolic inputs, and the
    filter interpreter and decision process then record path constraints
    as they branch on them. *)

open Dice_inet
open Dice_concolic

type t = {
  net_addr : Cval.t;  (** 32-bit network address *)
  net_len : Cval.t;  (** 8-bit prefix length; invariant <= 32 *)
  next_hop : Cval.t;  (** 32 bits *)
  med : Cval.t;  (** 32 bits *)
  has_med : bool;
  local_pref : Cval.t;  (** 32 bits *)
  has_local_pref : bool;
  origin : Cval.t;  (** 8 bits: 0 IGP, 1 EGP, 2 INCOMPLETE *)
  origin_as : Cval.t;  (** 32 bits; defaults to the AS_PATH's last AS *)
  as_path : Asn.Path.t;  (** concrete *)
  communities : Community.t list;  (** concrete *)
  atomic_aggregate : bool;
  aggregator : (int * Ipv4.t) option;
  unknowns : Attr.unknown list;
}

val of_route : Prefix.t -> Route.t -> t
(** Purely concrete view of a decoded route. *)

val to_route : t -> Prefix.t * Route.t
(** Concretize. If [origin_as] differs from the AS_PATH's last AS, the
    path's final AS is rewritten accordingly (symbolized origin) — except
    for a concrete 0, {!of_route}'s encoding of "no origin AS", which
    leaves the path as it is, also after {!prepend_as} gave an empty path
    an origin. *)

val prefix_of : t -> Prefix.t
(** The concrete prefix the concolic NLRI currently denotes. *)

val with_local_pref : t -> Cval.t -> t
val with_med : t -> Cval.t -> t
val add_community : t -> Community.t -> t
val remove_community : t -> Community.t -> t
val prepend_as : t -> int -> t

val pp : Format.formatter -> t -> unit
