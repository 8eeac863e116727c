(** RouteViews-style trace synthesis.

    The paper replays "a full dump plus 15-min updates trace" from
    route-views.eqix (319,355 prefixes). We lack that proprietary capture,
    so this module generates an equivalent-shaped workload: a full-table
    dump whose prefix-length distribution follows published BGP table
    statistics, followed by a timed update trace with announce/withdraw
    churn at a configurable rate. Each route's origin is drawn by degree
    from an {!Asgraph} of [n_ases] ASes (numbered from 64600), and its
    AS path climbs one random provider at a time from the origin to a
    tier-1. *)

open Dice_inet

type entry = {
  prefix : Prefix.t;
  as_path : int list;  (** collector AS first, origin AS last *)
  origin : Dice_bgp.Attr.origin;
  med : int option;
}

type event =
  | Announce of { time : float; entry : entry }
  | Withdraw of { time : float; prefix : Prefix.t }

val event_time : event -> float

type t = {
  collector_as : int;  (** the AS of the "rest of the Internet" peer *)
  dump : entry array;  (** full-table dump, prefix order *)
  events : event array;  (** update trace, chronological *)
  duration : float;  (** trace length, seconds *)
}

type params = {
  seed : int64;
  n_prefixes : int;
  n_ases : int;
  collector_as : int;
  duration : float;  (** seconds of update trace; 900 = the paper's 15 min *)
  update_rate : float;  (** mean updates per second in the tail *)
  withdraw_fraction : float;  (** share of updates that are withdrawals *)
}

val default_params : params
(** seed 42, 20,000 prefixes (scaled-down; the bench can ask for the
    paper's 319,355), 600 ASes, AS 64700, 900 s at 0.3 update/s with 20%
    withdrawals. *)

val generate : params -> t

val to_updates : t -> peer_as:int -> next_hop:Ipv4.t -> Dice_bgp.Msg.t list
(** The dump as a list of UPDATE messages (one prefix per message, like a
    real table transfer), announced by the collector peer. *)

val event_update : entry_next_hop:Ipv4.t -> event -> Dice_bgp.Msg.t
(** One trace event as an UPDATE message. *)
