(** The BGP route semantics every speaker shares: the import and export
    rules of RFC 4271 that BIRD ({!Router}), Quagga and XORP implement
    alike, as plain functions over configuration and routes.

    A speaker keeps what makes it heterogeneous: its table layout, its
    decision process, which sessions it exports to and in what order,
    and its image layout. It calls these functions from its own import,
    export and checkpoint code, passing its tables in as closures. *)

open Dice_inet
open Dice_concolic

val src_of_peer : local_as:int -> Config_types.peer_cfg -> Route.src
(** The provenance of a route learned on the session. *)

val statics : Config_types.t -> (Prefix.t * Rib.Loc.entry) list
(** The configured static routes as locally originated Loc-RIB entries,
    in configuration order. *)

val best_changed : Rib.Loc.entry option -> Rib.Loc.entry option -> bool
(** Whether a new best differs from the old in route or provenance: the
    test that decides whether a decision run installs and exports. *)

(** {1 Import} *)

val import :
  ctx:Engine.ctx ->
  Config_types.t ->
  Config_types.peer_cfg ->
  best:(Prefix.t -> Rib.Loc.entry option) ->
  probe:(Croute.t -> Rib.Loc.entry option -> unit) ->
  learn:
    (Prefix.t -> Route.t -> Rib.Loc.entry option -> (Ipv4.t * Msg.t) list * Rib.Loc.entry option) ->
  Croute.t ->
  Import.outcome
(** One announcement on the session through import admission: the
    AS-loop check, the session's import policy (recording via [ctx])
    and the default LOCAL_PREF of 100. A rejected route yields the
    rejected outcome. An admitted one is handed to [probe] with the
    prefix's current [best] entry, then to [learn] with that entry too;
    [learn] stores the route in the Adj-RIB-In, runs the decision and
    returns the export traffic and the best entry now installed. [best]
    is called once per announcement. *)

val process_update :
  import:(Croute.t -> Import.outcome) ->
  withdraw:(Prefix.t -> (Ipv4.t * Msg.t) list) ->
  tick:(unit -> unit) ->
  Msg.update ->
  (Ipv4.t * Msg.t) list
(** One received UPDATE: its withdrawals, then each announced prefix
    through [import]. Malformed attributes withdraw the announced
    prefixes instead (treat-as-withdraw), and a rejected announcement
    withdraws the session's previous route for its prefix. [withdraw]
    drops a prefix from the session's Adj-RIB-In if it is there and
    returns the resulting export traffic. [tick] runs once for an UPDATE
    that only withdraws, which advances the update counter as each
    import does. *)

(** {1 Export} *)

val advert :
  ctx:Engine.ctx -> Config_types.t -> Config_types.peer_cfg -> Prefix.t -> Rib.Loc.entry ->
  Route.t option
(** The route the session would be sent for the best entry, or [None]:
    split horizon, NO_EXPORT towards eBGP and NO_ADVERTISE towards
    anyone, then towards eBGP the local-AS prepend with next-hop-self
    and the LOCAL_PREF/MED strip, then the session's export policy
    (recording via [ctx]). *)

val export :
  ctx:Engine.ctx ->
  Config_types.t ->
  Config_types.peer_cfg ->
  Prefix.t ->
  previously:Route.t option ->
  Rib.Loc.entry option ->
  (Route.t option * (Ipv4.t * Msg.t)) option
(** The Adj-RIB-Out step for a new best: [None] if the session already
    holds its {!advert}, otherwise what the Adj-RIB-Out now holds for
    the prefix ([None]: nothing) and the announce or withdraw UPDATE
    that tells the session. *)

(** {1 Image codecs} *)

val put_prefix : Dice_wire.Wbuf.t -> Prefix.t -> unit
(** u8 length, u32 network. *)

val get_prefix : Dice_wire.Rbuf.t -> Prefix.t

val put_route : Dice_wire.Wbuf.t -> Route.t -> unit
(** u16 length, then the route's path attributes, 4-byte ASNs. *)

val get_route : Dice_wire.Rbuf.t -> Route.t
(** @raise Invalid_argument on attributes that do not make a route. *)

val put_src : Dice_wire.Wbuf.t -> Route.src -> unit
(** u32 address, u32 ASN, u32 router id, u8 eBGP flag. *)

val get_src : Dice_wire.Rbuf.t -> Route.src
