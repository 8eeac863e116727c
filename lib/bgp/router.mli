(** The BGP routing daemon: sessions, RIBs, import/export policy and the
    decision process, behind an explicit-output interface.

    All side effects (messages to send, timers to arm) are returned as
    {!output} values, which keeps the daemon deterministic, testable, and
    — crucially for DiCE — {e checkpointable}: {!clone} copies the
    router in memory, which is how the live process is checkpointed and
    how exploration clones are made; {!snapshot} serializes all dynamic
    state (the page image the memory accounting counts) and {!restore}
    rebuilds an equivalent router from it.

    Update processing is written against the concolic value API; with the
    default null context it runs purely concretely ("virtually no
    overhead", paper §3.2), while exploration passes a recording context
    and a symbolized route. *)

open Dice_inet
open Dice_concolic

type t

type output =
  | To_peer of Ipv4.t * Msg.t  (** transmit on an (established) session *)
  | Connect_request of Ipv4.t  (** open the transport towards a neighbor *)
  | Close_connection of Ipv4.t
  | Set_timer of Ipv4.t * Fsm.timer * float  (** (re)arm, seconds from now *)
  | Clear_timer of Ipv4.t * Fsm.timer
  | Session_up of Ipv4.t
  | Session_down of Ipv4.t * string

val create : Config_types.t -> t
(** Build a router: static routes are installed in the Loc-RIB; sessions
    start in Idle. *)

val config : t -> Config_types.t

(** {1 Session driving} *)

val start : t -> output list
(** ManualStart every configured peer. *)

val handle_event : t -> peer:Ipv4.t -> Fsm.event -> output list
(** Feed one FSM event (transport up/down, timer expiry, ...). Unknown
    peers are ignored (empty output). *)

val handle_msg : ?ctx:Engine.ctx -> t -> peer:Ipv4.t -> Msg.t -> output list
(** Feed a received BGP message; UPDATEs delivered by the FSM go through
    import policy, the decision process, and export. [ctx] defaults to a
    null (non-recording) context. *)

val handle_bytes : ?ctx:Engine.ctx -> t -> peer:Ipv4.t -> bytes -> output list
(** Decode and [handle_msg]; malformed messages produce the RFC-mandated
    NOTIFICATION and session teardown. *)

val peer_state : t -> Ipv4.t -> Fsm.state option
val established_peers : t -> Ipv4.t list

(** {1 RIB inspection} *)

val loc_rib : t -> Rib.Loc.t
val adj_rib_in : t -> Ipv4.t -> Rib.Adj.t option
val adj_rib_out : t -> Ipv4.t -> Rib.Adj.t option
val best_route : t -> Prefix.t -> Rib.Loc.entry option
val updates_processed : t -> int
(** UPDATE messages fully processed since creation (throughput metric). *)

(** {1 Concolic import (the exploration entry point)} *)

val import_concolic :
  ctx:Engine.ctx -> t -> peer:Ipv4.t -> Croute.t -> Import.outcome
(** Run one (symbolized) announcement through the full import path —
    loop detection, import filter, decision process, Loc-RIB update and
    export generation — recording path constraints via [ctx]. The
    outcome's [outputs] are the {!To_peer} messages the import would
    send. Mutates this
    router; during exploration, call it on a clone, never on the live
    instance. @raise Invalid_argument if [peer] is not configured. *)

(** {1 Checkpointing} *)

val snapshot : t -> bytes
(** Serialize all dynamic state deterministically. The byte layout is
    slot-stable: every RIB entry keeps its slot across snapshots of the
    same router, so unchanged entries occupy the same offsets. Taking a
    snapshot updates the router's slot map (and nothing else); to
    checkpoint a live router without touching it, snapshot a {!clone}. *)

val snapshot_patch : base:t -> t -> int * (int * bytes) list
(** [snapshot_patch ~base t], for [base] unchanged since its last image
    (its last {!snapshot}, {!restore} or [snapshot_patch] as [t]) and [t]
    a router of the same configuration: the length of [t]'s image and
    byte ranges [(offset, bytes)] that turn [base]'s image into it. The
    RIB diffs hold for any two such routers and skip every subtree [t]
    still shares with [base], and the changed entries go through the
    slot bookkeeping {!snapshot} uses, so between clones of one router
    the patch costs what [t] wrote: its entries' slots, the header, and
    the overflow region when that moved or changed. [t]'s image keeps
    [base]'s slot positions; [t] records its new slot map (and nothing
    else), so [t] can serve as the next [base]. [base] is only read. *)

val restore : Config_types.t -> bytes -> t
(** Rebuild a router from a snapshot taken of a router with the same
    configuration. @raise Invalid_argument on a corrupt image. *)

val clone : t -> t
(** An independent in-process copy sharing all RIB storage with the
    live router: the Loc-RIB, every Adj-RIB-In/Out and the static table
    are persistent tries, so the clone holds references — no
    serialization. Mutating either side copies only the touched path
    ({!Dice_inet.Prefix_trie} structural sharing); everything else stays
    physically shared. This is the checkpoint and explorer-clone path:
    memory per clone is the write set, not the table. The slot map is
    persistent too, so the clone costs O(#peers) whether or not the
    router was ever snapshotted. *)
