(** The fleet runner: N DiCE-enabled domains over one {!Topology.Spec}.

    [realize] instantiates every domain's speaker (each through its own
    implementation and dialect — heterogeneous by construction), wraps
    each as a {!Dice_core.Distributed} agent, and builds the switching
    fabric that routes speaker output messages to the neighbor sessions
    the spec's links imply. [drive] then pushes a seeded
    RouteViews-style update stream through every domain's collector
    feed concurrently on the worker pool; exports ripple through the
    fleet in synchronous waves until quiescence.

    Crash tolerance follows the panel's rule ({!Dice_core.Panel.eligible}):
    a member whose health monitor says {!Dice_core.Health.Down} is
    excluded from the drive loop itself — its feeds are skipped and
    messages routed to it are dropped and counted, never waited on — so
    a crashed domain cannot silently stall the stream.

    Memory at fleet scale stays flat two ways, both measurable here:
    probes and explorer clones share the live speaker's route storage
    through {!Dice_inet.Prefix_trie} structural sharing
    ([rib_sharing]), and checkpoint pages dedup {e across} explorer
    clones and domains in one content-addressed
    {!Dice_checkpoint.Store} ([checkpoint_all] + the store's dedup
    counters). *)

open Dice_inet
open Dice_core

type t

val realize : Topology.Spec.t -> t
(** Build every speaker and [Local] agent, and a fresh page store that
    backs the whole fleet's checkpoint pages. Putting the agents on the
    wire is the caller's job: wrap {!agents} behind {!Probe_rpc}
    servers, as [dice detect-leaks --transport remote] does.
    @raise Invalid_argument if a domain's speaker or configuration is
    rejected by its implementation. *)

val establish : t -> unit
(** Drive every configured session (links and collector feeds) to
    Established, administratively. *)

val spec : t -> Topology.Spec.t
val size : t -> int
val store : t -> Dice_checkpoint.Store.t

val speaker : t -> string -> Speaker.instance
(** @raise Invalid_argument on an unknown domain. *)

val agent : t -> string -> Distributed.agent
(** The domain's [Local] agent — probe it, read its stats, or mark its
    health down to crash it out of the drive loop.
    @raise Invalid_argument on an unknown domain. *)

val agents : t -> Distributed.agent list
(** Every member's agent, in domain order. *)

(** {1 Driving} *)

type stats = {
  domains : int;
  fed : int;  (** collector updates injected across all feeds *)
  delivered : int;  (** messages processed by members, propagation included *)
  emitted : int;  (** messages members emitted in response *)
  to_collector : int;  (** emissions addressed outside the fleet *)
  dropped_down : int;  (** messages dropped because their target was Down *)
  skipped_feeds : int;  (** collector updates withheld from Down members *)
  probes : int;  (** online probes issued (with [probe_every]) *)
  verdicts : int;  (** per-prefix verdicts those probes returned *)
  rounds : int;  (** propagation waves until quiescence *)
}

val default_updates_per_domain : int
(** 64. *)

val drive :
  ?jobs:int ->
  ?max_rounds:int ->
  ?probe_every:int ->
  ?updates_per_domain:int ->
  ?seed:int64 ->
  t ->
  stats
(** Generate each live domain a seeded trace ([seed + domain index], so
    streams differ but the whole run replays from one seed), feed them
    concurrently ([jobs] workers, each speaker owned by one worker per
    wave), and propagate to quiescence (or [max_rounds], default 64).
    [probe_every = k > 0] also probes every k-th routed message
    against its target agent — DiCE's online test running inside the
    stream — and counts the verdicts. A wave's probes go out as one
    {!Dice_core.Distributed.probe_all} batch on the [jobs] pool, after
    routing and before the next wave is fed, so each target answers at
    the version the message was routed against. *)

val originate :
  ?jobs:int -> ?max_rounds:int -> t -> domain:string -> Prefix.t -> (string * string * Prefix.t) list
(** Announce [prefix] as originated by [domain] (injected on its
    collector feed with the domain's own AS as path) and propagate to
    quiescence, returning every resulting announcement hop as
    [(sender, receiver, prefix)] in delivery order — the observable the
    valley-free property is asserted on.
    @raise Invalid_argument on an unknown domain. *)

(** {1 Memory accounting} *)

val rib_sharing : t -> domain:string -> int * int
(** [(shared, total)]: take an explorer clone of the domain's live
    speaker, let it import one synthetic announcement, and count the
    Loc-RIB trie nodes the clone still physically shares with the live
    table versus the clone's total — near-total sharing is the
    flat-memory claim. An implementation that materializes its Loc-RIB
    on demand (Quagga's hash tables) reports 0 shared; measure on a
    persistent-trie domain ([bird] or [xorp]). *)

val checkpoint_all : ?clones:int -> t -> unit
(** Capture every member's snapshot — plus [clones] (default 1)
    mutated explorer-clone snapshots each — into the fleet's shared
    store, holding them live so {!Dice_checkpoint.Store.dedup_ratio}
    and {!Dice_checkpoint.Store.resident_bytes} measure cross-clone,
    cross-domain page dedup. Release with {!release_checkpoints}. *)

val release_checkpoints : t -> unit
