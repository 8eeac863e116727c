(** A versioned memo cache for verdicts.

    Verdicts from a cooperating remote node are computed against that
    node's {e live state}, so a memoized answer is only valid while that
    state has not moved. Every entry therefore carries the version (e.g.
    {!Dice_bgp.Router.updates_processed}) of the state it was computed
    against; a {!find} presenting a newer version misses, and the stale
    entry is evicted. There is no explicit flush: advancing the version
    {e is} the invalidation.

    Polymorphic in key and value; keys are compared structurally and
    hashed with [Hashtbl.hash], so callers should present canonicalized
    keys (e.g. a message's encoded wire bytes rather than its AST).

    Safe for concurrent use from many domains: entries live in sharded
    mutex-protected tables and the hit/miss counters are atomic. *)

type ('k, 'v) t

val create : ?shards:int -> unit -> ('k, 'v) t
(** [shards] defaults to 8.
    @raise Invalid_argument if [shards < 1]. *)

val find : ('k, 'v) t -> version:int -> 'k -> 'v option
(** [find t ~version key] returns the cached value stored for [key] at
    exactly [version]. An entry from any other version counts as a miss
    and is removed. Updates the hit/miss counters. *)

val store : ('k, 'v) t -> version:int -> 'k -> 'v -> unit
(** Record a value computed against [version]. A stale entry for the same
    key is replaced; at the same version the first writer wins (concurrent
    writers compute equal values). *)

val invalidate : ('k, 'v) t -> unit
(** Open a new epoch: every entry stored before this call misses (and
    evicts) from now on, whatever version it carries. This is the
    crash-recovery hatch — a speaker rebuilt from a checkpoint can
    present an [updates_processed] counter that {e collides} with a
    pre-crash value while holding different state, so version stamps
    alone cannot be trusted across a restart. Entries are dropped
    lazily, on their next lookup. *)

val hits : ('k, 'v) t -> int
val misses : ('k, 'v) t -> int

val hit_rate : ('k, 'v) t -> float
(** [hits / (hits + misses)]; [0.] before any query. *)

val size : ('k, 'v) t -> int
(** Entries currently resident (stale ones included until evicted). *)
