(** A versioned memo cache for verdicts.

    Verdicts from a cooperating remote node are computed against that
    node's {e live state}, so a memoized answer is only valid while that
    state has not moved. Every entry therefore carries the version (e.g.
    {!Dice_bgp.Router.updates_processed}) of the state it was computed
    against; a {!find} presenting a newer version misses. There is no
    explicit flush: advancing the version {e is} the invalidation.
    Versions only move forward, so once a newer one is presented no
    older entry can hit again: the cache keeps only the entries of the
    newest version (and epoch) any {!find} or {!store} presented, and
    drops the rest when that moves. Its size is therefore bounded by
    one version's distinct keys, however long the node runs.

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
    exactly [version] in the current epoch. An entry from any other
    version counts as a miss. Updates the hit/miss counters. *)

val store : ('k, 'v) t -> version:int -> 'k -> 'v -> unit
(** Record a value computed against [version]. At the same version the
    first writer wins (concurrent writers compute equal values); a value
    computed against a version older than one already presented is not
    kept, since no later {!find} can ask for it. *)

val invalidate : ('k, 'v) t -> unit
(** Open a new epoch: every entry stored before this call misses (and
    evicts) from now on, whatever version it carries. This is the
    crash-recovery hatch — a speaker rebuilt from a checkpoint can
    present an [updates_processed] counter that {e collides} with a
    pre-crash value while holding different state, so version stamps
    alone cannot be trusted across a restart. The old entries are
    dropped by the next {!find} or {!store}. *)

val hits : ('k, 'v) t -> int
val misses : ('k, 'v) t -> int

val hit_rate : ('k, 'v) t -> float
(** [hits / (hits + misses)]; [0.] before any query. *)

val size : ('k, 'v) t -> int
(** Entries currently resident: at most those stored under the newest
    version and epoch presented. *)
