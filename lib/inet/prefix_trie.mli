(** A binary radix trie keyed by CIDR prefixes: the data structure behind
    the routing tables.

    Supports exact lookup, longest-prefix match, enumeration of covering
    (less-specific) and covered (more-specific) entries — the queries the
    RIB and the hijack checker need. Purely functional so that checkpoint
    clones can share structure. *)

type 'a t

val empty : 'a t

val is_empty : 'a t -> bool

val cardinal : 'a t -> int
(** Number of bound prefixes. O(1). *)

val add : Prefix.t -> 'a -> 'a t -> 'a t
(** Bind (or replace the binding of) a prefix. *)

val remove : Prefix.t -> 'a t -> 'a t
(** Remove a binding; identity if absent. *)

val find_opt : Prefix.t -> 'a t -> 'a option
(** Exact-prefix lookup. *)

val mem : Prefix.t -> 'a t -> bool

val update : Prefix.t -> ('a option -> 'a option) -> 'a t -> 'a t
(** [update p f t] applies [f] to the current binding of [p]; [f None]
    inserts, [f (Some v) = None] deletes. *)

val longest_match : Ipv4.t -> 'a t -> (Prefix.t * 'a) option
(** The most-specific bound prefix containing the address — the forwarding
    lookup. *)

val descent : Ipv4.t -> 'a t -> (Prefix.t * bool) list
(** The node prefixes an LPM walk for the address visits, in root-to-leaf
    order, each with whether the node is bound. Includes the first
    non-containing node where the walk stops (if any) — the comparisons a
    real radix-trie lookup performs, which the concolic import path
    instruments. *)

val covering : Prefix.t -> 'a t -> (Prefix.t * 'a) list
(** All bound prefixes that subsume the argument (including an exact match),
    shortest first. *)

val covered : Prefix.t -> 'a t -> (Prefix.t * 'a) list
(** All bound prefixes subsumed by the argument (including an exact match),
    in prefix order. *)

val fold : (Prefix.t -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
(** Fold over bindings in prefix order. *)

val iter : (Prefix.t -> 'a -> unit) -> 'a t -> unit

val to_list : 'a t -> (Prefix.t * 'a) list
(** Bindings in prefix order. *)

val of_list : (Prefix.t * 'a) list -> 'a t

val map : ('a -> 'b) -> 'a t -> 'b t

val filter : (Prefix.t -> 'a -> bool) -> 'a t -> 'a t

val equal : ('a -> 'a -> bool) -> 'a t -> 'a t -> bool

val diff : ('a -> 'a -> bool) -> 'a t -> 'a t -> (Prefix.t * 'a option * 'a option) list
(** [diff eq a b] lists, in prefix order, every prefix whose binding
    differs between [a] and [b]: [(p, va, vb)] with [va] its binding in
    [a], [vb] its binding in [b], and not both bound to values equal by
    [eq] (or physically equal). Subtrees the two tries share physically
    are skipped unvisited, so diffing a trie against a persistent update
    of it costs the written paths, not the table. *)

val node_count : 'a t -> int
(** Trie nodes (bound and fork), not bindings — the unit {!shared_nodes}
    counts in. *)

val shared_nodes : 'a t -> 'a t -> int
(** Nodes of the second trie that are {e physically} ([==]) subtrees of
    the first — the memory two persistent tries actually share. After a
    copy-on-write clone plus one insert, everything off the insert path
    is shared: [shared_nodes live clone] approaches
    [node_count clone]. O(n) in the two tries' sizes. *)
