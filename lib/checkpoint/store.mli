(** Copy-on-write page accounting.

    A {!snapshot} is the page table of a serialized state: the content
    identity of each page, in address order. Taking one from a
    nearly-identical state shares pages with every image already in the
    store. This is how the reproduction measures its stand-in for
    checkpointing via [fork()] (paper §3.2): checkpoints are cheap
    because the live process and its checkpoint share all pages; explorer
    clones pay only for the pages they touch. The store only counts
    pages — it keeps their identities and reference counts, never their
    bytes, so an image cannot be reassembled from it. *)

type t
(** The store: refcounted page identities. *)

type snapshot
(** An immutable page table over the store. Release with {!release}. *)

val create : ?page_size:int -> unit -> t
(** [page_size] defaults to {!Page.default_size}. *)

val page_size : t -> int

val capture : t -> bytes -> snapshot
(** Snapshot a serialized state. Pages already present are shared, new
    pages are inserted with refcount 1. *)

val capture_pages : t -> Page.id array -> snapshot
(** {!capture} of a state already carved into pages, in address order —
    for a caller that knows most pages' ids without hashing them again.
    The snapshot keeps the array: do not write to it afterwards. *)

val release : snapshot -> unit
(** Drop a snapshot; pages with no remaining references are evicted.
    Releasing twice is an error. *)

val snapshot_pages : snapshot -> int
(** Pages referenced by this snapshot. *)

val shared_pages : snapshot -> snapshot -> int
(** Pages the two snapshots have in common (by content, position-blind). *)

val unique_pages : snapshot -> relative_to:snapshot -> int
(** Pages of the first snapshot not present in [relative_to] — the paper's
    "unique memory pages" metric for a checkpoint or clone. *)

val unique_fraction : snapshot -> relative_to:snapshot -> float
(** [unique_pages / snapshot_pages], in [\[0, 1\]]; [0.] for an empty
    snapshot. *)

val stored_pages : t -> int
(** Distinct page contents currently resident. *)

val resident_bytes : t -> int
(** Total bytes the distinct resident pages stand for. *)

val live_snapshots : t -> int

(** {1 Cross-capture dedup accounting}

    Lifetime counters over every {!capture} the store served — the
    fleet-scale measurement that checkpoint pages are {e shared} across
    explorer clones (and across the domains of a fleet when they back
    their checkpoints with one store) rather than duplicated. *)

val captures : t -> int
(** {!capture} calls so far. *)

val page_hits : t -> int
(** Captured pages that were already resident (content-identical to a
    page some earlier capture stored) — each one is a page of memory a
    clone did {e not} cost. *)

val page_inserts : t -> int
(** Captured pages stored fresh. *)

val dedup_ratio : t -> float
(** [page_hits / (page_hits + page_inserts)], in [\[0, 1\]]; [0.]
    before any capture. Near [1.0] when clones barely diverge from
    their checkpoint — the flat-memory regime the paper's fork()-style
    checkpointing relies on. *)
