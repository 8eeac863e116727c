(** Checkpoint page accounting over the CoW {!Store}.

    Mirrors how the DiCE prototype measures its [fork()]-based
    checkpoints: [checkpoint] captures the pages of the checkpointed
    process image, {!checkpoint_stats} counts how far the live image has
    drifted from them, and {!footprint} counts the pages an explorer
    clone's final image does not share with them — its copy-on-write
    cost, computed from the byte ranges the clone wrote. The copies
    themselves are in-memory speaker clones; this module only counts
    their pages. *)

type manager

val create : ?page_size:int -> ?store:Store.t -> unit -> manager
(** [store] backs this manager with an existing (possibly shared)
    {!Store.t} instead of a private one — a fleet hands every domain's
    manager the same store, so checkpoint pages dedup {e across}
    domains and their explorer clones, not just within one manager.
    @raise Invalid_argument if [page_size] is also given and disagrees
    with the shared store's. *)

val store : manager -> Store.t

type checkpoint

val checkpoint : manager -> live_image:bytes -> checkpoint
(** Capture the pages of the checkpointed process image. The checkpoint
    keeps [live_image] (do not write to it): {!footprint} patches it. *)

val checkpoint_stats : checkpoint -> live_image:bytes -> int * float
(** [(unique, fraction)]: pages of the checkpoint not shared with the
    given (current) live image — the paper's "checkpoint process has 3.45%
    unique memory pages" metric. *)

val drop_checkpoint : checkpoint -> unit

type clone_stats = {
  pages : int;  (** size of the clone's final image, in pages *)
  unique : int;  (** final-image pages not shared with the checkpoint *)
  unique_fraction : float;
  extra_fraction : float;
      (** extra footprint relative to the checkpoint's page count — the
          paper's "36.93% more pages" metric *)
}

val footprint :
  checkpoint -> patch:int * (int * bytes) list -> metadata:bytes -> clone_stats
(** The copy-on-write cost of an explorer clone: its pages counted
    against the checkpoint's. The clone's image is given as a patch on
    the checkpoint's [live_image] — [(len, writes)], as a speaker's
    [snapshot_patch] returns it: the image cut or zero-extended to
    [len], with each [(offset, bytes)] of [writes] laid over it in order
    — followed by [metadata], the explorer's own in-memory state. Every page no write touches keeps the checkpoint's
    page id, the way fork() leaves a page the child never wrote shared,
    so only the touched pages are rebuilt and hashed. A patch of one
    write of the whole final image counts the same pages as any other
    patch that yields that image. *)
