(** Checkpoint page accounting over the CoW {!Store}.

    Mirrors how the DiCE prototype measures its [fork()]-based
    checkpoints: [checkpoint] captures the pages of the checkpointed
    process image, {!checkpoint_patch} carries a checkpoint forward to
    the live node's next one from the byte ranges the live node wrote in
    between, {!checkpoint_stats} counts how far the live image has
    drifted from a checkpoint, and {!footprint} counts the pages an
    explorer clone's final image does not share with it — its
    copy-on-write cost, computed from the byte ranges the clone wrote.
    {!checkpoint_patch} and {!footprint} follow one page rule: a page no
    write touches that the checkpoint holds whole keeps its page id, the
    way fork() leaves a page nobody wrote shared, so only touched pages
    are hashed. The copies themselves are in-memory speaker clones; this
    module only counts their pages. *)

type manager

val create : ?page_size:int -> unit -> manager
(** A manager over a private {!Store.t} of [page_size]-byte pages
    (default {!Store.create}'s). *)

val store : manager -> Store.t

type checkpoint

val checkpoint : manager -> live_image:bytes -> checkpoint
(** Capture the pages of the checkpointed process image. The checkpoint
    keeps [live_image] (do not write to it): {!footprint} and
    {!checkpoint_patch} patch it. *)

val checkpoint_patch : checkpoint -> patch:int * (int * bytes) list -> checkpoint
(** [checkpoint_patch cp ~patch:(len, writes)] is the next checkpoint in
    [cp]'s store: its image is [cp]'s, cut or zero-extended to [len], with
    each [(offset, bytes)] of [writes] laid over it in order — a
    speaker's [snapshot_patch] of the next checkpoint against [cp]'s.
    Pages no write touches that [cp] holds whole keep [cp]'s page ids;
    only touched pages are hashed, so the cost is the write set and one
    copy of the image, not a page-by-page hash of it. [cp] stays valid:
    release it with {!drop_checkpoint} once nothing counts against it. *)

val image : checkpoint -> bytes
(** The checkpointed image (do not write to it). *)

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
