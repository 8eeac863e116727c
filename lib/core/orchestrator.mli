(** The DiCE orchestrator: the checkpoint–symbolize–explore–check loop
    (paper §2.3).

    Against a {e live} speaker (any {!Speaker.S} implementation) it:
    + checkpoints the live speaker with one in-memory {!Speaker.clone},
    + explores every seed on fresh clones of that checkpoint,
    + feeds each clone a previously observed input with selected fields
      symbolized,
    + lets the concolic engine negate recorded branch predicates to
      systematically exercise the node's actions,
    + intercepts all messages the clones generate: they come back as
      values and are only counted, so the deployed system never sees
      exploration traffic, and
    + runs fault checkers against every explored outcome.

    The live speaker is never mutated, and cloning it is the only work
    on its critical path. The checkpoint is never mutated either: the
    first run of each seed, and every run after an accepted one, executes
    on a fresh {!Speaker.clone} of it, so every run starts from the
    checkpointed state. The checkpoint's image and pages serve only the
    memory accounting ([checkpoint_pages] and the clone-footprint
    samples), and neither is serialized whole after the first episode:
    each episode's image is the last episode's, patched with what the
    live speaker wrote in between ({!Speaker.S.snapshot_patch} between
    the two checkpoints, {!Dice_checkpoint.Fork.checkpoint_patch}), the
    way a forked checkpoint costs the pages the live node dirtied, not
    its table. The first episode's image is a whole {!Speaker.snapshot}
    of its checkpoint. A sampled clone's pages come the same way, from
    its {!Speaker.S.snapshot_patch} against the checkpoint. *)

open Dice_inet
open Dice_bgp
open Dice_concolic

type seed = {
  tag : string;
  peer : Ipv4.t;  (** session the input was observed on *)
  prefix : Prefix.t;
  route : Route.t;
}

(** {1 Configuration}

    Grouped by concern into nested records — what to explore and how
    hard ({!exploration}) and which remote domains cooperate
    ({!federation}) — following the constructor convention documented in
    {!Checker}: validating smart constructors with required labelled
    arguments where a group has invariants, and defaults exported as
    values ({!default_exploration} and friends), so a call site writes
    [{ default_exploration with max_seeds = 8 }]. *)

type exploration = {
  explorer : Explorer.config;
  mode : Symbolize.mode;
  max_seeds : int;  (** most recent seeds explored per {!explore} call *)
  clone_samples : int;  (** CoW-cost samples collected per seed *)
  jobs : int;
      (** worker domains for seed-level parallelism: each pending seed
          explores on its own clones of the shared checkpoint, [jobs] at
          a time. [1] (the default)
          keeps everything on the calling domain. Report order always
          equals seed order. *)
}

type federation = {
  agents : Distributed.agent list;
      (** cooperating remote domains: when non-empty, a
          {!Distributed.checker} over these agents is appended to the
          checker list, so every exploration outcome is probed across
          the domain boundary. Mixed fleets are one list: each agent
          carries its own transport and, behind it, its own speaker
          implementation. *)
  probe_jobs : int;
      (** probes in flight at a time over the worker pool ([Local]
          agents) or the wire ([Remote] agents) *)
}

type cfg = {
  exploration : exploration;
  checkers : Checker.t list;
  federation : federation;
}

val federation : agents:Distributed.agent list -> probe_jobs:int -> federation
(** @raise Invalid_argument if [probe_jobs < 1]. *)

val default_exploration : exploration
(** DFS explorer (96 runs, depth 64), selective symbolization, 4 seeds,
    4 clone samples, 1 job. *)

val default_federation : federation
(** No agents, 1 probe job. *)

val default_cfg : cfg
(** {!default_exploration} + the {!Hijack.checker} +
    {!default_federation}. *)

type t

val create : ?cfg:cfg -> Speaker.instance -> t
(** Attach DiCE to a live speaker. The orchestrator keeps its last
    checkpoint (a clone of the live speaker, and its pages) from one
    {!explore} to the next. *)

val observe : t -> peer:Ipv4.t -> prefix:Prefix.t -> route:Route.t -> unit
(** Record an observed input as an exploration seed. *)

val observe_update : t -> peer:Ipv4.t -> Msg.update -> unit
(** Convenience: observe every announcement of an UPDATE. *)

val pending_seeds : t -> int

type seed_report = {
  seed : seed;
  explorer : Explorer.report;
  faults : Checker.fault list;
  intercepted : int;  (** messages the exploration clone would have sent *)
  runs_accepted : int;  (** runs whose input survived import policy *)
  runs_rejected : int;
  observed_accepted : bool;
      (** whether the {e observed} (unmutated) input was accepted — run 0
          replays it; config-change validation uses this to detect
          regressions on legitimate traffic *)
  clone_stats : Dice_checkpoint.Fork.clone_stats list;
      (** copy-on-write cost of the clones of accepted runs 1, 2, 4, 8, …
          (up to [clone_samples]), engine metadata included *)
  depth_counts : (string * int) list;
      (** whole-message mode: how deep each run got into the parser *)
}

type report = {
  seed_reports : seed_report list;
  faults : Checker.fault list;  (** deduplicated across seeds *)
  checkpoint_pages : int;
      (** {!Dice_checkpoint.Page.default_size} pages of the checkpoint's
          image. From the second episode on, a slot-stable image (BIRD)
          keeps every entry where the previous episodes' images put it,
          freed slots included, so this depends on the live speaker's
          history since {!create}, as a forked daemon's heap does. *)
  live_image_bytes : int;  (** bytes of the checkpoint's image *)
  wall_seconds : float;
  checkpoint_seconds : float;
      (** the live node's critical-path share of [wall_seconds]: cloning
          the live speaker, and nothing else — patching the image and
          its pages runs off the critical path, like exploration itself
          (on the paper's testbed, on other cores). *)
}

val explore : t -> report
(** Checkpoint the live speaker and explore the pending seeds (most
    recent [max_seeds]; the queue is drained). *)

val pp_report : Format.formatter -> report -> unit
