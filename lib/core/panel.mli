(** The N-way differential panel: divergence hunting as a product.

    A two-member panel is the pairwise check: it can say {e that} two
    speakers disagree; with three or more implementations behind
    identical state, the panel can say {e who} is wrong. Every member
    receives the same [(from, msg)] schedule through the existing
    {!Distributed} transport (Local or Remote — the panel never peeks
    past the narrow interface), each {!Verdict.t} field is put to a
    majority vote, and a divergence names its {b outlier} member(s):
    the implementations whose answer differs from the assembled
    majority. Divergences keep the pairwise taxonomy — {e tie-break}
    (all members agree on [accepted] and [origin_conflict], the
    policy- and origin-level facts, and differ only downstream of the
    decision process) versus {e semantic} (disagreement on those
    facts, or a member that declined while others answered).

    A confirmed divergence is made actionable by {!Minimize} (shrink
    the triggering schedule) and {!Artifact} (a versioned, replayable
    repro file any speaker subset can re-execute). *)

open Dice_inet
open Dice_bgp

(** How many members backed the vote. *)
type quorum =
  | Full  (** every panel member was live and eligible to vote *)
  | Degraded of string list
      (** the vote proceeded over a surviving strict majority; the
          listed members were {!Health.Down} and excluded (rather than
          polluting every prefix as "gave no answer" outliers) *)

type divergence = {
  prefix : Prefix.t;
  answers : (string * Verdict.t option) list;
      (** one per {e voting} member, in panel order: agent name and its
          verdict for [prefix] ([None]: declined, timed out, or
          answered without this prefix) *)
  majority : Verdict.t;
      (** field-wise majority over the answering members; a tied field
          takes the earliest answering member's value *)
  outliers : string list;
      (** members whose answer differs from [majority] (including
          members that gave no answer while others did), in panel
          order *)
  tie_break_only : bool;
  quorum : quorum;
      (** whether absent members were excluded from this vote — not
          part of {!signature}, so a degraded capture still matches
          its full-panel replay *)
}

val signature : divergence -> string
(** Stable identity of a divergence — prefix, classification, sorted
    outlier set — used to recognize "the same divergence" across
    minimization rounds and artifact replays. *)

val pp_divergence : Format.formatter -> divergence -> unit

val eligible : Distributed.agent list -> Distributed.agent list * Distributed.agent list
(** Split agents into [(live, down)] by {!Distributed.agent_health} —
    the {e one} health-based membership test. {!quorum_of} builds its
    vote on it, and a fleet's update-stream drive loop must use the
    same split, so a member marked {!Health.Down} is excluded from
    driving as well as from voting (a crashed domain never silently
    stalls the stream). *)

val quorum_of :
  Distributed.agent list ->
  [ `Full | `Degraded of string list | `Lost of string list ]
(** Consult each member's {!Distributed.agent_health}: [`Full] when
    nobody is {!Health.Down}; [`Degraded down] when some are but a
    strict majority survives (the panel can still out-vote the
    absentees); [`Lost down] when the survivors are not a strict
    majority — no vote over them deserves the name. *)

val probe :
  jobs:int ->
  agents:Distributed.agent list ->
  (Ipv4.t * Msg.t) list ->
  divergence list
(** Feed every panel member each [(from, msg)] exchange and keep only
    the prefixes whose verdicts diverge. The result is sorted by
    prefix (stably: equal prefixes keep schedule order), so reports
    are deterministic whatever the probe schedule under [jobs > 1].
    Probing never mutates the members' live speakers, so the same
    panel can be re-probed — that is what minimization leans on.

    Crash tolerance: members whose health monitor says {!Health.Down}
    are excluded from the vote while a strict majority survives, and
    every resulting divergence is tagged [Degraded]. With quorum lost
    the panel probes everyone anyway — pausing belongs to the hunt
    ({!hunt}'s [on_pause]), not to a one-shot probe.
    @raise Invalid_argument on an empty panel. *)

type hit = {
  schedule : (Ipv4.t * Msg.t) list;
      (** the probe exchanges that produced the divergence — the input
          {!Minimize.divergence} shrinks *)
  divergence : divergence;
}

val checker : jobs:int -> agents:Distributed.agent list -> Checker.t
(** A {!Checker.t} ([panel]) that replays every message an exploration
    outcome would send to any panel member's address against the whole
    panel and reports divergences: [panel-divergence] (critical) for
    semantic ones, [panel-tiebreak] (warning) for tie-break-only ones.
    Details carry each member's verdict under its agent-name prefix,
    the assembled [majority], and the [outliers]. *)

val hunt :
  ?on_pause:(string list -> unit) ->
  jobs:int ->
  agents:Distributed.agent list ->
  sink:(hit -> unit) ->
  unit ->
  Checker.t
(** {!checker}, but every divergence is also handed to [sink] together
    with the schedule that triggered it — the hook that lets a CLI or
    orchestrator collect repro candidates for minimization while the
    exploration runs.

    When quorum is lost (see {!quorum_of}) the checker probes nothing
    for that outcome and calls [on_pause] with the down members — the
    hunt is paused, not failed. It resumes by itself on the next
    outcome once recovery (or fresh heartbeats) brings enough members
    back to [Alive]. *)

(** Replayable divergence repros: a versioned, length-framed file
    format following the {!Probe_wire} conventions (magic + version
    byte, big-endian length-framed fields, loud
    {!Dice_wire.Rbuf.Truncated} on any malformed input, no trailing
    bytes). An artifact is self-contained: the speaker names, the
    shared configuration source, the state-priming setup schedule, the
    (minimized) probe schedule, and the expected divergence
    signature. *)
module Artifact : sig
  (** What the members were configured from. *)
  type config_source =
    | Config_text of string
        (** shared config text ({!Dice_bgp.Config_parser} syntax): every
            member runs the identical parsed configuration *)
    | Intent_text of string
        (** intent text ({!Intent.parse} syntax): every member realizes
            the intent through {e its own} dialect translator, quirks
            included — the replay rebuilds the same heterogeneous
            filter-interpreter panel *)

  type t = {
    speakers : string list;  (** panel members, by {!Speakers} name *)
    source : config_source;
    setup : (Ipv4.t * Msg.t) list;
        (** state priming: messages fed to each member (peer, msg)
            after establishing every configured session *)
    schedule : (Ipv4.t * Msg.t) list;  (** the probe exchanges *)
    signature : string;  (** expected {!signature} of the divergence *)
    absent : string list;
        (** members that were {!Health.Down} (excluded from the vote)
            when the divergence was captured — empty for a full-panel
            capture and for any pre-v3 artifact *)
  }

  val version : int
  (** Version 3 appends the [absent] member list (degraded captures);
      version 2 added the source kind; version-1 and version-2
      artifacts still decode (with [absent = \[\]]). *)

  val encode : t -> bytes
  (** Canonical bytes: equal artifacts encode identically. *)

  val decode : bytes -> t
  (** @raise Dice_wire.Rbuf.Truncated on truncation, foreign magic, an
      alien version, or trailing bytes. *)

  val save : string -> t -> unit
  val load : string -> t

  val build :
    ?speakers:string list -> t -> Distributed.agent list
  (** Rebuild the panel: create each speaker ({!Speakers.create_exn})
      from [config], establish every configured session, feed [setup],
      and wrap each as a [Local] agent named after its implementation.
      [speakers] selects a subset; the default is the members that
      actually voted ([speakers] minus [absent]) — a degraded capture
      replays the vote that happened, not the one that didn't. *)

  val replay : ?speakers:string list -> jobs:int -> t -> divergence list
  (** [build] then {!probe} the artifact's schedule — re-execution
      against any speaker subset. *)

  val reproduces : t -> divergence list -> bool
  (** Whether a replay's divergences contain the artifact's expected
      signature. *)
end
