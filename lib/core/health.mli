(** Per-endpoint liveness monitoring for the federated probe fleet.

    DiCE's online setting means a cooperating remote domain can crash,
    reboot, and come back mid-hunt. This monitor tracks each endpoint
    through three states — [Alive], [Suspect], [Down] — from two
    independent evidence streams:

    - {e passive}: {!Probe_wire.Heartbeat} frames
      ({!note_heartbeat}); a growing gap since the last one demotes
      through [Suspect] to [Down] ({!check});
    - {e active}: probe outcomes — a reply promotes back to [Alive]
      ({!note_ok}), a timeout demotes to [Suspect] ({!note_timeout}),
      and the circuit breaker opening declares [Down] ({!note_down}).

    Promotion always takes fresh positive evidence; silence only ever
    demotes. All timestamps are virtual network time, so health is as
    replayable as the fault schedule that drives it. Safe for concurrent
    use from worker domains. *)

type state = Alive | Suspect | Down

val state_to_string : state -> string
val pp_state : Format.formatter -> state -> unit

type t

val create : ?now:float -> name:string -> unit -> t
(** A fresh monitor, [Alive] as of [now] (default 0 — the virtual
    clock's origin). A heartbeat gap over 0.5 s demotes it to
    [Suspect], one over 2 s to [Down], and it retains the newest 32
    state transitions. *)

val name : t -> string

val note_heartbeat : t -> now:float -> incarnation:int -> state_version:int -> unit
(** A heartbeat arrived: refresh [last_seen], record the peer's
    incarnation (monotone: a late heartbeat from a previous life cannot
    roll it back) and state version, promote to [Alive]. *)

val note_ok : t -> now:float -> unit
(** A probe got a real answer: refresh [last_seen], promote to
    [Alive]. *)

val note_timeout : t -> now:float -> unit
(** A probe exhausted its retries: demote [Alive] to [Suspect]. One
    timeout never declares [Down] — that takes the breaker
    ({!note_down}) or a heartbeat gap ({!check}). *)

val note_down : t -> now:float -> unit
(** Declare the endpoint [Down] (the circuit breaker opening). *)

val check : t -> now:float -> state
(** Apply the heartbeat-gap rule at [now] and return the (possibly
    demoted) state: a gap beyond 2 s is [Down], beyond 0.5 s demotes
    [Alive] to [Suspect]. Never promotes. *)

val state : t -> state
(** Current state, without re-evaluating gaps. *)

val last_seen : t -> float
(** Virtual time of the last positive evidence. *)

val incarnation : t -> int
(** Highest incarnation heard from the endpoint (0 before any
    heartbeat). A bump means the remote agent crashed and recovered. *)

val state_version : t -> int
(** The endpoint's speaker version ([updates_processed]) as of the last
    heartbeat. *)

val transitions : t -> (float * state) list
(** State-transition history, oldest first, at most the newest 32.
    Includes the initial [(now, Alive)] until it is pushed out. *)

type stats = {
  heartbeats : int;
  probes_ok : int;
  probe_timeouts : int;
  transitions : int;  (** total transitions, including beyond history *)
}

val stats : t -> stats
val pp : Format.formatter -> t -> unit
