(** Probe RPC over the simulated network.

    {!Probe_wire} defines what crosses a domain boundary; this module
    moves it. An agent-side {!serve} registers a node on a
    {!Dice_sim.Network} and answers probe {!Probe_wire.Request} frames
    over its live router; an exploring-side {!endpoint} issues requests
    with fresh ids, per-request virtual-time timeouts (scheduled on the
    network clock via [Network.schedule]), bounded retries with
    exponential backoff, and a bounded in-flight window when batching.

    Failure degrades, never hangs: a dropped frame, a disconnected link,
    or a dead server turns the probe into a {!Timeout} result after the
    configured retries — no exception escapes a {!call}. Late responses
    to an earlier attempt of the same request still complete it (the
    request id is stable across retries), which is what lets backoff
    recover from a link whose round-trip exceeds the initial timeout.

    The protocol stays honest when the link misbehaves
    ({!Dice_sim.Faults}): execution is {e at most once} — the server
    keeps a bounded per-(requester, request-id) reply cache, so a
    retried or link-duplicated request re-sends the recorded reply
    instead of re-probing (no double-executed probes, no double-counted
    agent stats); the client completes each call at most once, dropping
    and counting duplicate or late responses ([late_responses]); and a
    corrupted frame surfaces as a counted malformed frame on whichever
    side received it ([bad_frames] / [wire_errors]) and is dropped —
    the attempt then times out and retries like a lost frame, rather
    than an exception escaping the event loop.

    The simulated network is single-threaded, so calls over one network
    serialize: {!call}/{!call_batch} hold that network's lock
    ({!Dice_sim.Network.exclusively}) while they pump it, which makes them
    safe to reach from worker domains. Calls over one network get no
    cross-domain parallelism, and parallelism on the wire comes from the
    in-flight window instead; calls over different networks run at
    once. *)

open Dice_inet
open Dice_bgp
module Network = Dice_sim.Network

(** {1 Agent side} *)

type reply =
  | Reply of (Prefix.t * Probe_wire.verdict) list
  | Refuse of string  (** answered with a {!Probe_wire.Decline} frame *)

type server

val serve :
  ?dedup_cache:int ->
  Network.t ->
  name:string ->
  answer:(from:Ipv4.t -> Msg.t -> reply) ->
  server
(** Register a node that answers probe frames. Each well-formed
    {!Probe_wire.Request} is decoded, answered via [answer], and the
    reply encoded back to the requester; an [answer] that raises becomes
    a {!Probe_wire.Error} frame (the exception never crosses the
    boundary, nor does it kill the node). Malformed or unexpected frames
    are counted and dropped.

    [dedup_cache] (default 512) bounds the at-most-once reply cache: the
    last [dedup_cache] replies are kept per server, keyed by
    (requester node, request id), and a request seen again answers from
    the cache without re-invoking [answer]. At-most-once execution is
    therefore guaranteed while a request id's reply is still cached —
    with the default bound, for any realistic retry window. [0] disables
    deduplication (every frame re-executes).
    @raise Invalid_argument if [dedup_cache] is negative. *)

val server_node : server -> Network.node_id
val frames_served : server -> int
(** Well-formed request frames answered so far (cache replays
    included). *)

val frames_executed : server -> int
(** Requests that actually invoked [answer]:
    [frames_served = frames_executed + dedup_hits]. *)

val dedup_hits : server -> int
(** Retried or duplicated requests answered from the reply cache
    without re-executing. *)

val bad_frames : server -> int
(** Malformed or unexpected frames dropped so far (a corrupted request
    frame lands here). *)

val start_heartbeats :
  ?until:float ->
  server ->
  to_:Network.node_id ->
  period:float ->
  incarnation:(unit -> int) ->
  state_version:(unit -> int) ->
  unit -> unit
(** Emit {!Probe_wire.Heartbeat} frames from the server to [to_] every
    [period] virtual seconds, reading [incarnation] and [state_version]
    fresh at each beat (so a crash-recovered agent announces its new
    life without re-wiring). A paused (crashed) or disconnected server
    misses its beats silently — that gap {e is} the liveness signal.
    Returns a stop thunk; beating also stops once virtual time passes
    [until] (without a horizon or a stop call, the recurring timer keeps
    [Network.run] alive forever — simulations should pass [until]).
    @raise Invalid_argument on a non-positive or non-finite [period]. *)

(** {1 Exploring side} *)

type client

val client : Network.t -> name:string -> client
(** Register the exploring node the responses come back to. *)

val client_node : client -> Network.node_id

type config = {
  timeout : float;  (** virtual seconds before an attempt expires *)
  retries : int;  (** re-sends after the first attempt *)
  backoff : float;  (** attempt [i] waits [timeout *. backoff ** i] *)
  max_in_flight : int;  (** outstanding requests per {!call_batch} *)
  jitter : float;
      (** seeded-jitter fraction: each backoff delay (and breaker
          cooldown) is scaled by a deterministic uniform draw from
          [\[1, 1 + jitter)]. [0.0] (the default) keeps the pure
          exponential schedule — synchronized retries across endpoints
          amplify load spikes after a shared-link blip; a small jitter
          desynchronizes them without losing replayability (the draws
          come from the endpoint's own seeded stream). *)
  breaker_threshold : int;
      (** consecutive timeouts before the circuit breaker opens;
          [0] (the default) disables the breaker entirely *)
  breaker_cooldown : float;
      (** base open duration: opening [k] (from 0) holds for
          [breaker_cooldown *. backoff ** k], jittered, before the
          half-open trial *)
}

val default_config : config
(** 1 s virtual timeout, 2 retries, 2.0 backoff, 8 in flight, no
    jitter, breaker disabled, 5 s base cooldown. *)

type endpoint

val endpoint :
  ?config:config -> ?seed:int64 -> client -> server:Network.node_id -> endpoint
(** A client's view of one remote agent. The link itself is the
    caller's to manage ([Network.connect]/[disconnect]) — probing a
    disconnected endpoint is exactly how a partition is simulated.
    [seed] (fixed default) seeds the endpoint's private jitter stream;
    equal seeds and call sequences replay identical backoff and
    cooldown schedules. Creating the endpoint also registers its
    {!Health} monitor for the server's heartbeats on this client. *)

val endpoint_health : endpoint -> Health.t
(** The endpoint's liveness monitor: fed passively by the server's
    heartbeats arriving at this client, and actively by every probe
    outcome ({!Health.note_ok} on any wire answer,
    {!Health.note_timeout} on an exhausted request,
    {!Health.note_down} when the breaker opens). *)

val breaker_state : endpoint -> [ `Closed | `Open | `Half_open ]
(** Where the circuit breaker stands: [`Closed] (probes flow), [`Open]
    (probes fail fast as [Declined]), [`Half_open] (one trial probe is
    allowed through; others fail fast). Always [`Closed] while
    [breaker_threshold = 0]. *)

type result =
  | Verdicts of (Prefix.t * Probe_wire.verdict) list
  | Declined of string
      (** the agent answered but refused: decline or error frame *)
  | Timeout  (** all attempts expired — link down, lost, or too slow *)

val call : endpoint -> bytes -> result
(** [call ep canonical] probes with a {!Probe_wire.canonical_request}
    body, driving the network until the response or the last attempt's
    timeout fires. Never raises. *)

val call_batch : endpoint -> bytes list -> result list
(** Pipeline a batch over the endpoint's in-flight window: up to
    [max_in_flight] requests ride the link concurrently, each with its
    own timeout/retry schedule. Results are in request order. *)

type stats = {
  calls : int;  (** requests issued (batched or single) *)
  retries : int;  (** re-send attempts after a timeout *)
  timeouts : int;  (** requests that exhausted all attempts *)
  declines : int;  (** requests answered with decline/error frames *)
  wire_errors : int;
      (** malformed frames received by the client (a corrupted response
          lands here; the attempt retries via its timeout) *)
  late_responses : int;
      (** responses for an already-completed (or timed-out) call —
          duplicates and stragglers — dropped, never applied twice *)
  fail_fast : int;
      (** requests answered [Declined] locally by the open breaker,
          without touching the wire (counted in [calls] and [declines]
          too) *)
  breaker_opens : int;  (** times the breaker opened (re-opens included) *)
}

val stats : endpoint -> stats
