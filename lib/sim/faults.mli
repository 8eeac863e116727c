(** Per-link fault models for the simulated network.

    A link with a fault model misbehaves in controlled, reproducible
    ways: frames are dropped, duplicated, reordered (held back behind
    later sends), jittered, or bit-flipped, each decision drawn from the
    network's dedicated deterministic fault RNG stream
    ({!Network.set_fault_seed}) so any failing run replays exactly from
    its seed. This is the hostile inter-AS link of the paper's federated
    setting: the probe protocol must stay correct when the transport
    does not. *)

type t = {
  drop : float;  (** probability a frame is silently lost in transit *)
  duplicate : float;
      (** probability a frame is delivered twice; the copy draws its own
          reorder/jitter hold, so it can arrive before the original *)
  reorder : int;
      (** reorder window: each frame is independently held back for up
          to [reorder] extra link latencies, letting up to roughly
          [reorder] later sends overtake it. Needs a positive link
          latency to have any effect. *)
  jitter : float;
      (** uniform extra delivery latency in [\[0, jitter)] seconds *)
  corrupt : float;
      (** probability one random bit of the frame is flipped in transit
          (the receiver gets the damaged copy; the sender's buffer is
          never touched) *)
}

val none : t
(** The reliable link: all rates zero — byte-identical, exactly-once,
    in-order delivery. *)

val make :
  ?drop:float ->
  ?duplicate:float ->
  ?reorder:int ->
  ?jitter:float ->
  ?corrupt:float ->
  unit ->
  t
(** Build a validated model; omitted fields default to {!none}'s zeros.
    @raise Invalid_argument as {!validate}. *)

val validate : t -> unit
(** @raise Invalid_argument if a probability is outside [\[0, 1\]] or
    NaN, [reorder] is negative, or [jitter] is negative, NaN or
    infinite. *)

val is_none : t -> bool
(** [true] iff the model never perturbs a frame. *)

val pp : Format.formatter -> t -> unit

(** {1 Node crash model}

    Where {!t} perturbs a {e link}, {!node} perturbs a {e node}: with
    probability [crash] per frame arriving at the node, the node crashes
    (is paused) just before processing that frame and restarts
    [downtime] virtual seconds later. The triggering frame and anything
    arriving during the outage are buffered and redelivered on restart
    ({!Network.resume_node} semantics), so a crash costs time, not data
    — lost probes come from the timeouts the outage induces. Crash
    decisions draw from a dedicated RNG stream
    ({!Network.set_crash_seed}), so a crash schedule replays exactly
    from its seed, independently of the link-fault stream. *)

type node = {
  crash : float;  (** probability the node crashes on a frame arrival *)
  downtime : float;  (** virtual seconds until the automatic restart *)
}

val node_none : node
(** The reliable node: never crashes. *)

val node : ?crash:float -> ?downtime:float -> unit -> node
(** Build a validated model; omitted fields default to zero.
    @raise Invalid_argument as {!validate_node}. *)

val validate_node : node -> unit
(** @raise Invalid_argument if [crash] is outside [\[0, 1\]] or NaN, or
    [downtime] is negative, NaN or infinite. *)

val node_is_none : node -> bool
(** [true] iff the node never crashes. *)
