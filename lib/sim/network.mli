(** Discrete-event simulated network.

    Nodes exchange opaque byte messages over point-to-point links with
    latency; a virtual clock advances from event to event. This is the
    stand-in for the paper's testbed of BIRD instances on virtual
    interfaces: deterministic, and fast enough to replay full routing
    tables.

    Links are reliable and in-order by default. A per-link {!Faults.t}
    model ({!set_faults}) makes a link hostile — loss, duplication,
    reordering, jitter, corruption — with every decision drawn from a
    dedicated deterministic RNG stream ({!set_fault_seed}), so a failing
    run replays exactly from its seed. Nodes can also crash and restart
    ({!pause_node}/{!resume_node}). *)

type node_id = int

type t

type handler = t -> self:node_id -> from:node_id -> bytes -> unit
(** Invoked when a message is delivered to a node. *)

val create : unit -> t

val now : t -> float
(** Current virtual time, seconds. *)

val exclusively : t -> (unit -> 'a) -> 'a
(** [exclusively t f] runs [f] holding [t]'s lock. A network is
    single-threaded: code that pumps it from more than one domain takes
    the lock around each pump. The lock is not re-entrant, so [f] must not
    call [exclusively t] again. *)

val add_node : t -> name:string -> handler:handler -> node_id
(** Register a node. Ids are dense, starting at 0. *)

val set_handler : t -> node_id -> handler -> unit
(** Replace a node's handler (for wiring circular dependencies). *)

val node_name : t -> node_id -> string
val node_count : t -> int

val connect : t -> node_id -> node_id -> latency:float -> unit
(** Create a bidirectional link. Reconnecting updates the latency.
    @raise Invalid_argument if [latency] is negative, NaN or infinite
    (a NaN latency would silently schedule deliveries in the virtual
    past). *)

val disconnect : t -> node_id -> node_id -> unit

val connected : t -> node_id -> node_id -> bool
val neighbors : t -> node_id -> node_id list

(** {1 Fault injection}

    Fault decisions are drawn, in a fixed per-frame order, from one
    dedicated RNG stream per network — separate from every other
    randomized subsystem, so the fault schedule depends only on the
    fault seed and the (deterministic) order of sends. Equal seed, equal
    send sequence: equal drops, duplicates, holds and bit flips. *)

val set_fault_seed : t -> int64 -> unit
(** Reset the fault RNG stream. Networks start from a fixed default
    seed, so fault injection is reproducible even without calling this;
    set it explicitly to explore (and later replay) other schedules. *)

val set_faults : t -> node_id -> node_id -> Faults.t -> unit
(** Attach a fault model to the link between two nodes (both
    directions). Setting {!Faults.none} is the same as {!clear_faults}.
    Applies to frames sent after the call; frames already in flight keep
    the fate they were dealt.
    @raise Invalid_argument as {!Faults.validate}, or if either node is
    unknown. The link itself need not exist yet: faults attach to the
    node pair. *)

val clear_faults : t -> node_id -> node_id -> unit
(** Back to reliable in-order delivery. *)

val messages_dropped : t -> int
(** Frames lost to link faults so far. *)

val messages_duplicated : t -> int
(** Extra copies injected by link faults so far. *)

val messages_reordered : t -> int
(** Arrivals that overtook an earlier send on the same directed link: a
    frame (or duplicate) arriving after a later-sent frame has already
    arrived counts once. Only faulty links are tracked. *)

val messages_corrupted : t -> int
(** Frames delivered with a flipped bit so far. *)

(** {1 Node crash/restart}

    [pause_node] models a crashed (or rebooting) node. Queued-delivery
    semantics: frames that {e arrive} while a node is paused are
    buffered at the node, in arrival order, and are not counted as
    delivered; [resume_node] re-enqueues them for immediate delivery in
    that same order (Eventq's FIFO tie-breaking keeps it). A paused node
    cannot transmit — {!send} from it raises — but frames it sent before
    pausing are already in flight and still arrive, and virtual timers
    ({!schedule}) are unaffected: they belong to whoever scheduled them,
    not to a node. Both operations are idempotent.

    Crashes can also be {e scheduled}: a per-node {!Faults.node} model
    ({!set_node_faults}) crashes the node with probability [crash] on
    each frame arrival (the frame is buffered, not lost) and restarts it
    [downtime] virtual seconds later, with every decision drawn from a
    dedicated crash RNG stream ({!set_crash_seed}) — a crash schedule
    replays exactly from its seed, independently of link faults. *)

val pause_node : t -> node_id -> unit
val resume_node : t -> node_id -> unit
(** Resuming a paused node counts one restart, counts its buffered
    frames as requeued ({!messages_requeued}), re-enqueues them, and
    then runs the node's restart hook ({!set_restart_hook}), if any,
    before any redelivered frame is processed. *)

val paused : t -> node_id -> bool

val queued : t -> node_id -> int
(** Frames currently buffered at a paused node (0 when running). *)

val default_crash_seed : int64
(** The crash RNG's fixed default seed. *)

val set_crash_seed : t -> int64 -> unit
(** Reset the crash RNG stream (fixed default seed, like the fault
    stream — distinct from it, so link faults and crash schedules
    replay independently). *)

val set_node_faults : t -> node_id -> Faults.node -> unit
(** Attach a crash model to a node. {!Faults.node_none} clears it.
    @raise Invalid_argument as {!Faults.validate_node}, or on an
    unknown node. *)

val node_faults : t -> node_id -> Faults.node option

val set_restart_hook : t -> node_id -> (unit -> unit) -> unit
(** Run a thunk each time the node resumes from a pause — scheduled
    crash or manual {!resume_node} alike. This is where a crashed agent
    rebuilds its state and re-announces liveness. One hook per node;
    setting replaces. *)

val messages_requeued : t -> int
(** Frames redelivered by {!resume_node} so far (buffered during a
    pause, re-enqueued at restart). *)

val node_crashes : t -> int
(** Scheduled crashes fired so far (manual {!pause_node} not
    included). *)

val node_restarts : t -> int
(** Resumes of actually-paused nodes so far (scheduled and manual). *)

val send : t -> src:node_id -> dst:node_id -> bytes -> unit
(** Queue a message for delivery after the link latency, subject to the
    link's fault model, if any.
    @raise Invalid_argument if the nodes are not connected or [src] is
    paused. *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** Run a thunk after a virtual delay (timers).
    @raise Invalid_argument if [delay] is negative, NaN or infinite. *)

val schedule_at : t -> time:float -> (unit -> unit) -> unit
(** @raise Invalid_argument if [time] is in the virtual past or NaN. *)

val step : t -> bool
(** Process the earliest pending event. [false] if none remain. *)

val run : ?until:float -> ?max_events:int -> t -> int
(** Process events until the queue is empty, virtual time would pass
    [until], or [max_events] have fired. Returns events processed. Events
    at exactly [until] do fire. *)

val pending : t -> int

val messages_sent : t -> int
(** [send] calls that were accepted (dropped frames count: they were
    sent, the link lost them; injected duplicates do not). *)

val messages_delivered : t -> int
(** Frames actually handed to a running node's handler. *)
