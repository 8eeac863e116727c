(** Adapter embedding a {!Router} in the discrete-event {!Dice_sim}
    network: simulated transport (connection handshake), timer management,
    and execution of router outputs. This plays the role of the OS and
    virtual interfaces in the paper's testbed. *)

open Dice_inet

type t

val attach : Dice_sim.Network.t -> name:string -> Router.t -> t
(** Create the node; peers must then be bound with {!bind_peer}. The
    node re-enters the FSM 5 s after any session goes down, as real
    daemons do after an idle-hold delay. *)

val node_id : t -> Dice_sim.Network.node_id
val router : t -> Router.t
val network : t -> Dice_sim.Network.t

val bind_peer : t -> neighbor:Ipv4.t -> node:Dice_sim.Network.node_id -> unit
(** Associate a configured neighbor address with the simulated node that
    owns it. *)

val start : t -> unit
(** ManualStart all sessions (schedules connection attempts). *)

val frame_bgp : Msg.t -> bytes
(** Encode a BGP message with the simulated-transport framing this
    adapter expects — for injecting traffic (e.g. trace replay) straight
    from a simulated node. *)
