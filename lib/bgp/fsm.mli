(** The BGP finite state machine (RFC 4271 §8), as a pure transition
    function: [(state, event) -> (state, actions)]. Timer management and
    message transmission are delegated to the caller (the simulated router),
    keeping the machine deterministic and directly testable. *)

type state =
  | Idle
  | Connect
  | Active
  | Open_sent
  | Open_confirm
  | Established

val state_to_string : state -> string
val pp_state : Format.formatter -> state -> unit

type timer =
  | Connect_retry
  | Hold
  | Keepalive_timer

type event =
  | Manual_start
  | Manual_stop
  | Tcp_connected  (** transport session came up *)
  | Tcp_failed  (** transport failed or closed *)
  | Recv_open of Msg.open_msg
  | Recv_keepalive
  | Recv_update of Msg.update
  | Recv_notification of Msg.notification
  | Timer_expired of timer

type action =
  | Send_open
  | Send_keepalive
  | Send_notification of Msg.notification
  | Start_timer of timer
  | Stop_timer of timer
  | Initiate_connect  (** open the transport (simulated TCP) *)
  | Drop_connection
  | Deliver_update of Msg.update  (** hand the UPDATE to route processing *)
  | Session_established
  | Session_down of string

val step : state -> event -> state * action list
(** One transition. Unexpected events in a state produce the RFC-mandated
    fallback: send NOTIFICATION (FSM error) and return to [Idle]. *)

val initial : state
(** [Idle]. *)
