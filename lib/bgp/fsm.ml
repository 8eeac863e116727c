type state =
  | Idle
  | Connect
  | Active
  | Open_sent
  | Open_confirm
  | Established

let state_to_string = function
  | Idle -> "Idle"
  | Connect -> "Connect"
  | Active -> "Active"
  | Open_sent -> "OpenSent"
  | Open_confirm -> "OpenConfirm"
  | Established -> "Established"

let pp_state ppf s = Format.pp_print_string ppf (state_to_string s)

type timer =
  | Connect_retry
  | Hold
  | Keepalive_timer

type event =
  | Manual_start
  | Manual_stop
  | Tcp_connected
  | Tcp_failed
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
  | Initiate_connect
  | Drop_connection
  | Deliver_update of Msg.update
  | Session_established
  | Session_down of string

let initial = Idle

let fsm_error = { Msg.code = 5; subcode = 0; data = Bytes.empty }

let all_stop = [ Stop_timer Connect_retry; Stop_timer Hold; Stop_timer Keepalive_timer ]

(* Tear the session down and return to Idle. *)
let reset reason extra = (Idle, extra @ all_stop @ [ Drop_connection; Session_down reason ])

let step state event =
  match (state, event) with
  (* ----- Idle ----- *)
  | Idle, Manual_start -> (Connect, [ Start_timer Connect_retry; Initiate_connect ])
  | Idle, (Manual_stop | Tcp_failed | Timer_expired _ | Recv_notification _) -> (Idle, [])
  | Idle, (Tcp_connected | Recv_open _ | Recv_keepalive | Recv_update _) -> (Idle, [])
  (* ----- Connect ----- *)
  | Connect, Tcp_connected -> (Open_sent, [ Stop_timer Connect_retry; Send_open; Start_timer Hold ])
  | Connect, (Tcp_failed | Timer_expired Connect_retry) ->
    (Active, [ Start_timer Connect_retry ])
  | Connect, Manual_stop -> reset "manual stop" []
  | Connect, (Recv_open _ | Recv_keepalive | Recv_update _ | Recv_notification _) ->
    reset "message in Connect" [ Send_notification fsm_error ]
  | Connect, (Manual_start | Timer_expired (Hold | Keepalive_timer)) -> (Connect, [])
  (* ----- Active ----- *)
  | Active, Timer_expired Connect_retry -> (Connect, [ Start_timer Connect_retry; Initiate_connect ])
  | Active, Tcp_connected -> (Open_sent, [ Stop_timer Connect_retry; Send_open; Start_timer Hold ])
  | Active, Tcp_failed -> (Active, [ Start_timer Connect_retry ])
  | Active, Manual_stop -> reset "manual stop" []
  | Active, (Recv_open _ | Recv_keepalive | Recv_update _ | Recv_notification _) ->
    reset "message in Active" [ Send_notification fsm_error ]
  | Active, (Manual_start | Timer_expired (Hold | Keepalive_timer)) -> (Active, [])
  (* ----- OpenSent ----- *)
  | Open_sent, Recv_open _ ->
    (Open_confirm, [ Send_keepalive; Start_timer Keepalive_timer; Start_timer Hold ])
  | Open_sent, Tcp_failed -> (Active, [ Start_timer Connect_retry ])
  | Open_sent, Timer_expired Hold ->
    reset "hold timer expired"
      [ Send_notification { Msg.code = 4; subcode = 0; data = Bytes.empty } ]
  | Open_sent, Manual_stop -> reset "manual stop" []
  | Open_sent, Recv_notification n ->
    reset (Printf.sprintf "notification %d/%d" n.Msg.code n.Msg.subcode) []
  | Open_sent, (Recv_keepalive | Recv_update _) ->
    reset "unexpected message in OpenSent" [ Send_notification fsm_error ]
  | Open_sent, (Manual_start | Tcp_connected | Timer_expired (Connect_retry | Keepalive_timer))
    ->
    (Open_sent, [])
  (* ----- OpenConfirm ----- *)
  | Open_confirm, Recv_keepalive -> (Established, [ Start_timer Hold; Session_established ])
  | Open_confirm, Timer_expired Keepalive_timer ->
    (Open_confirm, [ Send_keepalive; Start_timer Keepalive_timer ])
  | Open_confirm, Timer_expired Hold ->
    reset "hold timer expired"
      [ Send_notification { Msg.code = 4; subcode = 0; data = Bytes.empty } ]
  | Open_confirm, Tcp_failed -> reset "transport failed" []
  | Open_confirm, Manual_stop -> reset "manual stop" []
  | Open_confirm, Recv_notification n ->
    reset (Printf.sprintf "notification %d/%d" n.Msg.code n.Msg.subcode) []
  | Open_confirm, (Recv_open _ | Recv_update _) ->
    reset "unexpected message in OpenConfirm" [ Send_notification fsm_error ]
  | Open_confirm, (Manual_start | Tcp_connected | Timer_expired Connect_retry) ->
    (Open_confirm, [])
  (* ----- Established ----- *)
  | Established, Recv_update u -> (Established, [ Start_timer Hold; Deliver_update u ])
  | Established, Recv_keepalive -> (Established, [ Start_timer Hold ])
  | Established, Timer_expired Keepalive_timer ->
    (Established, [ Send_keepalive; Start_timer Keepalive_timer ])
  | Established, Timer_expired Hold ->
    reset "hold timer expired"
      [ Send_notification { Msg.code = 4; subcode = 0; data = Bytes.empty } ]
  | Established, Recv_notification n ->
    reset (Printf.sprintf "notification %d/%d" n.Msg.code n.Msg.subcode) []
  | Established, Tcp_failed -> reset "transport failed" []
  | Established, Manual_stop ->
    reset "manual stop"
      [ Send_notification { Msg.code = 6; subcode = 2; data = Bytes.empty } ]
  | Established, Recv_open _ ->
    reset "OPEN in Established" [ Send_notification fsm_error ]
  | Established, (Manual_start | Tcp_connected | Timer_expired Connect_retry) ->
    (Established, [])
