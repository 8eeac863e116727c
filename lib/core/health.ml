(* Per-endpoint liveness, fed from two independent signal sources: the
   passive heartbeat stream (gaps demote) and active probe outcomes
   (replies promote, timeouts and an open breaker demote). All times are
   the virtual network clock — health is as deterministic as the
   simulation feeding it. *)

type state = Alive | Suspect | Down

let state_to_string = function
  | Alive -> "alive"
  | Suspect -> "suspect"
  | Down -> "down"

let pp_state ppf s = Format.pp_print_string ppf (state_to_string s)

(* heartbeat-gap seconds before [Alive] demotes to [Suspect], and before
   any state demotes to [Down]; state transitions retained *)
let suspect_after = 0.5
let down_after = 2.0
let history = 32

type t = {
  name : string;
  lock : Mutex.t;
  mutable state : state;
  mutable last_seen : float;  (* last heartbeat or successful probe *)
  mutable incarnation : int;
  mutable state_version : int;
  mutable heartbeats : int;
  mutable probes_ok : int;
  mutable probe_timeouts : int;
  mutable transitions : (float * state) list;  (* newest first, bounded *)
  mutable transition_count : int;
}

let create ?(now = 0.0) ~name () =
  {
    name;
    lock = Mutex.create ();
    state = Alive;
    last_seen = now;
    incarnation = 0;
    state_version = 0;
    heartbeats = 0;
    probes_ok = 0;
    probe_timeouts = 0;
    transitions = [ (now, Alive) ];
    transition_count = 1;
  }

let name t = t.name

let locked t f = Mutex.protect t.lock f

let rec take n = function
  | [] -> []
  | _ when n = 0 -> []
  | x :: rest -> x :: take (n - 1) rest

let transition t ~now s =
  if t.state <> s then begin
    t.state <- s;
    t.transition_count <- t.transition_count + 1;
    t.transitions <- take history ((now, s) :: t.transitions)
  end

let note_heartbeat t ~now ~incarnation ~state_version =
  locked t @@ fun () ->
  t.heartbeats <- t.heartbeats + 1;
  t.last_seen <- max t.last_seen now;
  t.incarnation <- max t.incarnation incarnation;
  t.state_version <- state_version;
  transition t ~now Alive

let note_ok t ~now =
  locked t @@ fun () ->
  t.probes_ok <- t.probes_ok + 1;
  t.last_seen <- max t.last_seen now;
  transition t ~now Alive

(* One timeout is a smell, not a death: demote to [Suspect] and let
   either the breaker ({!note_down}) or the heartbeat gap make the
   [Down] call. A node already [Down] stays down. *)
let note_timeout t ~now =
  locked t @@ fun () ->
  t.probe_timeouts <- t.probe_timeouts + 1;
  if t.state = Alive then transition t ~now Suspect

let note_down t ~now =
  locked t @@ fun () -> transition t ~now Down

let check t ~now =
  locked t @@ fun () ->
  let gap = now -. t.last_seen in
  (* gaps only demote — promotion back to [Alive] takes fresh evidence
     (a heartbeat or a successful probe), never silence *)
  if gap > down_after then transition t ~now Down
  else if gap > suspect_after && t.state = Alive then transition t ~now Suspect;
  t.state

let state t = locked t @@ fun () -> t.state
let last_seen t = locked t @@ fun () -> t.last_seen
let incarnation t = locked t @@ fun () -> t.incarnation
let state_version t = locked t @@ fun () -> t.state_version

let transitions t = locked t @@ fun () -> List.rev t.transitions

type stats = {
  heartbeats : int;
  probes_ok : int;
  probe_timeouts : int;
  transitions : int;
}

let stats t =
  locked t @@ fun () ->
  {
    heartbeats = t.heartbeats;
    probes_ok = t.probes_ok;
    probe_timeouts = t.probe_timeouts;
    transitions = t.transition_count;
  }

let pp ppf t =
  let s, hb, inc, seen =
    locked t (fun () -> (t.state, t.heartbeats, t.incarnation, t.last_seen))
  in
  Format.fprintf ppf "%s: %a (inc %d, %d heartbeats, last seen %.3fs)" t.name pp_state
    s inc hb seen
