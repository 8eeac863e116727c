(* Tests for the endpoint liveness monitor: heartbeat-gap demotion,
   positive-evidence promotion, incarnation monotonicity, bounded
   transition history, and determinism under virtual time. *)
open Dice_core

let mk () = Health.create ~name:"upstream" ()

let test_initial_state () =
  let h = mk () in
  Alcotest.(check string) "alive at birth" "alive"
    (Health.state_to_string (Health.state h));
  Alcotest.(check (float 0.0)) "seen at the origin" 0.0 (Health.last_seen h);
  Alcotest.(check int) "no incarnation heard yet" 0 (Health.incarnation h);
  Alcotest.(check int) "history starts with the birth transition" 1
    (List.length (Health.transitions h))

let test_heartbeat_gap_demotes () =
  let h = mk () in
  Health.note_heartbeat h ~now:1.0 ~incarnation:0 ~state_version:3;
  Alcotest.(check bool) "fresh heartbeat keeps alive" true
    (Health.check h ~now:1.2 = Health.Alive);
  Alcotest.(check bool) "gap past suspect_after demotes" true
    (Health.check h ~now:1.8 = Health.Suspect);
  (* check never promotes: still suspect even though another check runs *)
  Alcotest.(check bool) "still suspect" true (Health.check h ~now:1.9 = Health.Suspect);
  Alcotest.(check bool) "gap past down_after is down" true
    (Health.check h ~now:3.5 = Health.Down);
  (* a fresh heartbeat is the only way back *)
  Health.note_heartbeat h ~now:3.6 ~incarnation:0 ~state_version:3;
  Alcotest.(check bool) "heartbeat revives" true (Health.state h = Health.Alive)

let test_probe_evidence () =
  let h = mk () in
  Health.note_timeout h ~now:0.5;
  Alcotest.(check bool) "timeout demotes alive to suspect" true
    (Health.state h = Health.Suspect);
  Health.note_timeout h ~now:0.6;
  Alcotest.(check bool) "a timeout alone never declares down" true
    (Health.state h = Health.Suspect);
  Health.note_ok h ~now:0.7;
  Alcotest.(check bool) "an answered probe promotes" true
    (Health.state h = Health.Alive);
  Health.note_down h ~now:0.8;
  Alcotest.(check bool) "the breaker declares down" true
    (Health.state h = Health.Down);
  Health.note_ok h ~now:0.9;
  Alcotest.(check bool) "positive evidence recovers from down" true
    (Health.state h = Health.Alive)

let test_incarnation_monotone () =
  let h = mk () in
  Health.note_heartbeat h ~now:1.0 ~incarnation:2 ~state_version:10;
  Alcotest.(check int) "incarnation recorded" 2 (Health.incarnation h);
  Alcotest.(check int) "state version recorded" 10 (Health.state_version h);
  (* a straggler heartbeat from the previous life cannot roll back *)
  Health.note_heartbeat h ~now:1.1 ~incarnation:1 ~state_version:4;
  Alcotest.(check int) "late heartbeat cannot roll incarnation back" 2
    (Health.incarnation h)

let test_history_bounded () =
  let h = mk () in
  for i = 1 to 50 do
    let t = float_of_int i in
    Health.note_down h ~now:t;
    Health.note_ok h ~now:(t +. 0.1)
  done;
  let ts = Health.transitions h in
  Alcotest.(check int) "history bounded" 32 (List.length ts);
  Alcotest.(check bool) "oldest first" true
    (List.sort compare (List.map fst ts) = List.map fst ts);
  let s = Health.stats h in
  (* 100 down/ok flips plus the birth transition *)
  Alcotest.(check int) "total transitions counted beyond history" 101
    s.Health.transitions;
  Alcotest.(check int) "ok probes counted" 50 s.Health.probes_ok

let test_deterministic () =
  let run () =
    let h = mk () in
    List.iter
      (fun i ->
        let t = 0.3 *. float_of_int i in
        if i mod 3 = 0 then Health.note_heartbeat h ~now:t ~incarnation:(i / 10) ~state_version:i
        else if i mod 3 = 1 then Health.note_timeout h ~now:t
        else ignore (Health.check h ~now:t))
      (List.init 40 Fun.id);
    (Health.state h, Health.transitions h, Health.stats h)
  in
  Alcotest.(check bool) "same virtual-time schedule, same health" true (run () = run ())

let suite =
  [ ("initial state", `Quick, test_initial_state);
    ("heartbeat gap demotes, heartbeat revives", `Quick, test_heartbeat_gap_demotes);
    ("probe outcomes as evidence", `Quick, test_probe_evidence);
    ("incarnation is monotone", `Quick, test_incarnation_monotone);
    ("transition history bounded", `Quick, test_history_bounded);
    ("deterministic under virtual time", `Quick, test_deterministic)
  ]
