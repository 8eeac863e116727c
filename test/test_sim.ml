(* Tests for the discrete-event simulator: event queue, network, link and
   node faults. *)
module Eventq = Dice_sim.Eventq
module Net = Dice_sim.Network

(* ---- Eventq ---- *)

let test_eventq_order () =
  let q = Eventq.create () in
  Eventq.push q ~time:3.0 "c";
  Eventq.push q ~time:1.0 "a";
  Eventq.push q ~time:2.0 "b";
  let pop () =
    match Eventq.pop q with
    | Some (_, x) -> x
    | None -> "?"
  in
  let first = pop () in
  let second = pop () in
  let third = pop () in
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c" ] [ first; second; third ];
  Alcotest.(check bool) "empty" true (Eventq.pop q = None)

let test_eventq_fifo_ties () =
  let q = Eventq.create () in
  List.iter (fun s -> Eventq.push q ~time:1.0 s) [ "first"; "second"; "third" ];
  let pop () =
    match Eventq.pop q with
    | Some (_, x) -> x
    | None -> "?"
  in
  let x1 = pop () in
  let x2 = pop () in
  let x3 = pop () in
  Alcotest.(check (list string)) "insertion order" [ "first"; "second"; "third" ] [ x1; x2; x3 ]

let test_eventq_interleaved () =
  let q = Eventq.create () in
  for i = 99 downto 0 do
    Eventq.push q ~time:(float_of_int i) i
  done;
  let out = ref [] in
  let rec drain () =
    match Eventq.pop q with
    | Some (_, x) ->
      out := x :: !out;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "sorted" (List.init 100 Fun.id) (List.rev !out)

let test_eventq_size_clear () =
  let q = Eventq.create () in
  Eventq.push q ~time:1.0 ();
  Eventq.push q ~time:2.0 ();
  Alcotest.(check int) "size" 2 (Eventq.size q);
  Alcotest.(check (option (float 0.0))) "peek" (Some 1.0) (Eventq.peek_time q);
  Eventq.clear q;
  Alcotest.(check bool) "cleared" true (Eventq.is_empty q)

(* ---- Network ---- *)

let two_nodes () =
  let net = Net.create () in
  let received = ref [] in
  let handler _ ~self ~from msg = received := (self, from, Bytes.to_string msg) :: !received in
  let a = Net.add_node net ~name:"a" ~handler in
  let b = Net.add_node net ~name:"b" ~handler in
  Net.connect net a b ~latency:0.5;
  (net, a, b, received)

let test_network_delivery () =
  let net, a, b, received = two_nodes () in
  Net.send net ~src:a ~dst:b (Bytes.of_string "hi");
  ignore (Net.run net);
  Alcotest.(check (list (triple int int string))) "delivered" [ (b, a, "hi") ] !received;
  Alcotest.(check (float 1e-9)) "clock advanced by latency" 0.5 (Net.now net);
  Alcotest.(check int) "sent" 1 (Net.messages_sent net);
  Alcotest.(check int) "delivered count" 1 (Net.messages_delivered net)

let test_network_unconnected_send_rejected () =
  let net = Net.create () in
  let a = Net.add_node net ~name:"a" ~handler:(fun _ ~self:_ ~from:_ _ -> ()) in
  let b = Net.add_node net ~name:"b" ~handler:(fun _ ~self:_ ~from:_ _ -> ()) in
  Alcotest.check_raises "not connected"
    (Invalid_argument "Network.send: a and b are not connected") (fun () ->
      Net.send net ~src:a ~dst:b Bytes.empty)

let test_network_disconnect () =
  let net, a, b, _ = two_nodes () in
  Alcotest.(check bool) "connected" true (Net.connected net a b);
  Net.disconnect net a b;
  Alcotest.(check bool) "disconnected" false (Net.connected net a b)

let test_network_neighbors () =
  let net = Net.create () in
  let h _ ~self:_ ~from:_ _ = () in
  let a = Net.add_node net ~name:"a" ~handler:h in
  let b = Net.add_node net ~name:"b" ~handler:h in
  let c = Net.add_node net ~name:"c" ~handler:h in
  Net.connect net a b ~latency:0.1;
  Net.connect net a c ~latency:0.1;
  Alcotest.(check (list int)) "neighbors of a" [ b; c ] (Net.neighbors net a);
  Alcotest.(check (list int)) "neighbors of b" [ a ] (Net.neighbors net b)

let test_network_schedule_order () =
  let net = Net.create () in
  let log = ref [] in
  Net.schedule net ~delay:2.0 (fun () -> log := "late" :: !log);
  Net.schedule net ~delay:1.0 (fun () -> log := "early" :: !log);
  ignore (Net.run net);
  Alcotest.(check (list string)) "order" [ "late"; "early" ] !log

let test_network_run_until () =
  let net = Net.create () in
  let fired = ref 0 in
  Net.schedule net ~delay:1.0 (fun () -> incr fired);
  Net.schedule net ~delay:10.0 (fun () -> incr fired);
  ignore (Net.run ~until:5.0 net);
  Alcotest.(check int) "only the early one" 1 !fired;
  Alcotest.(check (float 0.0)) "clock at horizon" 5.0 (Net.now net);
  ignore (Net.run net);
  Alcotest.(check int) "rest fires later" 2 !fired

let test_network_max_events () =
  let net = Net.create () in
  let fired = ref 0 in
  for i = 1 to 10 do
    Net.schedule net ~delay:(float_of_int i) (fun () -> incr fired)
  done;
  let n = Net.run ~max_events:3 net in
  Alcotest.(check int) "three processed" 3 n;
  Alcotest.(check int) "fired three" 3 !fired;
  Alcotest.(check int) "pending rest" 7 (Net.pending net)

let test_network_schedule_past_rejected () =
  let net = Net.create () in
  Net.schedule net ~delay:1.0 (fun () -> ());
  ignore (Net.run net);
  Alcotest.check_raises "past" (Invalid_argument "Network.schedule_at: time in the past")
    (fun () -> Net.schedule_at net ~time:0.5 (fun () -> ()))

let test_network_node_names () =
  let net = Net.create () in
  let a = Net.add_node net ~name:"alpha" ~handler:(fun _ ~self:_ ~from:_ _ -> ()) in
  Alcotest.(check string) "name" "alpha" (Net.node_name net a);
  Alcotest.(check int) "count" 1 (Net.node_count net)

let test_network_latency_ordering () =
  (* a message on a slow link must arrive after a later message on a fast
     link *)
  let net = Net.create () in
  let log = ref [] in
  let h tag _ ~self:_ ~from:_ _ = log := tag :: !log in
  let hub = Net.add_node net ~name:"hub" ~handler:(fun _ ~self:_ ~from:_ _ -> ()) in
  let slow = Net.add_node net ~name:"slow" ~handler:(h "slow") in
  let fast = Net.add_node net ~name:"fast" ~handler:(h "fast") in
  Net.connect net hub slow ~latency:2.0;
  Net.connect net hub fast ~latency:0.1;
  Net.send net ~src:hub ~dst:slow Bytes.empty;
  Net.send net ~src:hub ~dst:fast Bytes.empty;
  ignore (Net.run net);
  Alcotest.(check (list string)) "fast first" [ "slow"; "fast" ] !log

(* ---- fault injection ---- *)

module Faults = Dice_sim.Faults

let test_faults_validation () =
  Alcotest.(check bool) "none is none" true (Faults.is_none Faults.none);
  List.iter
    (fun f ->
      match f () with
      | exception Invalid_argument _ -> ()
      | (_ : Faults.t) -> Alcotest.fail "invalid fault model accepted")
    [ (fun () -> Faults.make ~drop:1.5 ());
      (fun () -> Faults.make ~drop:(-0.1) ());
      (fun () -> Faults.make ~duplicate:Float.nan ());
      (fun () -> Faults.make ~corrupt:2.0 ());
      (fun () -> Faults.make ~reorder:(-1) ());
      (fun () -> Faults.make ~jitter:(-1.0) ());
      (fun () -> Faults.make ~jitter:Float.infinity ()) ]

let test_connect_rejects_nan_latency () =
  let net, a, b, _ = two_nodes () in
  List.iter
    (fun l ->
      match Net.connect net a b ~latency:l with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.failf "latency %f accepted" l)
    [ Float.nan; -1.0; Float.infinity ];
  List.iter
    (fun d ->
      match Net.schedule net ~delay:d (fun () -> ()) with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.failf "delay %f accepted" d)
    [ Float.nan; -0.5; Float.infinity ];
  match Net.schedule_at net ~time:Float.nan (fun () -> ()) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "NaN time accepted"

let test_faults_drop_all () =
  let net, a, b, received = two_nodes () in
  Net.set_faults net a b (Faults.make ~drop:1.0 ());
  for _ = 1 to 10 do
    Net.send net ~src:a ~dst:b (Bytes.of_string "x")
  done;
  ignore (Net.run net);
  Alcotest.(check (list (triple int int string))) "nothing delivered" [] !received;
  Alcotest.(check int) "all counted dropped" 10 (Net.messages_dropped net);
  Alcotest.(check int) "sent still counts the sends" 10 (Net.messages_sent net);
  Alcotest.(check int) "delivered none" 0 (Net.messages_delivered net);
  (* clearing restores reliable delivery *)
  Net.clear_faults net a b;
  Net.send net ~src:a ~dst:b (Bytes.of_string "y");
  ignore (Net.run net);
  Alcotest.(check int) "reliable again" 1 (List.length !received)

let test_faults_duplicate_all () =
  let net, a, b, received = two_nodes () in
  Net.set_faults net a b (Faults.make ~duplicate:1.0 ());
  for _ = 1 to 5 do
    Net.send net ~src:a ~dst:b (Bytes.of_string "d")
  done;
  ignore (Net.run net);
  Alcotest.(check int) "every frame delivered twice" 10 (List.length !received);
  Alcotest.(check int) "duplicates counted" 5 (Net.messages_duplicated net);
  Alcotest.(check int) "sent counts send calls only" 5 (Net.messages_sent net)

let test_faults_corrupt_flips_one_bit () =
  let net, a, b, received = two_nodes () in
  Net.set_faults net a b (Faults.make ~corrupt:1.0 ());
  let payload = "payload-payload" in
  Net.send net ~src:a ~dst:b (Bytes.of_string payload);
  ignore (Net.run net);
  (match !received with
  | [ (_, _, got) ] ->
    Alcotest.(check int) "same length" (String.length payload) (String.length got);
    let diff_bits = ref 0 in
    String.iteri
      (fun i c ->
        let x = Char.code c lxor Char.code payload.[i] in
        for bit = 0 to 7 do
          if x land (1 lsl bit) <> 0 then incr diff_bits
        done)
      got;
    Alcotest.(check int) "exactly one bit flipped" 1 !diff_bits
  | l -> Alcotest.failf "expected one delivery, got %d" (List.length l));
  Alcotest.(check int) "corruption counted" 1 (Net.messages_corrupted net);
  (* the sender's buffer is never touched *)
  let original = Bytes.of_string "untouched" in
  Net.send net ~src:a ~dst:b original;
  ignore (Net.run net);
  Alcotest.(check string) "sender copy intact" "untouched" (Bytes.to_string original)

let test_faults_reorder_window () =
  let net = Net.create () in
  let received = ref [] in
  let a = Net.add_node net ~name:"a" ~handler:(fun _ ~self:_ ~from:_ _ -> ()) in
  let b =
    Net.add_node net ~name:"b" ~handler:(fun _ ~self:_ ~from:_ msg ->
        received := Bytes.to_string msg :: !received)
  in
  Net.connect net a b ~latency:0.01;
  Net.set_faults net a b (Faults.make ~reorder:4 ());
  let n = 50 in
  for i = 0 to n - 1 do
    Net.send net ~src:a ~dst:b (Bytes.of_string (string_of_int i))
  done;
  ignore (Net.run net);
  let got = List.rev !received in
  Alcotest.(check int) "every frame arrives exactly once" n (List.length got);
  Alcotest.(check (list string)) "delivery is a permutation of the sends"
    (List.sort compare (List.init n string_of_int))
    (List.sort compare got);
  Alcotest.(check bool) "the order actually changed" true
    (got <> List.init n string_of_int);
  Alcotest.(check bool) "reordered arrivals counted" true (Net.messages_reordered net > 0)

let test_faults_seed_replay () =
  let counters seed =
    let net = Net.create () in
    let a = Net.add_node net ~name:"a" ~handler:(fun _ ~self:_ ~from:_ _ -> ()) in
    let b = Net.add_node net ~name:"b" ~handler:(fun _ ~self:_ ~from:_ _ -> ()) in
    Net.connect net a b ~latency:0.01;
    Net.set_fault_seed net seed;
    Net.set_faults net a b
      (Faults.make ~drop:0.3 ~duplicate:0.2 ~reorder:3 ~jitter:0.002 ~corrupt:0.1 ());
    for i = 0 to 199 do
      Net.send net ~src:a ~dst:b (Bytes.make 20 (Char.chr (i land 0xFF)))
    done;
    ignore (Net.run net);
    ( Net.messages_dropped net,
      Net.messages_duplicated net,
      Net.messages_reordered net,
      Net.messages_corrupted net,
      Net.messages_delivered net )
  in
  let r1 = counters 42L and r2 = counters 42L and r3 = counters 7L in
  Alcotest.(check bool) "same seed, identical fault schedule" true (r1 = r2);
  Alcotest.(check bool) "different seed, different schedule" true (r1 <> r3);
  let d, u, r, c, _ = r1 in
  Alcotest.(check bool) "all fault classes exercised" true (d > 0 && u > 0 && r > 0 && c > 0)

let test_pause_resume_queues_delivery () =
  let net, a, b, received = two_nodes () in
  Net.pause_node net b;
  Net.pause_node net b;  (* idempotent *)
  Alcotest.(check bool) "paused" true (Net.paused net b);
  List.iter (fun s -> Net.send net ~src:a ~dst:b (Bytes.of_string s)) [ "1"; "2"; "3" ];
  ignore (Net.run net);
  Alcotest.(check (list (triple int int string))) "nothing delivered while down" []
    !received;
  Alcotest.(check int) "frames buffered at the node" 3 (Net.queued net b);
  Alcotest.(check int) "not counted delivered" 0 (Net.messages_delivered net);
  (* a crashed node cannot transmit *)
  (match Net.send net ~src:b ~dst:a Bytes.empty with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "send from a paused node must raise");
  Net.resume_node net b;
  Alcotest.(check bool) "running again" false (Net.paused net b);
  Alcotest.(check int) "buffer drained into the event queue" 0 (Net.queued net b);
  ignore (Net.run net);
  Alcotest.(check (list string)) "queued frames delivered in arrival order"
    [ "1"; "2"; "3" ]
    (List.rev_map (fun (_, _, m) -> m) !received);
  Net.resume_node net b  (* idempotent *)

(* ---- node crash model ---- *)

(* The pause/resume buffer preserves arrival order across a restart:
   frames from links with different latencies arrive at a paused node
   out of send order, and resume re-enqueues them at one instant — only
   the event queue's FIFO tie-break keeps them from shuffling. *)
let test_resume_requeue_ordering () =
  let net = Net.create () in
  let received = ref [] in
  let handler _ ~self:_ ~from:_ msg = received := Bytes.to_string msg :: !received in
  let a = Net.add_node net ~name:"a" ~handler in
  let b = Net.add_node net ~name:"b" ~handler in
  let c = Net.add_node net ~name:"c" ~handler in
  Net.connect net a b ~latency:0.05;
  Net.connect net c b ~latency:0.01;
  Net.send net ~src:a ~dst:b (Bytes.of_string "slow");
  Net.schedule net ~delay:0.02 (fun () -> Net.pause_node net b);
  Net.schedule net ~delay:0.03 (fun () ->
      Net.send net ~src:c ~dst:b (Bytes.of_string "fast"));
  (* both frames arrive while b is down: fast at 0.04, slow at 0.05 *)
  Net.schedule net ~delay:0.1 (fun () -> Net.resume_node net b);
  ignore (Net.run net);
  Alcotest.(check (list string)) "arrival order survives the restart"
    [ "fast"; "slow" ] (List.rev !received);
  Alcotest.(check int) "requeued frames counted" 2 (Net.messages_requeued net);
  Alcotest.(check int) "manual resume counts a restart" 1 (Net.node_restarts net);
  Alcotest.(check int) "no scheduled crash fired" 0 (Net.node_crashes net)

let crash_counters seed =
  let net = Net.create () in
  let delivered = ref 0 in
  let handler _ ~self:_ ~from:_ _ = incr delivered in
  let a = Net.add_node net ~name:"a" ~handler in
  let b = Net.add_node net ~name:"b" ~handler in
  Net.connect net a b ~latency:0.01;
  Net.set_crash_seed net seed;
  Net.set_node_faults net b (Faults.node ~crash:0.3 ~downtime:0.05 ());
  let hook_fired = ref 0 in
  Net.set_restart_hook net b (fun () -> incr hook_fired);
  for i = 0 to 99 do
    Net.schedule net ~delay:(0.001 *. float_of_int i) (fun () ->
        Net.send net ~src:a ~dst:b (Bytes.make 4 'x'))
  done;
  ignore (Net.run net);
  (Net.node_crashes net, Net.node_restarts net, Net.messages_requeued net, !delivered, !hook_fired)

let test_crash_schedule_replays () =
  let c1 = crash_counters 1L and c2 = crash_counters 1L and c3 = crash_counters 9L in
  Alcotest.(check bool) "same seed, identical crash schedule" true (c1 = c2);
  Alcotest.(check bool) "different seed, different schedule" true (c1 <> c3);
  let crashes, restarts, requeued, delivered, hook_fired = c1 in
  Alcotest.(check bool) "crashes fired" true (crashes > 0);
  Alcotest.(check int) "every crash restarted" crashes restarts;
  Alcotest.(check int) "restart hook fired per restart" restarts hook_fired;
  Alcotest.(check bool) "crashing frames were buffered, so some requeued" true
    (requeued > 0);
  (* frames are buffered across downtime, never lost *)
  Alcotest.(check int) "all 100 frames delivered despite the crashes" 100 delivered

let test_crash_model_validation () =
  let net = Net.create () in
  let b = Net.add_node net ~name:"b" ~handler:(fun _ ~self:_ ~from:_ _ -> ()) in
  (match Net.set_node_faults net b (Faults.node_none) with
  | () -> ()
  | exception Invalid_argument _ -> Alcotest.fail "node_none must clear, not raise");
  (match Faults.node ~crash:1.5 () with
  | _ -> Alcotest.fail "crash probability > 1 must be rejected"
  | exception Invalid_argument _ -> ());
  (match Faults.node ~crash:0.1 ~downtime:(-1.0) () with
  | _ -> Alcotest.fail "negative downtime must be rejected"
  | exception Invalid_argument _ -> ());
  match Net.set_node_faults net 999 (Faults.node ~crash:0.1 ()) with
  | _ -> Alcotest.fail "unknown node must be rejected"
  | exception Invalid_argument _ -> ()

let suite =
  [ ("eventq order", `Quick, test_eventq_order);
    ("eventq FIFO ties", `Quick, test_eventq_fifo_ties);
    ("eventq interleaved", `Quick, test_eventq_interleaved);
    ("eventq size/clear", `Quick, test_eventq_size_clear);
    ("network delivery", `Quick, test_network_delivery);
    ("network unconnected rejected", `Quick, test_network_unconnected_send_rejected);
    ("network disconnect", `Quick, test_network_disconnect);
    ("network neighbors", `Quick, test_network_neighbors);
    ("network schedule order", `Quick, test_network_schedule_order);
    ("network run until", `Quick, test_network_run_until);
    ("network max events", `Quick, test_network_max_events);
    ("network schedule past rejected", `Quick, test_network_schedule_past_rejected);
    ("network node names", `Quick, test_network_node_names);
    ("network latency ordering", `Quick, test_network_latency_ordering);
    ("fault model validation", `Quick, test_faults_validation);
    ("connect/schedule reject NaN and negatives", `Quick, test_connect_rejects_nan_latency);
    ("faults: drop everything", `Quick, test_faults_drop_all);
    ("faults: duplicate everything", `Quick, test_faults_duplicate_all);
    ("faults: corruption flips exactly one bit", `Quick, test_faults_corrupt_flips_one_bit);
    ("faults: reorder window permutes, loses nothing", `Quick, test_faults_reorder_window);
    ("faults: seed replays the exact schedule", `Quick, test_faults_seed_replay);
    ("pause/resume: queued-delivery semantics", `Quick, test_pause_resume_queues_delivery);
    ("pause/resume: requeue preserves arrival order", `Quick, test_resume_requeue_ordering);
    ("crashes: seed replays the exact schedule", `Quick, test_crash_schedule_replays);
    ("crashes: model validation", `Quick, test_crash_model_validation)
  ]
