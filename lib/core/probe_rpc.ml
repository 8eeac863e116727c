open Dice_inet
open Dice_bgp
module Network = Dice_sim.Network
module Rbuf = Dice_wire.Rbuf
module Rng = Dice_util.Rng

type reply =
  | Reply of (Prefix.t * Probe_wire.verdict) list
  | Refuse of string

type server = {
  snet : Network.t;
  snode : Network.node_id;
  cache_cap : int;
  (* at-most-once execution: replies are cached per (requester, req_id)
     so a retried or duplicated request re-sends the recorded reply
     instead of re-probing — [order] bounds the cache FIFO-style *)
  cache : (Network.node_id * int, bytes) Hashtbl.t;
  order : (Network.node_id * int) Queue.t;
  mutable served : int;
  mutable executed : int;
  mutable dedup : int;
  mutable sbad : int;
}

let serve ?(dedup_cache = 512) net ~name ~answer =
  if dedup_cache < 0 then invalid_arg "Probe_rpc.serve: negative dedup cache";
  let node = Network.add_node net ~name ~handler:(fun _ ~self:_ ~from:_ _ -> ()) in
  let s =
    { snet = net;
      snode = node;
      cache_cap = dedup_cache;
      cache = Hashtbl.create (max 16 dedup_cache);
      order = Queue.create ();
      served = 0;
      executed = 0;
      dedup = 0;
      sbad = 0;
    }
  in
  let handler net ~self ~from:src b =
    match Probe_wire.decode b with
    | exception Rbuf.Truncated _ -> s.sbad <- s.sbad + 1
    | Probe_wire.Response _ | Probe_wire.Decline _ | Probe_wire.Error _
    | Probe_wire.Heartbeat _ ->
      s.sbad <- s.sbad + 1
    | Probe_wire.Request { req_id; from; msg } ->
      s.served <- s.served + 1;
      let key = (src, req_id) in
      let reply_bytes =
        match Hashtbl.find_opt s.cache key with
        | Some cached ->
          s.dedup <- s.dedup + 1;
          cached
        | None ->
          s.executed <- s.executed + 1;
          let reply =
            match Msg.decode msg with
            | Error e ->
              Probe_wire.encode_error ~req_id
                ("undecodable probe message: " ^ Msg.error_to_string e)
            | Ok m -> begin
              match answer ~from m with
              | Reply verdicts -> Probe_wire.encode_response ~req_id verdicts
              | Refuse reason -> Probe_wire.encode_decline ~req_id reason
              | exception e -> Probe_wire.encode_error ~req_id (Printexc.to_string e)
            end
          in
          if s.cache_cap > 0 then begin
            if Queue.length s.order >= s.cache_cap then
              Hashtbl.remove s.cache (Queue.pop s.order);
            Hashtbl.replace s.cache key reply;
            Queue.push key s.order
          end;
          reply
      in
      (* the requester may have disconnected while we worked; a reply
         into the void is its problem (it will time out), not ours *)
      (try Network.send net ~src:self ~dst:src reply_bytes
       with Invalid_argument _ -> ())
  in
  Network.set_handler net node handler;
  s

let server_node s = s.snode
let frames_served s = s.served
let frames_executed s = s.executed
let dedup_hits s = s.dedup
let bad_frames s = s.sbad

let start_heartbeats ?until s ~to_ ~period ~incarnation ~state_version =
  if not (period > 0.0 && period < Float.infinity) then
    invalid_arg "Probe_rpc.start_heartbeats: period must be positive and finite";
  let stopped = ref false in
  let seq = ref 0 in
  let rec beat () =
    let horizon_ok =
      match until with
      | Some u -> Network.now s.snet <= u
      | None -> true
    in
    if (not !stopped) && horizon_ok then begin
      (* a paused (crashed) or disconnected server simply misses the
         beat — that silence is the signal the monitor reads *)
      (try
         Network.send s.snet ~src:s.snode ~dst:to_
           (Probe_wire.encode_heartbeat ~seq:!seq ~incarnation:(incarnation ())
              ~state_version:(state_version ()))
       with Invalid_argument _ -> ());
      incr seq;
      Network.schedule s.snet ~delay:period beat
    end
  in
  beat ();
  fun () -> stopped := true

type result =
  | Verdicts of (Prefix.t * Probe_wire.verdict) list
  | Declined of string
  | Timeout

type client = {
  net : Network.t;
  node : Network.node_id;
  pending : (int, result -> unit) Hashtbl.t;
  (* heartbeat routing: server node -> health monitors to feed (every
     endpoint on that server registers its own) *)
  watchers : (Network.node_id, Health.t) Hashtbl.t;
  mutable next_id : int;
  mutable wire_errors : int;
  mutable late : int;
}

let client net ~name =
  let node = Network.add_node net ~name ~handler:(fun _ ~self:_ ~from:_ _ -> ()) in
  let c =
    { net; node; pending = Hashtbl.create 16; watchers = Hashtbl.create 4;
      next_id = 0; wire_errors = 0; late = 0 }
  in
  let complete req_id r =
    match Hashtbl.find_opt c.pending req_id with
    | None ->
      (* duplicate or late response: the call already completed (or
         timed out) — drop and count, never apply twice *)
      c.late <- c.late + 1
    | Some k ->
      Hashtbl.remove c.pending req_id;
      k r
  in
  let handler net ~self:_ ~from b =
    match Probe_wire.decode b with
    | exception Rbuf.Truncated _ -> c.wire_errors <- c.wire_errors + 1
    | Probe_wire.Request _ -> c.wire_errors <- c.wire_errors + 1
    | Probe_wire.Response { req_id; verdicts } -> complete req_id (Verdicts verdicts)
    | Probe_wire.Decline { req_id; reason } -> complete req_id (Declined reason)
    | Probe_wire.Error { req_id; reason } ->
      complete req_id (Declined ("remote error: " ^ reason))
    | Probe_wire.Heartbeat { incarnation; state_version; _ } ->
      List.iter
        (fun h ->
          Health.note_heartbeat h ~now:(Network.now net) ~incarnation ~state_version)
        (Hashtbl.find_all c.watchers from)
  in
  Network.set_handler net node handler;
  c

let client_node c = c.node

let fresh_id c =
  let id = c.next_id in
  c.next_id <- (c.next_id + 1) land 0xFFFFFFFF;
  id

type config = {
  timeout : float;
  retries : int;
  backoff : float;
  max_in_flight : int;
  jitter : float;
  breaker_threshold : int;
  breaker_cooldown : float;
}

let default_config =
  { timeout = 1.0; retries = 2; backoff = 2.0; max_in_flight = 8;
    jitter = 0.0; breaker_threshold = 0; breaker_cooldown = 5.0 }

type breaker_state =
  | Closed
  | Open of { until : float; opens : int }
  | Half_open of { opens : int }

type endpoint = {
  ecl : client;
  server : Network.node_id;
  cfg : config;
  rng : Rng.t;  (* jitter draws: backoff and breaker cooldown *)
  health : Health.t;
  mutable calls : int;
  mutable retried : int;
  mutable timed_out : int;
  mutable declined : int;
  mutable fail_fast : int;
  mutable opens : int;
  mutable consec_timeouts : int;
  mutable breaker : breaker_state;
  mutable trial_in_flight : bool;  (* the single half-open trial *)
}

let default_endpoint_seed = 0x0D1CE9L

let endpoint ?(config = default_config) ?(seed = default_endpoint_seed) ecl ~server =
  if config.timeout <= 0.0 then invalid_arg "Probe_rpc.endpoint: timeout must be positive";
  if config.retries < 0 then invalid_arg "Probe_rpc.endpoint: negative retries";
  if config.backoff < 1.0 then invalid_arg "Probe_rpc.endpoint: backoff below 1";
  if config.max_in_flight < 1 then invalid_arg "Probe_rpc.endpoint: empty in-flight window";
  if not (config.jitter >= 0.0 && config.jitter < Float.infinity) then
    invalid_arg "Probe_rpc.endpoint: jitter must be finite and non-negative";
  if config.breaker_threshold < 0 then
    invalid_arg "Probe_rpc.endpoint: negative breaker threshold";
  if config.breaker_cooldown <= 0.0 then
    invalid_arg "Probe_rpc.endpoint: breaker cooldown must be positive";
  let health = Health.create ~now:(Network.now ecl.net)
      ~name:(Network.node_name ecl.net server) ()
  in
  Hashtbl.add ecl.watchers server health;
  { ecl; server; cfg = config; rng = Rng.create seed; health;
    calls = 0; retried = 0; timed_out = 0; declined = 0; fail_fast = 0; opens = 0;
    consec_timeouts = 0; breaker = Closed; trial_in_flight = false }

let endpoint_health ep = ep.health

let breaker_state ep =
  match ep.breaker with
  | Closed -> `Closed
  | Open _ -> `Open
  | Half_open _ -> `Half_open

(* Breaker bookkeeping, shared by every call path. A wire-delivered
   answer (verdicts OR a decline: the server is alive either way) closes
   the breaker and resets the timeout streak; a timeout extends the
   streak and, at the threshold, opens the breaker for
   [cooldown * backoff^opens], jittered — during which probes fail fast
   as [Declined] without touching the wire. After the cooldown one
   half-open trial rides the link: success closes, another timeout
   reopens with a doubled cooldown. *)
let note_wire_answer ep =
  ep.consec_timeouts <- 0;
  ep.trial_in_flight <- false;
  (match ep.breaker with
  | Closed -> ()
  | Open _ | Half_open _ -> ep.breaker <- Closed);
  Health.note_ok ep.health ~now:(Network.now ep.ecl.net)

let note_wire_timeout ep =
  let now = Network.now ep.ecl.net in
  ep.consec_timeouts <- ep.consec_timeouts + 1;
  Health.note_timeout ep.health ~now;
  if ep.cfg.breaker_threshold > 0 then begin
    let open_after opens =
      let cooldown =
        let base = ep.cfg.breaker_cooldown *. (ep.cfg.backoff ** float_of_int (min opens 16)) in
        if ep.cfg.jitter > 0.0 then base *. (1.0 +. Rng.float ep.rng ep.cfg.jitter)
        else base
      in
      ep.opens <- ep.opens + 1;
      ep.breaker <- Open { until = now +. cooldown; opens = opens + 1 };
      Health.note_down ep.health ~now
    in
    match ep.breaker with
    | Half_open { opens } ->
      (* the trial itself timed out: back open, longer cooldown *)
      ep.trial_in_flight <- false;
      open_after opens
    | Closed when ep.consec_timeouts >= ep.cfg.breaker_threshold -> open_after 0
    | Closed | Open _ -> ()
  end

(* [`Send] puts the request on the wire; [`Fail_fast] answers it
   locally, without burning the timeout budget. *)
let breaker_gate ep =
  match ep.breaker with
  | Closed -> `Send
  | Open { until; opens } when Network.now ep.ecl.net >= until ->
    ep.breaker <- Half_open { opens };
    ep.trial_in_flight <- true;
    `Send
  | Open _ -> `Fail_fast
  | Half_open _ when not ep.trial_in_flight ->
    ep.trial_in_flight <- true;
    `Send
  | Half_open _ -> `Fail_fast

let call_batch ep reqs =
  if reqs = [] then []
  else
    let c = ep.ecl in
    let net = c.net in
    (* one domain pumps a network at a time *)
    Network.exclusively net @@ fun () ->
    let arr = Array.of_list reqs in
    let n = Array.length arr in
    let results = Array.make n Timeout in
    let completed = ref 0 in
    let inflight = ref 0 in
    let next = ref 0 in
    let finish ?(wire = true) i r =
      (match r with
      | Declined _ ->
        ep.declined <- ep.declined + 1;
        if wire then note_wire_answer ep
      | Timeout ->
        ep.timed_out <- ep.timed_out + 1;
        if wire then note_wire_timeout ep
      | Verdicts _ -> if wire then note_wire_answer ep);
      results.(i) <- r;
      incr completed;
      decr inflight
    in
    let rec attempt req_id i k =
      (* a send over a cut link fails immediately; the timeout below
         still runs, so the attempt degrades instead of raising *)
      (try
         Network.send net ~src:c.node ~dst:ep.server
           (Probe_wire.encode_request ~req_id arr.(i))
       with Invalid_argument _ -> ());
      let expires =
        let base = ep.cfg.timeout *. (ep.cfg.backoff ** float_of_int k) in
        (* seeded jitter desynchronizes retries across endpoints after a
           shared blip; zero (the default) keeps the legacy schedule *)
        if ep.cfg.jitter > 0.0 then base *. (1.0 +. Rng.float ep.rng ep.cfg.jitter)
        else base
      in
      Network.schedule net ~delay:expires (fun () ->
          if Hashtbl.mem c.pending req_id then begin
            if k < ep.cfg.retries then begin
              ep.retried <- ep.retried + 1;
              attempt req_id i (k + 1)
            end
            else begin
              Hashtbl.remove c.pending req_id;
              finish i Timeout
            end
          end)
    in
    let launch i =
      ep.calls <- ep.calls + 1;
      incr inflight;
      match breaker_gate ep with
      | `Fail_fast ->
        ep.fail_fast <- ep.fail_fast + 1;
        finish ~wire:false i
          (Declined
             (Printf.sprintf "circuit open: %s is down"
                (Network.node_name net ep.server)))
      | `Send ->
        let req_id = fresh_id c in
        Hashtbl.replace c.pending req_id (fun r -> finish i r);
        attempt req_id i 0
    in
    while !completed < n do
      while !inflight < ep.cfg.max_in_flight && !next < n do
        launch !next;
        incr next
      done;
      if !completed < n && not (Network.step net) then begin
        (* unreachable while a timeout event is pending — but if the
           queue ever runs dry, fail every outstanding request rather
           than spin *)
        Hashtbl.reset c.pending;
        ep.timed_out <- ep.timed_out + (n - !completed);
        completed := n
      end
    done;
    Array.to_list results

let call ep req =
  match call_batch ep [ req ] with
  | [ r ] -> r
  | _ -> assert false

type stats = {
  calls : int;
  retries : int;
  timeouts : int;
  declines : int;
  wire_errors : int;
  late_responses : int;
  fail_fast : int;
  breaker_opens : int;
}

let stats (ep : endpoint) =
  {
    calls = ep.calls;
    retries = ep.retried;
    timeouts = ep.timed_out;
    declines = ep.declined;
    wire_errors = ep.ecl.wire_errors;
    late_responses = ep.ecl.late;
    fail_fast = ep.fail_fast;
    breaker_opens = ep.opens;
  }
