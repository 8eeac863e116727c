module Rng = Dice_util.Rng

type node_id = int

type event =
  | Deliver of { src : node_id; dst : node_id; msg : bytes; seq : int }
      (* [seq] is the per-directed-link transmission number on faulty
         links, used to detect reordered arrivals; [-1] on reliable
         links and on re-deliveries after a resume (already counted). *)
  | Thunk of (unit -> unit)

type t = {
  mutable clock : float;
  queue : event Eventq.t;
  mutable names : string array;
  mutable handlers : handler array;
  mutable n : int;
  links : (node_id * node_id, float) Hashtbl.t;  (* key has lower id first *)
  faults : (node_id * node_id, Faults.t) Hashtbl.t;  (* same keying *)
  mutable fault_rng : Rng.t;
  node_faults : (node_id, Faults.node) Hashtbl.t;
  mutable crash_rng : Rng.t;  (* crash schedule stream, separate from link faults *)
  restart_hooks : (node_id, unit -> unit) Hashtbl.t;
  send_seq : (node_id * node_id, int) Hashtbl.t;  (* directed, faulty links only *)
  deliv_hi : (node_id * node_id, int) Hashtbl.t;  (* highest seq delivered *)
  paused : (node_id, (node_id * bytes) Queue.t) Hashtbl.t;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable reordered : int;
  mutable corrupted : int;
  mutable requeued : int;
  mutable crashes : int;
  mutable restarts : int;
  lock : Mutex.t;
}

and handler = t -> self:node_id -> from:node_id -> bytes -> unit

let no_handler : handler = fun _ ~self:_ ~from:_ _ -> ()

let default_fault_seed = 0x0D1CEL
let default_crash_seed = 0xC4A54EL

let create () =
  {
    clock = 0.0;
    queue = Eventq.create ();
    names = [||];
    handlers = [||];
    n = 0;
    links = Hashtbl.create 16;
    faults = Hashtbl.create 4;
    fault_rng = Rng.create default_fault_seed;
    node_faults = Hashtbl.create 4;
    crash_rng = Rng.create default_crash_seed;
    restart_hooks = Hashtbl.create 4;
    send_seq = Hashtbl.create 4;
    deliv_hi = Hashtbl.create 4;
    paused = Hashtbl.create 4;
    sent = 0;
    delivered = 0;
    dropped = 0;
    duplicated = 0;
    reordered = 0;
    corrupted = 0;
    requeued = 0;
    crashes = 0;
    restarts = 0;
    lock = Mutex.create ();
  }

let exclusively t f = Mutex.protect t.lock f

let now t = t.clock

let add_node t ~name ~handler =
  let id = t.n in
  if id >= Array.length t.names then begin
    let cap = max 8 (2 * Array.length t.names) in
    let nn = Array.make cap "" and nh = Array.make cap no_handler in
    Array.blit t.names 0 nn 0 t.n;
    Array.blit t.handlers 0 nh 0 t.n;
    t.names <- nn;
    t.handlers <- nh
  end;
  t.names.(id) <- name;
  t.handlers.(id) <- handler;
  t.n <- t.n + 1;
  id

let check_node t id fn =
  if id < 0 || id >= t.n then invalid_arg (Printf.sprintf "Network.%s: unknown node %d" fn id)

let set_handler t id h =
  check_node t id "set_handler";
  t.handlers.(id) <- h

let node_name t id =
  check_node t id "node_name";
  t.names.(id)

let node_count t = t.n

let link_key a b = if a <= b then (a, b) else (b, a)

(* [v < 0.0] alone lets NaN through (every comparison with NaN is
   false), silently scheduling events in the virtual past — reject it
   explicitly. *)
let check_duration v fn what =
  if not (v >= 0.0 && v < Float.infinity) then
    invalid_arg (Printf.sprintf "Network.%s: %s must be finite and non-negative" fn what)

let connect t a b ~latency =
  check_node t a "connect";
  check_node t b "connect";
  if a = b then invalid_arg "Network.connect: self-link";
  check_duration latency "connect" "latency";
  Hashtbl.replace t.links (link_key a b) latency

let disconnect t a b = Hashtbl.remove t.links (link_key a b)

let connected t a b = Hashtbl.mem t.links (link_key a b)

let neighbors t id =
  check_node t id "neighbors";
  Hashtbl.fold
    (fun (a, b) _ acc ->
      if a = id then b :: acc else if b = id then a :: acc else acc)
    t.links []
  |> List.sort compare

(* ---- fault injection ---- *)

let set_fault_seed t seed = t.fault_rng <- Rng.create seed

let set_faults t a b f =
  check_node t a "set_faults";
  check_node t b "set_faults";
  Faults.validate f;
  if Faults.is_none f then Hashtbl.remove t.faults (link_key a b)
  else Hashtbl.replace t.faults (link_key a b) f

let clear_faults t a b = Hashtbl.remove t.faults (link_key a b)

(* ---- node crash faults ---- *)

let set_crash_seed t seed = t.crash_rng <- Rng.create seed

let set_node_faults t id nf =
  check_node t id "set_node_faults";
  Faults.validate_node nf;
  if Faults.node_is_none nf then Hashtbl.remove t.node_faults id
  else Hashtbl.replace t.node_faults id nf

let node_faults t id = Hashtbl.find_opt t.node_faults id

let set_restart_hook t id hook =
  check_node t id "set_restart_hook";
  Hashtbl.replace t.restart_hooks id hook

let messages_dropped t = t.dropped
let messages_duplicated t = t.duplicated
let messages_reordered t = t.reordered
let messages_corrupted t = t.corrupted
let messages_requeued t = t.requeued
let node_crashes t = t.crashes
let node_restarts t = t.restarts

let paused t id =
  check_node t id "paused";
  Hashtbl.mem t.paused id

let queued t id =
  check_node t id "queued";
  match Hashtbl.find_opt t.paused id with
  | None -> 0
  | Some q -> Queue.length q

let pause_node t id =
  check_node t id "pause_node";
  if not (Hashtbl.mem t.paused id) then Hashtbl.add t.paused id (Queue.create ())

let resume_node t id =
  check_node t id "resume_node";
  match Hashtbl.find_opt t.paused id with
  | None -> ()
  | Some q ->
    Hashtbl.remove t.paused id;
    t.restarts <- t.restarts + 1;
    t.requeued <- t.requeued + Queue.length q;
    (* re-enqueue at the current instant, in arrival order; Eventq's
       FIFO tie-breaking preserves that order against anything else
       scheduled at this time *)
    Queue.iter
      (fun (src, msg) ->
        Eventq.push t.queue ~time:t.clock (Deliver { src; dst = id; msg; seq = -1 }))
      q;
    (* the restart hook runs after the node is live again but before
       any redelivered frame is processed — where an agent rebuilds its
       state and re-announces liveness *)
    match Hashtbl.find_opt t.restart_hooks id with
    | Some hook -> hook ()
    | None -> ()

let flip_random_bit rng msg =
  let b = Bytes.copy msg in
  let i = Rng.int rng (Bytes.length b) in
  let bit = Rng.int rng 8 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
  b

let next_seq t ~src ~dst =
  let key = (src, dst) in
  let s = Option.value (Hashtbl.find_opt t.send_seq key) ~default:0 in
  Hashtbl.replace t.send_seq key (s + 1);
  s

let send t ~src ~dst msg =
  check_node t src "send";
  check_node t dst "send";
  if Hashtbl.mem t.paused src then
    invalid_arg (Printf.sprintf "Network.send: %s is paused" t.names.(src));
  match Hashtbl.find_opt t.links (link_key src dst) with
  | None ->
    invalid_arg
      (Printf.sprintf "Network.send: %s and %s are not connected" t.names.(src) t.names.(dst))
  | Some latency -> begin
    t.sent <- t.sent + 1;
    match Hashtbl.find_opt t.faults (link_key src dst) with
    | None -> Eventq.push t.queue ~time:(t.clock +. latency) (Deliver { src; dst; msg; seq = -1 })
    | Some f ->
      let rng = t.fault_rng in
      if f.Faults.drop > 0.0 && Rng.chance rng f.Faults.drop then
        t.dropped <- t.dropped + 1
      else begin
        let msg =
          if f.Faults.corrupt > 0.0 && Bytes.length msg > 0 && Rng.chance rng f.Faults.corrupt
          then begin
            t.corrupted <- t.corrupted + 1;
            flip_random_bit rng msg
          end
          else msg
        in
        (* each copy draws its own hold, so frames (and duplicates)
           overtake each other within the reorder window *)
        let hold () =
          (if f.Faults.jitter > 0.0 then Rng.float rng f.Faults.jitter else 0.0)
          +.
          if f.Faults.reorder > 0 then
            float_of_int (Rng.int rng (f.Faults.reorder + 1)) *. latency
          else 0.0
        in
        let seq = next_seq t ~src ~dst in
        let deliver () =
          Eventq.push t.queue ~time:(t.clock +. latency +. hold ()) (Deliver { src; dst; msg; seq })
        in
        deliver ();
        if f.Faults.duplicate > 0.0 && Rng.chance rng f.Faults.duplicate then begin
          t.duplicated <- t.duplicated + 1;
          deliver ()
        end
      end
  end

let schedule t ~delay thunk =
  check_duration delay "schedule" "delay";
  Eventq.push t.queue ~time:(t.clock +. delay) (Thunk thunk)

let schedule_at t ~time thunk =
  if Float.is_nan time then invalid_arg "Network.schedule_at: NaN time";
  if time < t.clock then invalid_arg "Network.schedule_at: time in the past";
  Eventq.push t.queue ~time (Thunk thunk)

let dispatch t = function
  | Deliver { src; dst; msg; seq } -> begin
    if seq >= 0 then begin
      (* arrival-order accounting happens when the frame reaches the
         node, whether or not the node is awake to process it *)
      let key = (src, dst) in
      let hi = Option.value (Hashtbl.find_opt t.deliv_hi key) ~default:(-1) in
      if seq < hi then t.reordered <- t.reordered + 1
      else Hashtbl.replace t.deliv_hi key seq
    end;
    (* crash schedule: a crash-prone running node may crash just before
       processing this frame — the frame is buffered, not lost, and the
       node restarts automatically after its downtime *)
    (match Hashtbl.find_opt t.node_faults dst with
    | Some nf
      when (not (Hashtbl.mem t.paused dst))
           && nf.Faults.crash > 0.0
           && Rng.chance t.crash_rng nf.Faults.crash ->
      t.crashes <- t.crashes + 1;
      pause_node t dst;
      Eventq.push t.queue ~time:(t.clock +. nf.Faults.downtime)
        (Thunk (fun () -> resume_node t dst))
    | Some _ | None -> ());
    match Hashtbl.find_opt t.paused dst with
    | Some q -> Queue.push (src, msg) q
    | None ->
      t.delivered <- t.delivered + 1;
      t.handlers.(dst) t ~self:dst ~from:src msg
  end
  | Thunk f -> f ()

let step t =
  match Eventq.pop t.queue with
  | None -> false
  | Some (time, ev) ->
    t.clock <- max t.clock time;
    dispatch t ev;
    true

let run ?until ?max_events t =
  let fired = ref 0 in
  let continue = ref true in
  while !continue do
    let budget_ok =
      match max_events with
      | Some m -> !fired < m
      | None -> true
    in
    if not budget_ok then continue := false
    else begin
      match Eventq.peek_time t.queue with
      | None -> continue := false
      | Some time -> begin
        match until with
        | Some u when time > u ->
          t.clock <- max t.clock u;
          continue := false
        | Some _ | None ->
          ignore (step t);
          incr fired
      end
    end
  done;
  !fired

let pending t = Eventq.size t.queue

let messages_sent t = t.sent
let messages_delivered t = t.delivered
