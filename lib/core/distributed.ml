open Dice_inet
open Dice_bgp

type verdict = Probe_wire.verdict = {
  accepted : bool;
  installed : bool;
  origin_conflict : bool;
  covers_foreign : int;
  would_propagate : int;
}

type outcome = Probe_rpc.result =
  | Verdicts of (Prefix.t * verdict) list
  | Declined of string
  | Timeout

let verdicts = function
  | Verdicts vs -> vs
  | Declined _ | Timeout -> []

type transport =
  | Local of Speaker.instance
  | Remote of Probe_rpc.endpoint

(* Verdicts are memoized per agent, keyed on the canonicalized probe —
   byte-for-byte the body of the wire request frame (two structurally
   different ASTs that encode identically are the same probe on the wire
   and in the cache). Entries are stamped with the live speaker's
   [updates_processed] version; when the remote node moves on, the next
   probe presents a newer version and the stale verdict evicts itself
   (see {!Dice_exec.Vcache}). The cache lives where the version is
   known: beside the live speaker. A [Local] agent consults it directly;
   a [Remote] agent's probes cross the wire and hit the same cache on
   the serving side. *)
type agent = {
  name : string;
  addr : Ipv4.t;
  explorer_addr : Ipv4.t;
  (* mutable so crash recovery can swap a rebuilt speaker in place — the
     agent's identity (name, addr, caches, counters) survives the
     restart, exactly like a rebooted router keeps its address *)
  mutable transport : transport;
  health : Health.t;
  lock : Mutex.t;  (* guards [cloned_version]; probes run on any worker domain *)
  mutable cloned_version : int option;  (* live version last cloned against *)
  probes : int Atomic.t;
  checkpoints : int Atomic.t;
  clones : int Atomic.t;
  declines : int Atomic.t;
  timeouts : int Atomic.t;
  vcache : (bytes, (Prefix.t * verdict) list) Dice_exec.Vcache.t;
}

let agent ~name ~addr ~explorer_addr transport =
  let health =
    match transport with
    (* a Remote agent's liveness is the endpoint's: one monitor, fed by
       the RPC layer, shared here — never double-counted *)
    | Remote ep -> Probe_rpc.endpoint_health ep
    | Local _ -> Health.create ~name ()
  in
  {
    name;
    addr;
    explorer_addr;
    transport;
    health;
    lock = Mutex.create ();
    cloned_version = None;
    probes = Atomic.make 0;
    checkpoints = Atomic.make 0;
    clones = Atomic.make 0;
    declines = Atomic.make 0;
    timeouts = Atomic.make 0;
    vcache = Dice_exec.Vcache.create ();
  }

let agent_name t = t.name
let agent_addr t = t.addr
let agent_explorer_addr t = t.explorer_addr
let agent_transport t = t.transport
let agent_health t = t.health

(* The remote node's explorer clone of its own state — taken by the
   agent, never shipped to the exploring node. The clone shares all
   persistent route storage with the live speaker (Prefix_trie
   structural sharing), so taking one is O(#peers): no serialization,
   no parse, per-clone memory is the probe's write set. The mutex
   covers the read of the live speaker's mutable cells; [checkpoints]
   keeps its historical meaning — distinct live-state versions cloned
   against — so one burst of probes against an unchanged speaker still
   counts as one logical checkpoint. Returns the live version the clone
   was taken at with the clone. *)
let take_clone t live =
  Mutex.protect t.lock (fun () ->
      let version = Speaker.updates_processed live in
      (match t.cloned_version with
      | Some v when v = version -> ()
      | Some _ | None ->
        t.cloned_version <- Some version;
        Atomic.incr t.checkpoints);
      Atomic.incr t.clones;
      (version, Speaker.clone live))

(* The pre-probe Loc-RIB, shared by the probes of one group (one agent
   within one [probe_all] call). BIRD and XORP hand over their stored
   trie, but Quagga folds its whole hash table into one, so a group
   takes it once, from the first uncached probe's clone before that
   clone is fed, and reuses it while later clones are taken of the same
   live speaker at the same version (a crash restart swaps the
   speaker). It is never taken from the live speaker: folding a mutable
   table flips its traversal state while other workers may be cloning
   it. *)
type view = (Speaker.instance * int * Rib.Loc.t) option ref

let pre_loc_rib (view : view) live version clone =
  match !view with
  | Some (l, v, rib) when l == live && v = version -> rib
  | Some _ | None ->
    let rib = Speaker.loc_rib clone in
    view := Some (live, version, rib);
    rib

let in_whitelist anycast prefix = List.exists (fun a -> Prefix.subsumes a prefix) anycast

let probe_uncached t live view ~from (u : Msg.update) msg =
  let version, clone = take_clone t live in
  let pre = pre_loc_rib view live version clone in
  let anycast = (Speaker.config live).Config_types.anycast in
  let announced_origin =
    match Route.of_attrs u.Msg.attrs with
    | Ok route -> Route.origin_as route
    | Error _ -> None
  in
  (* process over the isolated clone; outputs are never delivered *)
  let outs = Speaker.feed clone ~peer:from msg in
  List.map
    (fun prefix ->
      let accepted = Speaker.learned_from clone ~peer:from prefix in
      let installed =
        match Speaker.best_route clone prefix with
        | Some e -> e.Rib.Loc.src.Route.peer_addr = from
        | None -> false
      in
      let foreign_origin (e : Rib.Loc.entry) =
        match (Route.origin_as e.Rib.Loc.route, announced_origin) with
        | Some old_as, Some new_as -> old_as <> new_as
        | Some _, None -> true
        | None, _ -> false
      in
      let whitelisted = in_whitelist anycast prefix in
      let origin_conflict =
        accepted && (not whitelisted)
        && List.exists (fun (_, e) -> foreign_origin e) (Rib.Loc.covering prefix pre)
      in
      (* the announcement claims a super-block of space the remote node
         routes to other origins: a coverage leak (traffic for the
         uncovered gaps inside the block would be diverted) *)
      let covers_foreign =
        if accepted && not whitelisted then
          List.length
            (List.filter
               (fun ((q, e) : Prefix.t * Rib.Loc.entry) ->
                 (not (Prefix.equal q prefix)) && foreign_origin e)
               (Rib.Loc.covered prefix pre))
        else 0
      in
      let would_propagate =
        List.length
          (List.filter
             (fun (dst, out) ->
               match out with
               | Msg.Update u' -> dst <> from && List.mem prefix u'.Msg.nlri
               | Msg.Open _ | Msg.Notification _ | Msg.Keepalive -> false)
             outs)
      in
      (prefix, { accepted; installed; origin_conflict; covers_foreign; would_propagate }))
    u.Msg.nlri

(* Only announcements are probeable: anything else has no per-prefix
   verdict to give. Declining locally keeps [Local] and [Remote]
   transports equivalent — a server would answer the same decline frame,
   so the client never puts it on the wire. *)
let declinable msg =
  match msg with
  | Msg.Update u when u.Msg.nlri <> [] -> None
  | Msg.Update _ -> Some "message announces no prefixes"
  | Msg.Open _ | Msg.Notification _ | Msg.Keepalive -> Some "not an announcement"

let probe_local t live view ~from u msg =
  let version = Speaker.updates_processed live in
  let key = Probe_wire.canonical_request ~from msg in
  match Dice_exec.Vcache.find t.vcache ~version key with
  | Some vs -> Verdicts vs
  | None ->
    let vs = probe_uncached t live view ~from u msg in
    Dice_exec.Vcache.store t.vcache ~version key vs;
    Verdicts vs

(* Fold an outcome into the per-agent counters. Counting here — on the
   probing side, after the answer is known — is what makes the counters
   transport-uniform: a [Local] decline and a [Remote] decline frame both
   land in [declines], and [Timeout] (which only a wire can produce, but
   is counted the same way) in [timeouts]. *)
let count t outcome =
  (match outcome with
  | Declined _ -> Atomic.incr t.declines
  | Timeout -> Atomic.incr t.timeouts
  | Verdicts _ -> ());
  outcome

(* One probe of a group, against the group's shared view. *)
let probe_in view t ~from msg =
  match declinable msg with
  | Some reason -> count t (Declined reason)
  | None -> begin
    Atomic.incr t.probes;
    match (t.transport, msg) with
    | Local live, Msg.Update u -> count t (probe_local t live view ~from u msg)
    | Remote ep, _ -> count t (Probe_rpc.call ep (Probe_wire.canonical_request ~from msg))
    | Local _, (Msg.Open _ | Msg.Notification _ | Msg.Keepalive) ->
      (* unreachable: [declinable] admits only announcements *)
      count t (Declined "not an announcement")
  end

(* a group of one *)
let probe t ~from msg = probe_in (ref None) t ~from msg

let serve net t =
  match t.transport with
  | Remote _ -> invalid_arg "Distributed.serve: agent is already remote"
  | Local _ ->
    Probe_rpc.serve net ~name:t.name ~answer:(fun ~from msg ->
        match probe t ~from msg with
        | Verdicts vs -> Probe_rpc.Reply vs
        | Declined reason -> Probe_rpc.Refuse reason
        | Timeout -> assert false (* a [Local] probe cannot time out *))

(* [group key items]: the items that share a key (physically), keys in
   order of first appearance, items in their order within each group. *)
let group key items =
  List.fold_left
    (fun groups item ->
      let k = key item in
      match List.assq_opt k groups with
      | Some cell ->
        cell := item :: !cell;
        groups
      | None -> (k, ref [ item ]) :: groups)
    [] items
  |> List.rev_map (fun (k, cell) -> (k, List.rev !cell))

(* [probe_all] runs local probes on the worker pool, one item per agent:
   an agent's requests run in order on one worker and share its Loc-RIB
   view. Remote probes stay on the calling domain and pipeline over each
   endpoint's in-flight window instead (the simulated network is
   single-threaded). Results keep request order whatever the schedule. *)
let probe_all ?(jobs = 1) reqs =
  let results = Array.make (List.length reqs) (Declined "") in
  let remote, local =
    List.partition_map
      (fun (i, (a, from, msg)) ->
        match a.transport with
        | Remote ep -> Either.Left (i, a, ep, from, msg)
        | Local _ -> Either.Right (i, a, from, msg))
      (List.mapi (fun i r -> (i, r)) reqs)
  in
  (* remote: short-circuit declines, pipeline the wire-bound requests
     of each endpoint *)
  let wire =
    List.filter_map
      (fun (i, a, ep, from, msg) ->
        match declinable msg with
        | Some reason ->
          results.(i) <- count a (Declined reason);
          None
        | None ->
          Atomic.incr a.probes;
          Some (i, a, ep, Probe_wire.canonical_request ~from msg))
      remote
  in
  List.iter
    (fun (ep, items) ->
      let answers = Probe_rpc.call_batch ep (List.map (fun (_, _, _, c) -> c) items) in
      List.iter2 (fun (i, a, _, _) r -> results.(i) <- count a r) items answers)
    (group (fun (_, _, ep, _) -> ep) wire);
  Dice_exec.Pool.map ~jobs:(max 1 jobs)
    (fun (a, items) ->
      let view = ref None in
      List.map (fun (i, _, from, msg) -> (i, probe_in view a ~from msg)) items)
    (group (fun (_, a, _, _) -> a) local)
  |> List.iter (List.iter (fun (i, r) -> results.(i) <- r));
  Array.to_list results

type stats = {
  probes : int;
  checkpoints : int;
  clones : int;
  vcache_hits : int;
  vcache_hit_rate : float;
  timeouts : int;
  declines : int;
  retries : int;
}

let stats t =
  let retries =
    match t.transport with
    | Local _ -> 0
    | Remote ep -> (Probe_rpc.stats ep).Probe_rpc.retries
  in
  {
    probes = Atomic.get t.probes;
    checkpoints = Atomic.get t.checkpoints;
    clones = Atomic.get t.clones;
    vcache_hits = Dice_exec.Vcache.hits t.vcache;
    vcache_hit_rate = Dice_exec.Vcache.hit_rate t.vcache;
    timeouts = Atomic.get t.timeouts;
    declines = Atomic.get t.declines;
    retries;
  }

(* ------------------------------------------------------------------ *)
(* Crash recovery                                                      *)
(* ------------------------------------------------------------------ *)

module Recovery = struct
  type harness = {
    agent : agent;
    journal_cap : int;
    lock : Mutex.t;
    mutable image : bytes;  (* last snapshot of the live speaker *)
    mutable rev_journal : (Ipv4.t * Msg.t) list;  (* updates since, newest first *)
    mutable journal_len : int;
    mutable incarnation : int;
    mutable restarts : int;
    mutable snapshots : int;
  }

  let live_of agent what =
    match agent.transport with
    | Local sp -> sp
    | Remote _ ->
      invalid_arg
        (Printf.sprintf "Distributed.Recovery.%s: %s is not a Local agent" what
           agent.name)

  let attach ?(journal_cap = 64) agent =
    if journal_cap < 1 then
      invalid_arg "Distributed.Recovery.attach: journal_cap must be >= 1";
    let sp = live_of agent "attach" in
    {
      agent;
      journal_cap;
      lock = Mutex.create ();
      image = Speaker.snapshot sp;
      rev_journal = [];
      journal_len = 0;
      incarnation = 0;
      restarts = 0;
      snapshots = 1;
    }

  (* Feed the live speaker and journal the update. When the journal
     hits its cap, fold it into a fresh snapshot instead of growing —
     recovery therefore always replays at most [journal_cap] updates,
     and is always exact: snapshot + journal IS the live state. *)
  let feed t ~peer msg =
    let sp = live_of t.agent "feed" in
    let outs = Speaker.feed sp ~peer msg in
    Mutex.protect t.lock (fun () ->
        if t.journal_len + 1 >= t.journal_cap then begin
          t.image <- Speaker.snapshot sp;
          t.snapshots <- t.snapshots + 1;
          t.rev_journal <- [];
          t.journal_len <- 0
        end
        else begin
          t.rev_journal <- (peer, msg) :: t.rev_journal;
          t.journal_len <- t.journal_len + 1
        end);
    outs

  let crash_restart t =
    let old = live_of t.agent "crash_restart" in
    let image, journal =
      Mutex.protect t.lock (fun () -> (t.image, List.rev t.rev_journal))
    in
    (* rebuild: restore the last snapshot, replay the bounded journal —
       the rebuilt speaker is state-identical to the one that crashed *)
    let sp = Speaker.restore_like old (Speaker.realization old) image in
    List.iter (fun (peer, msg) -> ignore (Speaker.feed sp ~peer msg)) journal;
    t.agent.transport <- Local sp;
    (* the recorded clone version belonged to the dead speaker *)
    Mutex.protect t.agent.lock (fun () -> t.agent.cloned_version <- None);
    (* a rebuilt speaker can present an [updates_processed] counter that
       collides with a pre-crash version while holding different
       history — epoch-invalidate rather than trust the version stamp *)
    Dice_exec.Vcache.invalidate t.agent.vcache;
    Mutex.protect t.lock (fun () ->
        t.incarnation <- t.incarnation + 1;
        t.restarts <- t.restarts + 1)

  let incarnation t = Mutex.protect t.lock (fun () -> t.incarnation)
  let restarts t = Mutex.protect t.lock (fun () -> t.restarts)
  let snapshots t = Mutex.protect t.lock (fun () -> t.snapshots)

  let state_version t =
    match t.agent.transport with
    | Local sp -> Speaker.updates_processed sp
    | Remote _ -> 0
end

let checker ~jobs ~agents =
  let agents_of addr = List.filter (fun a -> a.addr = addr) agents in
  let check (cctx : Checker.context) (outcome : Speaker.import_outcome) =
    if not outcome.Speaker.accepted then []
    else begin
      (* Collect every (agent, message) pair first — probes are
         independent request/verdict exchanges, so they shard across
         worker domains (local transports) or pipeline over the wire
         (remote transports); [probe_all] keeps verdict order equal to
         request order, which keeps the merged finding list
         deterministic whatever the schedule. *)
      let requests =
        List.concat_map
          (fun (dst, out) ->
            match out with
            | Msg.Update _ -> List.map (fun a -> (a, (out : Msg.t))) (agents_of dst)
            | Msg.Open _ | Msg.Notification _ | Msg.Keepalive -> [])
          outcome.Speaker.outputs
      in
      let answers =
        probe_all ~jobs
          (List.map (fun (a, msg) -> (a, a.explorer_addr, msg)) requests)
      in
      List.concat
        (List.map2
           (fun (a, _msg) answer ->
             List.concat_map
               (fun (remote_prefix, v) ->
                 let base_details =
                   [ ("remote-node", a.name);
                     ("remote-prefix", Prefix.to_string remote_prefix);
                     ("local-prefix", Prefix.to_string outcome.Speaker.prefix);
                     ("via-peer", Ipv4.to_string cctx.Checker.peer);
                   ]
                   @ Verdict.to_details ~prefix:"remote-" v
                 in
                 let coverage =
                   if v.covers_foreign > 0 then
                     [ { Checker.checker = "remote-coverage-leak";
                         severity = Checker.Critical;
                         prefix = remote_prefix;
                         description =
                           Printf.sprintf
                             "explored announcement covers %d remote route(s) with other origins"
                             v.covers_foreign;
                         details = base_details;
                       } ]
                   else []
                 in
                 let conflicts =
                   if v.origin_conflict then
                     [ { Checker.checker = "remote-origin-conflict";
                         severity = Checker.Critical;
                         prefix = remote_prefix;
                         description =
                           "explored announcement overrides origins at a remote node";
                         details = base_details;
                       } ]
                   else []
                 in
                 let propagation =
                   if v.accepted && v.would_propagate > 0 then
                     [ { Checker.checker = "remote-propagation";
                         severity = Checker.Warning;
                         prefix = remote_prefix;
                         description =
                           "remote node would re-advertise the exploratory route";
                         details = base_details;
                       } ]
                   else []
                 in
                 conflicts @ coverage @ propagation)
               (* an unreachable or declining agent contributes no
                  findings — a timed-out probe degrades the check, it
                  never aborts the exploration *)
               (verdicts answer))
           requests answers)
    end
  in
  { Checker.name = "distributed"; check }
