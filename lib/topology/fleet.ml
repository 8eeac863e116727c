open Dice_inet
open Dice_bgp
open Dice_core
module Net = Dice_sim.Network
module Store = Dice_checkpoint.Store
module Pool = Dice_exec.Pool
module Trace_gen = Dice_trace.Gen
module Spec = Topology.Spec

type member = {
  index : int;
  domain : Spec.domain;
  speaker : Speaker.instance;
  agent : Distributed.agent;
  feed_peer : Ipv4.t;
  neighbors : Spec.neighbor list;
  mutable inbox : (Ipv4.t * Msg.t) list;  (* next wave's arrivals, in order *)
}

type t = {
  spec : Spec.t;
  members : member array;
  by_name : (string, int) Hashtbl.t;
  (* a member's address on some link -> (member index, arrival session):
     the fleet's switching fabric for speaker output messages *)
  routes : (Ipv4.t, int * Ipv4.t) Hashtbl.t;
  store : Store.t;
  mutable snaps : Store.snapshot list;
  remote_agents : (string * Distributed.agent) list;  (* empty without rpc *)
}

let spec t = t.spec
let store t = t.store
let size t = Array.length t.members

let member t name =
  match Hashtbl.find_opt t.by_name name with
  | Some i -> t.members.(i)
  | None -> invalid_arg (Printf.sprintf "Fleet: unknown domain %s" name)

let speaker t name = (member t name).speaker
let agent t name = (member t name).agent
let agents t = Array.to_list t.members |> List.map (fun m -> m.agent)

let remote_agent t name = List.assoc_opt name t.remote_agents

let remote_agents t = t.remote_agents

let heartbeat_horizon = 3600.0

let realize ?(rpc = false) ?store:st (spec : Spec.t) =
  let store = match st with Some s -> s | None -> Store.create () in
  let members =
    Array.of_list
      (List.mapi
         (fun i (d : Spec.domain) ->
           let source =
             match d.config with
             | Some c -> Speaker.Config c
             | None -> Speaker.Intent (Spec.intent_of spec d.name)
           in
           let speaker = Speakers.create_exn d.speaker source in
           let agent =
             Distributed.agent ~name:d.name ~addr:(Spec.router_id spec d.name)
               ~explorer_addr:(Spec.feed_addr spec d.name)
               (Distributed.Local speaker)
           in
           { index = i; domain = d; speaker; agent;
             feed_peer = Spec.feed_addr spec d.name;
             neighbors = Spec.neighbors spec d.name; inbox = [] })
         spec.domains)
  in
  let by_name = Hashtbl.create (Array.length members) in
  Array.iter (fun m -> Hashtbl.add by_name m.domain.name m.index) members;
  let routes = Hashtbl.create (4 * Array.length members) in
  Array.iter
    (fun m ->
      List.iter
        (fun (n : Spec.neighbor) ->
          (* a message addressed to my [my_addr] is mine, arriving on the
             session my config knows as the neighbor's address *)
          Hashtbl.replace routes n.my_addr (m.index, n.peer_addr))
        m.neighbors)
    members;
  let remote_agents =
    if not rpc then []
    else begin
      let net = Net.create () in
      let client = Probe_rpc.client net ~name:"explorer" in
      Array.to_list members
      |> List.map (fun m ->
             let server = Distributed.serve net m.agent in
             Net.connect net (Probe_rpc.client_node client)
               (Probe_rpc.server_node server) ~latency:0.001;
             let ep =
               Probe_rpc.endpoint client ~server:(Probe_rpc.server_node server)
             in
             Probe_rpc.start_heartbeats ~until:heartbeat_horizon server
               ~to_:(Probe_rpc.client_node client) ~period:0.5
               ~incarnation:(fun () -> 0)
               ~state_version:(fun () -> Speaker.updates_processed m.speaker)
               ()
             |> ignore;
             let remote =
               Distributed.agent ~name:(m.domain.name ^ "_rpc")
                 ~addr:(Spec.router_id spec m.domain.name)
                 ~explorer_addr:m.feed_peer (Distributed.Remote ep)
             in
             (m.domain.name, remote))
    end
  in
  { spec; members; by_name; routes; store; snaps = []; remote_agents }

let establish t =
  Array.iter
    (fun m ->
      List.iter
        (fun (n : Spec.neighbor) -> Speaker.establish m.speaker ~peer:n.peer_addr)
        m.neighbors;
      Speaker.establish m.speaker ~peer:m.feed_peer)
    t.members

(* ------------------------------------------------------------------ *)
(* The update-stream drive loop                                        *)
(* ------------------------------------------------------------------ *)

type stats = {
  domains : int;
  fed : int;
  delivered : int;
  emitted : int;
  to_collector : int;
  dropped_down : int;
  skipped_feeds : int;
  probes : int;
  verdicts : int;
  rounds : int;
}

let live_names t =
  let live, _down = Panel.eligible (agents t) in
  let s = Hashtbl.create (List.length live) in
  List.iter (fun a -> Hashtbl.replace s (Distributed.agent_name a) ()) live;
  s

(* Synchronous waves: every live member with queued arrivals processes its
   whole batch on the worker pool (one worker per member, so a speaker is
   only ever touched by one domain at a time), then the emitted messages
   are routed — in deterministic member order — into the receivers'
   inboxes for the next wave. The wave's probes go out as one
   [Distributed.probe_all] batch on the pool after routing. BGP's loop
   detection makes the flood terminate; [max_rounds] bounds it anyway. *)
let run_waves ?(jobs = 1) ?(max_rounds = 64) ?(probe_every = 0) ?record t =
  let delivered = ref 0 and emitted = ref 0 and to_collector = ref 0 in
  let dropped_down = ref 0 and probes = ref 0 and verdicts = ref 0 in
  let rounds = ref 0 in
  let pending () = Array.exists (fun m -> m.inbox <> []) t.members in
  while pending () && !rounds < max_rounds do
    incr rounds;
    let live = live_names t in
    let work =
      Array.to_list t.members
      |> List.filter_map (fun m ->
             if m.inbox = [] then None
             else if not (Hashtbl.mem live m.domain.name) then begin
               (* a crashed domain can't stall the stream: its arrivals
                  are dropped, not waited on *)
               dropped_down := !dropped_down + List.length m.inbox;
               m.inbox <- [];
               None
             end
             else begin
               let batch = m.inbox in
               m.inbox <- [];
               Some (m, batch)
             end)
    in
    let outputs =
      Pool.map ~jobs
        (fun (m, batch) ->
          let outs =
            List.concat_map
              (fun (peer, msg) -> Speaker.feed m.speaker ~peer msg)
              batch
          in
          (m, List.length batch, outs))
        work
    in
    let next = Array.make (Array.length t.members) [] in
    let wave_probes = ref [] in
    List.iter
      (fun (m, n_in, outs) ->
        delivered := !delivered + n_in;
        List.iter
          (fun (dst, msg) ->
            incr emitted;
            match Hashtbl.find_opt t.routes dst with
            | None -> incr to_collector
            | Some (j, arrival) ->
              let target = t.members.(j) in
              if not (Hashtbl.mem live target.domain.name) then incr dropped_down
              else begin
                if probe_every > 0 && !emitted mod probe_every = 0 then
                  wave_probes := (target.agent, arrival, msg) :: !wave_probes;
                (match record with
                | Some log ->
                  List.iter
                    (fun (u : Msg.update) ->
                      List.iter
                        (fun p -> log := (m.domain.name, target.domain.name, p) :: !log)
                        u.nlri)
                    (match msg with Msg.Update u -> [ u ] | _ -> [])
                | None -> ());
                next.(j) <- (arrival, msg) :: next.(j)
              end)
          outs)
      outputs;
    (* no speaker moves until the next wave is fed, so the batch sees each
       target at the version it had when the message was routed *)
    let wave_probes = List.rev !wave_probes in
    probes := !probes + List.length wave_probes;
    List.iter
      (fun outcome -> verdicts := !verdicts + List.length (Distributed.verdicts outcome))
      (Distributed.probe_all ~jobs wave_probes);
    Array.iteri
      (fun j arrivals ->
        if arrivals <> [] then
          t.members.(j).inbox <- t.members.(j).inbox @ List.rev arrivals)
      next
  done;
  ( !delivered, !emitted, !to_collector, !dropped_down, !probes, !verdicts, !rounds )

let default_updates_per_domain = 64

let drive ?(jobs = 1) ?max_rounds ?probe_every ?(updates_per_domain = default_updates_per_domain)
    ?(seed = 7L) t =
  let live = live_names t in
  let fed = ref 0 and skipped_feeds = ref 0 in
  Array.iter
    (fun m ->
      let trace =
        Trace_gen.generate
          { Trace_gen.default_params with
            Trace_gen.seed = Int64.add seed (Int64.of_int m.index);
            n_prefixes = updates_per_domain;
            n_ases = 100;
            duration = 0.0 }
      in
      let msgs =
        Trace_gen.to_updates trace ~peer_as:Spec.feed_as ~next_hop:m.feed_peer
      in
      if Hashtbl.mem live m.domain.name then begin
        fed := !fed + List.length msgs;
        m.inbox <- m.inbox @ List.map (fun msg -> (m.feed_peer, msg)) msgs
      end
      else skipped_feeds := !skipped_feeds + List.length msgs)
    t.members;
  let delivered, emitted, to_collector, dropped_down, probes, verdicts, rounds =
    run_waves ~jobs ?max_rounds ?probe_every t
  in
  { domains = Array.length t.members; fed = !fed; delivered; emitted; to_collector;
    dropped_down; skipped_feeds = !skipped_feeds; probes; verdicts; rounds }

let originate ?(jobs = 1) ?max_rounds t ~domain:name prefix =
  let m = member t name in
  (* An empty AS path: the injection looks locally sourced, so it clears
     the origin's own loop detection, and once the origin prepends its AS
     on export the valley-free policies see it as self-originated. *)
  let msg =
    Msg.Update
      { withdrawn = [];
        attrs =
          [ Attr.Origin Attr.Igp; Attr.As_path []; Attr.Next_hop m.feed_peer ];
        nlri = [ prefix ] }
  in
  m.inbox <- m.inbox @ [ (m.feed_peer, msg) ];
  let log = ref [] in
  let _ = run_waves ~jobs ?max_rounds ~record:log t in
  List.rev !log

(* ------------------------------------------------------------------ *)
(* Memory accounting                                                   *)
(* ------------------------------------------------------------------ *)

let probe_prefix = Prefix.of_string "192.0.2.0/24"

let clone_mutated m =
  let c = Speaker.clone m.speaker in
  let msg =
    Msg.Update
      { withdrawn = [];
        attrs =
          [ Attr.Origin Attr.Igp;
            Attr.As_path [ Asn.Path.Seq [ Spec.feed_as; 65400 ] ];
            Attr.Next_hop m.feed_peer ];
        nlri = [ probe_prefix ] }
  in
  ignore (Speaker.feed c ~peer:m.feed_peer msg);
  c

let rib_sharing t ~domain:name =
  let m = member t name in
  let c = clone_mutated m in
  let live = Speaker.loc_rib m.speaker and cl = Speaker.loc_rib c in
  (Rib.Loc.shared_nodes live cl, Rib.Loc.trie_nodes cl)

let checkpoint_all ?(clones = 1) t =
  Array.iter
    (fun m ->
      t.snaps <- Store.capture t.store (Speaker.snapshot m.speaker) :: t.snaps;
      for _ = 1 to clones do
        t.snaps <-
          Store.capture t.store (Speaker.snapshot (clone_mutated m)) :: t.snaps
      done)
    t.members

let release_checkpoints t =
  List.iter Store.release t.snaps;
  t.snaps <- []
