(* panel-remote: federated, heterogeneous probing. BIRD, Quagga and XORP
   members hold the same private table, each behind a probe RPC server on
   one simulated network; a single client votes every exchange across the
   panel, one exchange at a time. One op is one exchange. *)

open Dice_inet
open Dice_bgp
open Dice_core
open Common
module Gen = Dice_trace.Gen
module Network = Dice_sim.Network
module Rng = Dice_util.Rng

let table_routes = 2_000
let tail_events = 2_000
let hot_set = 64
let fresh_pool = 512
let write_every = 4
let trigger_every = 16  (* among the fresh exchanges *)
let replay_every = 32
let link_latency = 0.001
let members = Speakers.names

let explorer_side = Ipv4.of_string "10.0.2.1"
let member_addr = Ipv4.of_string "10.0.2.2"
let collector = Ipv4.of_string "10.0.3.2"
let collector_as = 64701
let provider_as = Dice_topology.Threerouter.provider_as

let config =
  Config_parser.parse
    (Printf.sprintf
       "router id 10.0.2.2; local as 64700;\n\
        protocol bgp provider { neighbor 10.0.2.1 as %d; import all; export none; }\n\
        protocol bgp collector { neighbor 10.0.3.2 as %d; import all; export none; }"
       provider_as collector_as)

let update ?med ?(communities = []) ~as_path ~next_hop prefix =
  Msg.Update
    { Msg.withdrawn = [];
      attrs =
        Route.to_attrs
          (Route.make ~origin:Attr.Igp ~med ~communities
             ~as_path:[ Asn.Path.Seq as_path ]
             ~next_hop ());
      nlri = [ prefix ] }

(* The seeded tie-break: the incumbent's lower next hop keeps it installed
   under XORP's IGP-cost step, while BIRD and Quagga fall through to peer
   identity — a divergence with XORP as the lone outlier. *)
let tie_prefix = Prefix.of_string "203.0.113.0/24"

let incumbent =
  update ~as_path:[ collector_as; 64512 ] ~next_hop:(Ipv4.of_string "10.0.0.1") tie_prefix

let trigger =
  update ~med:50 ~communities:[ Community.make 64510 77 ] ~as_path:[ provider_as; 64512 ]
    ~next_hop:explorer_side tie_prefix

let from_explorer rng prefix =
  update ~as_path:[ provider_as; 64_900 + Rng.int rng 90 ] ~next_hop:explorer_side prefix

type state = {
  speakers : (string * Speaker.instance) list;
  locals : Distributed.agent list;  (** the serving side: speakers and verdict caches *)
  remotes : Distributed.agent list;  (** the client's view, over the wire *)
  shadows : Distributed.agent list;  (** Local agents over the same speakers, for replays *)
  net : Network.t;
  endpoints : Probe_rpc.endpoint list;
  table : Prefix.t array;
  tail : Msg.t array;
}

let build seed () =
  let trace =
    Gen.generate
      { Gen.default_params with
        Gen.seed = Int64.of_int seed;
        n_prefixes = table_routes;
        collector_as;
        duration = 900.0;
        update_rate = float_of_int tail_events /. 900.0 }
  in
  let table = incumbent :: Gen.to_updates trace ~peer_as:collector_as ~next_hop:collector in
  let speakers =
    List.map
      (fun impl ->
        let sp = Speakers.create_exn impl (Speaker.Config config) in
        Speaker.establish sp ~peer:explorer_side;
        Speaker.establish sp ~peer:collector;
        List.iter (fun m -> ignore (Speaker.feed sp ~peer:collector m)) table;
        (impl, sp))
      members
  in
  let agent (impl, sp) =
    Distributed.agent ~name:impl ~addr:member_addr ~explorer_addr:explorer_side
      (Distributed.Local sp)
  in
  let locals = List.map agent speakers in
  let net = Network.create () in
  let client = Probe_rpc.client net ~name:"explorer" in
  let endpoints =
    List.map
      (fun a ->
        let server = Probe_rpc.server_node (Distributed.serve net a) in
        Network.connect net (Probe_rpc.client_node client) server ~latency:link_latency;
        Probe_rpc.endpoint client ~server)
      locals
  in
  let remotes =
    List.map2
      (fun impl ep ->
        Distributed.agent ~name:impl ~addr:member_addr ~explorer_addr:explorer_side
          (Distributed.Remote ep))
      members endpoints
  in
  { speakers; locals; remotes; shadows = List.map agent speakers; net; endpoints;
    table = Array.map (fun (e : Gen.entry) -> e.Gen.prefix) trace.Gen.dump;
    tail = Array.map (Gen.event_update ~entry_next_hop:collector) trace.Gen.events }

(* The exchange schedule: even slots draw from the hot set, odd slots walk
   a pool of announcements over table space, every [trigger_every]-th of
   them the tie-break trigger. A pool entry recurs only after a hundred
   writes have evicted its verdicts, so it costs what a new announcement
   would; and the verdict caches, which keep a stale entry until its key
   recurs, stay the pool's size instead of growing with the run. *)
let exchanges seed st =
  let rng = Rng.create (Int64.of_int (seed + 7_919)) in
  let announcements n =
    Array.init n (fun _ -> from_explorer rng st.table.(Rng.int rng (Array.length st.table)))
  in
  let hot = announcements hot_set and pool = announcements fresh_pool in
  let fresh = ref 0 in
  fun i ->
    if i mod 2 = 0 then (false, hot.(Rng.int rng hot_set))
    else begin
      incr fresh;
      if !fresh mod trigger_every = 0 then (true, trigger)
      else (false, pool.(!fresh mod fresh_pool))
    end

let signatures ds =
  List.map (fun (d : Panel.divergence) -> (Panel.signature d, d.Panel.answers)) ds

let names_xorp (d : Panel.divergence) =
  Prefix.equal d.Panel.prefix tie_prefix && d.Panel.outliers = [ "xorp" ] && d.Panel.tie_break_only

let answered (d : Panel.divergence) = List.for_all (fun (_, v) -> v <> None) d.Panel.answers

let vote tr st msg =
  span tr "panel.probe" (fun () -> Panel.probe ~jobs:1 ~agents:st.remotes [ (explorer_side, msg) ])

let run ~seed ~seconds ~trace:tr =
  let st, setup_s = setup (build seed) in
  let next = exchanges seed st in
  let cursor = ref 0 and writes = ref [] in
  (* one write: the next tail update, fed to every member *)
  let write () =
    let msg = st.tail.(!cursor mod Array.length st.tail) in
    incr cursor;
    let feed (impl, sp) =
      span tr ("speaker.feed." ^ impl) (fun () -> ignore (Speaker.feed sp ~peer:collector msg))
    in
    writes := snd (timed (fun () -> List.iter feed st.speakers)) :: !writes
  in
  let exchange i =
    if i mod write_every = 0 then write ();
    let is_trigger, msg = next i in
    let ds, dt = timed (fun () -> vote tr st msg) in
    (is_trigger, msg, ds, dt)
  in
  for i = 1 to 200 do ignore (exchange (-i)) done;
  writes := [];
  let stats0 = List.map Distributed.stats st.locals in
  let delivered0 = Network.messages_delivered st.net in
  let latencies = ref [] and failed = ref 0 and divergences = ref 0 in
  let tie_ok = ref true and replay_ok = ref true and all_answered = ref true in
  let clock = start () in
  let n = ref 0 in
  while elapsed clock < seconds do
    incr n;
    Option.iter (fun t -> Perfbench.Btrace.op t !n) tr;
    let is_trigger, msg, ds, dt = exchange !n in
    latencies := dt :: !latencies;
    excluded clock (fun () ->
        divergences := !divergences + List.length ds;
        let tie = (not is_trigger) || List.exists names_xorp ds
        and answers = List.for_all answered ds
        and replayed =
          !n mod replay_every <> 0
          || signatures (Panel.probe ~jobs:1 ~agents:st.shadows [ (explorer_side, msg) ])
             = signatures ds
        in
        if not tie then tie_ok := false;
        if not answers then all_answered := false;
        if not replayed then replay_ok := false;
        if not (tie && answers && replayed) then incr failed)
  done;
  let elapsed_s = elapsed clock in
  Option.iter (fun t -> Perfbench.Btrace.op t 0) tr;
  let ops = !n and latencies = Array.of_list (List.rev !latencies) in
  let members_n = List.length st.speakers in
  (* the median write, as on explore-live: a mean would charge the members
     for collecting the probes' garbage *)
  let live_updates_per_s =
    float_of_int members_n /. median (Array.of_list !writes)
  in
  let ops_per_s = float_of_int ops /. elapsed_s in
  let metrics =
    match tr with
    | None -> end_to_end ~ops ~elapsed_s ~latencies ~live_updates_per_s ~setup_s
    | Some t ->
      let stats = List.map Distributed.stats st.locals
      and rpc = List.map Probe_rpc.stats st.endpoints in
      let delivered = Network.messages_delivered st.net - delivered0 in
      counters tr
        (("sim.messages_sent", Network.messages_sent st.net)
         :: ("sim.messages_delivered", delivered)
         :: List.concat
              (List.map2
                 (fun impl ((s : Distributed.stats), (r : Probe_rpc.stats)) ->
                   [ ("distributed.probes." ^ impl, s.Distributed.probes);
                     ("distributed.clones." ^ impl, s.Distributed.clones);
                     ("distributed.checkpoints." ^ impl, s.Distributed.checkpoints);
                     ("vcache.hits." ^ impl, s.Distributed.vcache_hits);
                     ("probe_rpc.calls." ^ impl, r.Probe_rpc.calls);
                     ("probe_rpc.retries." ^ impl, r.Probe_rpc.retries);
                     ("probe_rpc.timeouts." ^ impl, r.Probe_rpc.timeouts);
                     ("probe_rpc.late_responses." ^ impl, r.Probe_rpc.late_responses) ])
                 members (List.combine stats rpc)));
      let hit_frac (s0 : Distributed.stats) (s : Distributed.stats) =
        let probes = s.Distributed.probes - s0.Distributed.probes in
        if probes = 0 then 0.0
        else
          float_of_int (s.Distributed.vcache_hits - s0.Distributed.vcache_hits)
          /. float_of_int probes
      in
      let rpc_sum f = float_of_int (List.fold_left (fun acc s -> acc + f s) 0 rpc) in
      (* layer samples, after the measured loop. Uncached probes announce
         10/8 space no exchange uses, so they leave the ops' cache entries
         alone. *)
      let rng = Rng.create (Int64.of_int (seed + 104_729)) in
      let unused () =
        from_explorer rng
          (Prefix.make (Ipv4.of_int32 (Int32.of_int (0x0A000000 + (Rng.int rng 0xFFFF lsl 8)))) 24)
      in
      let probe_ms a =
        ms
          (sample tr ("distributed.probe." ^ Distributed.agent_name a) (fun () ->
               ignore (Distributed.probe a ~from:explorer_side (unused ()))))
      in
      (* the vote's own cost: a whole panel probe minus its members' probes,
         all answered from warm caches *)
      let votes =
        Array.init 21 (fun i ->
            let msg = snd (next (2 * i)) in
            ignore (vote None st msg);
            let whole = snd (timed (fun () -> vote tr st msg)) in
            let member a = snd (timed (fun () -> Distributed.probe a ~from:explorer_side msg)) in
            whole -. List.fold_left (fun acc a -> acc +. member a) 0.0 st.remotes)
      in
      let msg = snd (next 1) in
      let request () =
        Probe_wire.encode_request ~req_id:1 (Probe_wire.canonical_request ~from:explorer_side msg)
      in
      let response =
        Probe_wire.encode_response ~req_id:1
          (Distributed.verdicts (Distributed.probe (List.hd st.remotes) ~from:explorer_side msg))
      in
      let per_member name unit_ f =
        List.map (fun (impl, sp) -> metric (name ^ "." ^ impl) unit_ (f impl sp)) st.speakers
      in
      List.concat
        [ [ metric "trace.ops_per_s" "1/s" ops_per_s ];
          per_member "speaker.feed_us" "us" (fun impl _ ->
              us (median (Perfbench.Btrace.durations t ("speaker.feed." ^ impl))));
          per_member "speaker.clone_us" "us" (fun impl sp ->
              us (sample tr ("speaker.clone." ^ impl) (fun () -> ignore (Speaker.clone sp))));
          per_member "speaker.loc_rib_us" "us" (fun impl sp ->
              us (sample tr ("speaker.loc_rib." ^ impl) (fun () -> ignore (Speaker.loc_rib sp))));
          List.map2
            (fun impl a -> metric ("distributed.probe_ms." ^ impl) "ms" (probe_ms a))
            members st.remotes;
          List.map2
            (fun impl (s0, s) -> metric ("vcache.hit_frac." ^ impl) "ratio" (hit_frac s0 s))
            members (List.combine stats0 stats);
          [ metric "panel.vote_us" "us" (us (median votes));
            metric "panel.divergences" "count" (float_of_int !divergences);
            metric "probe_wire.request_us" "us"
              (us (sample tr "probe_wire.request" (fun () -> ignore (request ()))));
            metric "probe_wire.decode_us" "us"
              (us (sample tr "probe_wire.decode" (fun () -> ignore (Probe_wire.decode response))));
            metric "probe_wire.request_bytes" "B" (float_of_int (Bytes.length (request ())));
            metric "probe_rpc.retries" "count" (rpc_sum (fun s -> s.Probe_rpc.retries));
            metric "probe_rpc.timeouts" "count" (rpc_sum (fun s -> s.Probe_rpc.timeouts));
            metric "probe_rpc.late_responses" "count"
              (rpc_sum (fun s -> s.Probe_rpc.late_responses));
            metric "sim.messages_delivered" "count" (float_of_int delivered) ] ]
  in
  { attempted = ops;
    failed = !failed;
    checks =
      [ ("tie_break_names_xorp", !tie_ok); ("every_member_answered", !all_answered);
        ("local_replay_matches", !replay_ok) ];
    metrics;
    info =
      [ ("exchanges", Json.int ops);
        ("member_updates", Json.int (members_n * List.length !writes));
        ("divergences", Json.int !divergences) ] }
