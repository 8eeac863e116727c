(* The dice command-line tool: generate traces, run the testbed, and
   detect route leaks with online exploration. *)

open Cmdliner
open Dice_inet
open Dice_bgp
open Dice_core
module Threerouter = Dice_topology.Threerouter

(* Figure-2 addressing, resolved through the topology spec *)
let tr_f2_spec = Threerouter.spec Threerouter.Correct
let tr_customer_addr = Dice_topology.Topology.Spec.address tr_f2_spec ~of_:"customer" ~toward:"provider"
let tr_internet_addr = Dice_topology.Topology.Spec.address tr_f2_spec ~of_:"internet" ~toward:"provider"
let tr_provider_internet_side = Dice_topology.Topology.Spec.address tr_f2_spec ~of_:"provider" ~toward:"internet"


(* ---------------- shared arguments ---------------- *)

let seed_arg =
  Arg.(value & opt int64 42L & info [ "seed" ] ~docv:"SEED" ~doc:"Deterministic RNG seed.")

let prefixes_arg =
  Arg.(
    value
    & opt int 5000
    & info [ "prefixes" ] ~docv:"N"
        ~doc:"Number of prefixes in the synthetic full-table dump.")

let filtering_arg =
  let filtering_conv =
    Arg.enum
      [ ("correct", Threerouter.Correct);
        ("partial", Threerouter.Partially_correct);
        ("missing", Threerouter.Missing) ]
  in
  Arg.(
    value
    & opt filtering_conv Threerouter.Partially_correct
    & info [ "filtering" ] ~docv:"MODE"
        ~doc:"Customer route filtering at the provider: correct, partial or missing.")

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit a machine-readable JSON report.")

let runs_arg =
  Arg.(
    value
    & opt int 256
    & info [ "runs" ] ~docv:"N" ~doc:"Exploration budget: program executions per seed.")

let jobs_arg =
  Arg.(
    value
    & opt int (Dice_exec.Pool.available_parallelism ())
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for seed, probe and fleet parallelism (default: \
           what the machine offers). 1 disables parallelism.")

let agents_arg =
  Arg.(
    value
    & opt int 0
    & info [ "agents" ] ~docv:"N"
        ~doc:
          "Simulated cooperating remote domains (paper \u{00a7}2.4): each is an \
           upstream router with a private table, probed across the domain \
           boundary through the narrow verdict interface, $(b,--jobs) probes \
           at a time. 0 disables cross-domain probing.")

let loss_arg =
  Arg.(
    value
    & opt float 0.0
    & info [ "loss" ] ~docv:"P"
        ~doc:
          "Probability each probe frame is dropped on the inter-domain link \
           (remote transport only). The RPC layer must degrade, never hang.")

let dup_arg =
  Arg.(
    value
    & opt float 0.0
    & info [ "dup" ] ~docv:"P"
        ~doc:
          "Probability each probe frame is duplicated on the inter-domain link \
           (remote transport only). Server-side request dedup keeps probe \
           execution at-most-once.")

let reorder_arg =
  Arg.(
    value
    & opt int 0
    & info [ "reorder" ] ~docv:"W"
        ~doc:
          "Reorder window on the inter-domain link: each frame may be held back \
           behind up to $(docv) later sends (remote transport only).")

let speaker_arg =
  Arg.(
    value
    & opt (enum (List.map (fun n -> (n, n)) Speakers.names)) "bird"
    & info [ "speaker" ] ~docv:"IMPL"
        ~doc:
          "BGP implementation behind each cooperating agent: $(b,bird) (the \
           instrumented reference), $(b,quagga) or $(b,xorp) (the heterogeneous \
           implementations — different RIB layouts and decision tie-breaking). \
           All answer the same probe frames; mixing implementations across \
           domains is the paper's heterogeneous setup.")

let panel_arg =
  Arg.(
    value
    & opt (some (list (enum (List.map (fun n -> (n, n)) Speakers.names)))) None
    & info [ "panel" ] ~docv:"IMPL,IMPL,..."
        ~doc:
          "Run an N-way differential panel beside exploration: the listed \
           implementations (e.g. $(b,bird,quagga,xorp)) are seeded with \
           identical state and every exploration message is probed at all of \
           them; verdict disagreements are majority-voted to name the outlier \
           implementation(s). Needs at least two members.")

let intent_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "intent" ] ~docv:"FILE"
        ~doc:
          "Configure the $(b,--panel) members from a dialect-neutral operator \
           intent file instead of shared config text: each member renders \
           $(docv) through its own dialect translator (BIRD filters, Quagga \
           route-maps + prefix-lists, XORP policy terms) and runs what its \
           own interpreter parses back, documented quirks included — the \
           panel then differentially tests the filter interpreters \
           themselves, not just the decision processes.")

let minimize_arg =
  Arg.(
    value & flag
    & info [ "minimize" ]
        ~doc:
          "Delta-debug each distinct panel divergence down to a minimal update \
           schedule and write a replayable repro artifact per divergence (see \
           $(b,--repro-out) and the $(b,replay-divergence) command).")

let repro_out_arg =
  Arg.(
    value
    & opt string "dice-repro"
    & info [ "repro-out" ] ~docv:"PREFIX"
        ~doc:"Filename prefix for $(b,--minimize) artifacts ($(docv)-N.repro).")

let fault_seed_arg =
  Arg.(
    value
    & opt int64 42L
    & info [ "fault-seed" ] ~docv:"SEED"
        ~doc:
          "Seed for the link-fault RNG stream: equal seeds replay identical \
           drop/duplicate/reorder schedules.")

let crash_rate_arg =
  Arg.(
    value
    & opt float 0.0
    & info [ "crash-rate" ] ~docv:"P"
        ~doc:
          "Probability that a frame arriving at a cooperating domain's node \
           crashes it (the frame is buffered, not lost). Crashed nodes restart \
           after $(b,--crash-downtime) and rebuild their speaker from snapshot \
           + journal. Requires $(b,--transport remote).")

let crash_downtime_arg =
  Arg.(
    value
    & opt float 0.25
    & info [ "crash-downtime" ] ~docv:"SECONDS"
        ~doc:"Virtual seconds a crashed node stays down before its automatic restart.")

let crash_seed_arg =
  Arg.(
    value
    & opt int64 Dice_sim.Network.default_crash_seed
    & info [ "crash-seed" ] ~docv:"SEED"
        ~doc:
          "Seed for the node-crash RNG stream (distinct from $(b,--fault-seed), \
           so adding crashes does not reshuffle link faults): equal seeds \
           replay identical crash schedules.")

(* A cooperating upstream in another administrative domain: reachable at
   the provider's internet peering, holding a private table (export none
   toward the provider) that only remote probing can check against. Each
   upstream routes different slices of 198.0.0.0/8 — the space the
   partially-correct filter leaks. *)
let mk_remote_agents ~speaker n =
  List.init n (fun i ->
      let collector = Ipv4.of_string "10.0.3.2" in
      (* dialect-neutral intent instead of any one implementation's config
         text: create_exn realizes it through the chosen implementation's
         own translator *)
      let intent =
        Intent.make
          ~router_id:(Ipv4.of_string "10.0.2.2")
          ~local_as:(Threerouter.internet_as + i)
          ~sessions:
            [ Intent.session "provider" ~export:Intent.Block
                ~neighbor:tr_provider_internet_side
                ~remote_as:Threerouter.provider_as;
              Intent.session "collector" ~neighbor:collector ~remote_as:(64801 + i) ]
          ()
      in
      (* any registered implementation serves: establishment and feeding go
         through the SPEAKER interface, which hides whether sessions come up
         by FSM handshake (bird) or administratively (quagga/xorp) *)
      let sp = Speakers.create_exn speaker (Speaker.Intent intent) in
      Speaker.establish sp ~peer:tr_provider_internet_side;
      Speaker.establish sp ~peer:collector;
      List.iter
        (fun (prefix, origin) ->
          let route =
            Route.make ~origin:Attr.Igp
              ~as_path:[ Asn.Path.Seq [ 64801 + i; origin ] ]
              ~next_hop:collector ()
          in
          ignore
            (Speaker.feed sp ~peer:collector
               (Msg.Update
                  { withdrawn = []; attrs = Route.to_attrs route; nlri = [ Prefix.of_string prefix ] })))
        [ (Printf.sprintf "198.%d.0.0/16" (16 * i), 64900 + i);
          (Printf.sprintf "198.%d.0.0/14" (64 + (4 * i)), 64950 + i) ];
      Distributed.agent
        ~name:(Printf.sprintf "upstream-%d-%s" i (Speaker.id sp))
        ~addr:tr_internet_addr
        ~explorer_addr:tr_provider_internet_side
        (Distributed.Local sp))

(* Remote transport: put each agent on the simulated network as a probe
   server and hand the orchestrator wire endpoints instead of speakers.
   From here on, nothing outside the agents can reach their speakers —
   probes travel as frames over the (lossy, latent) links.

   A link fault model lands on every client-server probe link and a
   crash model on every serving node, each with its RNG reseeded so the
   whole run replays from [fault_seed] / [crash_seed].

   With a crash model, each serving node also gets the full recovery
   stack: a {!Distributed.Recovery} harness wired as its restart hook
   (rebuild the speaker from snapshot + journal on every restart),
   heartbeats toward the exploring client (the liveness signal the
   endpoint's health monitor reads), and endpoints configured with
   jittered backoff plus a circuit breaker so a down node's probes fail
   fast instead of burning the full timeout x retries budget. *)
let remotify ~probe_faults ~fault_seed ~node_faults ~crash_seed net serving_agents =
  let crash_tolerant = node_faults <> None in
  if probe_faults <> None then Dice_sim.Network.set_fault_seed net fault_seed;
  if crash_tolerant then Dice_sim.Network.set_crash_seed net crash_seed;
  let cl = Probe_rpc.client net ~name:"explorer-probe" in
  let config =
    if crash_tolerant then
      { Probe_rpc.default_config with
        Probe_rpc.jitter = 0.1;
        breaker_threshold = 2;
        breaker_cooldown = 0.5;
      }
    else Probe_rpc.default_config
  in
  List.map
    (fun a ->
      let srv = Distributed.serve net a in
      Dice_sim.Network.connect net (Probe_rpc.client_node cl)
        (Probe_rpc.server_node srv) ~latency:0.005;
      Option.iter
        (Dice_sim.Network.set_faults net (Probe_rpc.client_node cl)
           (Probe_rpc.server_node srv))
        probe_faults;
      Option.iter (Dice_sim.Network.set_node_faults net (Probe_rpc.server_node srv))
        node_faults;
      if crash_tolerant then begin
        let harness = Distributed.Recovery.attach a in
        Dice_sim.Network.set_restart_hook net (Probe_rpc.server_node srv)
          (fun () -> Distributed.Recovery.crash_restart harness);
        let _stop : unit -> unit =
          Probe_rpc.start_heartbeats ~until:3600.0 srv
            ~to_:(Probe_rpc.client_node cl) ~period:0.05
            ~incarnation:(fun () -> Distributed.Recovery.incarnation harness)
            ~state_version:(fun () -> Distributed.Recovery.state_version harness)
        in
        ()
      end;
      Distributed.agent
        ~name:(Distributed.agent_name a)
        ~addr:(Distributed.agent_addr a)
        ~explorer_addr:tr_provider_internet_side
        (Distributed.Remote
           (Probe_rpc.endpoint ~config cl ~server:(Probe_rpc.server_node srv))))
    serving_agents

(* The differential panel: one speaker per listed implementation, every
   member configured and seeded identically, all reachable at the
   internet peering. The seed state includes an incumbent for the
   explored customer prefix that ties with the provider's announcement
   on every decision step up to the tie-breaks — learned from a
   collector session with a *lower* next hop, so implementations that
   consult IGP cost before peer identity (xorp) keep the incumbent
   while peer-identity tie-breakers (bird, quagga) switch to the
   explored route. The returned config source and setup schedule are
   what a replay artifact needs to rebuild the panel from scratch.

   With [?intent], the members are configured from a dialect-neutral
   intent file instead of shared config text: each member renders the
   intent through its own dialect translator and runs what its own
   interpreter parses back, quirks included — the panel then
   differentially tests the filter interpreters themselves. *)
let read_text file = In_channel.with_open_bin file In_channel.input_all

let mk_panel_agents ?intent ~panel () =
  let collector = Ipv4.of_string "10.0.3.2" in
  let source, art_source =
    match intent with
    | Some file ->
      let text = read_text file in
      (Speaker.Intent (Intent.parse text), Panel.Artifact.Intent_text text)
    | None ->
      let config_src =
        Printf.sprintf
          {|
          router id 10.0.2.2;
          local as %d;
          protocol bgp provider { neighbor 10.0.2.1 as %d; import all; export none; }
          protocol bgp collector { neighbor 10.0.3.2 as %d; import all; export all; }
          |}
          Threerouter.internet_as Threerouter.provider_as 64801
      in
      (Speaker.Config (Config_parser.parse config_src), Panel.Artifact.Config_text config_src)
  in
  let setup =
    List.map
      (fun (prefix, origin, path, next_hop) ->
        ( collector,
          Msg.Update
            {
              Msg.withdrawn = [];
              attrs =
                Route.to_attrs
                  (Route.make ~origin ~as_path:[ Asn.Path.Seq path ] ~next_hop ());
              nlri = [ Prefix.of_string prefix ];
            } ))
      (* one private slice (foreign origin, for coverage verdicts) plus
         tie-incumbents across the space exploration mutates the
         customer announcement into — matching origin and path length,
         so only the tie-breaks decide *)
      (( "198.0.0.0/16", Attr.Igp, [ 64801; 64900 ], collector)
      :: List.map
           (fun (prefix, origin) ->
             ( prefix,
               origin,
               [ 64701; Threerouter.customer_as ],
               Ipv4.of_string "10.0.0.1" ))
           [ ("203.0.113.0/24", Attr.Igp);
             ("203.0.113.0/28", Attr.Igp);
             ("198.0.0.0/8", Attr.Igp);
             ("198.51.100.0/22", Attr.Egp) ])
  in
  let agents =
    List.map
      (fun name ->
        let sp = Speakers.create_exn name source in
        Speaker.establish sp ~peer:tr_provider_internet_side;
        Speaker.establish sp ~peer:collector;
        List.iter (fun (peer, msg) -> ignore (Speaker.feed sp ~peer msg)) setup;
        (* named by implementation so replayed artifacts produce the
           same divergence signatures (Panel.Artifact.build does too) *)
        Distributed.agent ~name ~addr:tr_internet_addr
          ~explorer_addr:tr_provider_internet_side
          (Distributed.Local sp))
      panel
  in
  (agents, art_source, setup)

let trace_of ~seed ~prefixes =
  Dice_trace.Gen.generate
    { Dice_trace.Gen.default_params with Dice_trace.Gen.seed; n_prefixes = prefixes }

let build_loaded ~filtering ~seed ~prefixes =
  let topo = Threerouter.build filtering in
  Threerouter.start topo;
  let trace = trace_of ~seed ~prefixes in
  let n = Threerouter.load_table topo trace in
  (topo, trace, n)

let customer_route () =
  Route.make ~origin:Attr.Igp
    ~as_path:[ Asn.Path.Seq [ Threerouter.customer_as ] ]
    ~next_hop:tr_customer_addr ()

(* ---------------- gen-trace ---------------- *)

let gen_trace out seed prefixes duration rate =
  let trace =
    Dice_trace.Gen.generate
      { Dice_trace.Gen.default_params with
        Dice_trace.Gen.seed;
        n_prefixes = prefixes;
        duration;
        update_rate = rate;
      }
  in
  Dice_trace.Mrt.save out trace;
  Printf.printf "wrote %s: %d dump entries, %d events over %.0f s\n" out
    (Array.length trace.Dice_trace.Gen.dump)
    (Array.length trace.Dice_trace.Gen.events)
    trace.Dice_trace.Gen.duration;
  0

let gen_trace_cmd =
  let out =
    Arg.(
      value & opt string "trace.mrt"
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file.")
  in
  let duration =
    Arg.(
      value & opt float 900.0
      & info [ "duration" ] ~docv:"SECONDS" ~doc:"Update-trace duration.")
  in
  let rate =
    Arg.(
      value & opt float 0.3
      & info [ "rate" ] ~docv:"UPD/S" ~doc:"Mean update rate in the tail.")
  in
  Cmd.v
    (Cmd.info "gen-trace" ~doc:"Generate a RouteViews-style synthetic trace (MRT-like file).")
    Term.(const gen_trace $ out $ seed_arg $ prefixes_arg $ duration $ rate)

(* ---------------- trace-info ---------------- *)

let trace_info file =
  let trace = Dice_trace.Mrt.load file in
  let lens = Hashtbl.create 8 in
  Array.iter
    (fun (e : Dice_trace.Gen.entry) ->
      let l = Prefix.len e.Dice_trace.Gen.prefix in
      Hashtbl.replace lens l (1 + Option.value (Hashtbl.find_opt lens l) ~default:0))
    trace.Dice_trace.Gen.dump;
  Printf.printf "collector AS: %d\n" trace.Dice_trace.Gen.collector_as;
  Printf.printf "dump entries: %d\n" (Array.length trace.Dice_trace.Gen.dump);
  Printf.printf "events: %d over %.0f s\n"
    (Array.length trace.Dice_trace.Gen.events)
    trace.Dice_trace.Gen.duration;
  print_endline "prefix length histogram:";
  Hashtbl.fold (fun l c acc -> (l, c) :: acc) lens []
  |> List.sort compare
  |> List.iter (fun (l, c) -> Printf.printf "  /%-2d %d\n" l c);
  0

let trace_info_cmd =
  let file =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Trace file.")
  in
  Cmd.v
    (Cmd.info "trace-info" ~doc:"Summarize a trace file.")
    Term.(const trace_info $ file)

(* ---------------- run ---------------- *)

let run_testbed filtering seed prefixes =
  let _, _, n = build_loaded ~filtering ~seed ~prefixes in
  Printf.printf "topology up (filtering=%s); provider Loc-RIB: %d routes\n"
    (Threerouter.filtering_to_string filtering)
    n;
  0

let run_cmd =
  Cmd.v
    (Cmd.info "run" ~doc:"Bring up the 3-router testbed and load a full table.")
    Term.(const run_testbed $ filtering_arg $ seed_arg $ prefixes_arg)

(* ---------------- gen-topology / fleet mode ---------------- *)

module Spec = Dice_topology.Topology.Spec
module Topo_gen = Dice_topology.Gen
module Fleet = Dice_topology.Fleet

let resolve_topology src =
  match String.split_on_char ':' src with
  | [ "gen"; seed; n ] ->
    let seed =
      try Int64.of_string seed
      with _ -> invalid_arg (Printf.sprintf "--topology gen: bad seed %S" seed)
    in
    let domains =
      try int_of_string n
      with _ -> invalid_arg (Printf.sprintf "--topology gen: bad domain count %S" n)
    in
    Topo_gen.generate ~seed ~domains ()
  | [ _ ] -> Spec.parse_file src
  | _ -> invalid_arg (Printf.sprintf "--topology: expected FILE or gen:SEED:N, got %S" src)

let gen_topology domains seed out =
  let spec = Topo_gen.generate ~seed ~domains () in
  let text = Spec.to_string spec in
  if out = "-" then print_string text
  else begin
    Out_channel.with_open_bin out (fun oc -> Out_channel.output_string oc text);
    Printf.printf "wrote %s: %d domains, %d links (seed %Ld — same seed, same bytes)\n"
      out (List.length spec.Spec.domains) (List.length spec.Spec.links) seed
  end;
  0

let gen_topology_cmd =
  let domains =
    Arg.(
      value & opt int 16
      & info [ "domains" ] ~docv:"N" ~doc:"Number of domains (ASes) to generate.")
  in
  let out =
    Arg.(
      value & opt string "-"
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file ($(b,-) for stdout).")
  in
  Cmd.v
    (Cmd.info "gen-topology"
       ~doc:
         "Generate a seeded AS-level topology (preferential attachment, \
          customer/provider/peer roles, valley-free policies) in the \
          $(b,--topology) text format. The same seed reproduces the same \
          file byte for byte.")
    Term.(const gen_topology $ domains $ seed_arg $ out)

let run_fleet src seed updates jobs =
  let spec = resolve_topology src in
  let fl = Fleet.realize spec in
  Fleet.establish fl;
  Printf.printf "fleet: %d domains, %d links, speakers [%s]\n"
    (List.length spec.Spec.domains)
    (List.length spec.Spec.links)
    (String.concat ", "
       (List.sort_uniq compare
          (List.map (fun (d : Spec.domain) -> d.Spec.speaker) spec.Spec.domains)));
  let st =
    Fleet.drive ~jobs:(max 1 jobs) ~probe_every:4 ~updates_per_domain:updates ~seed fl
  in
  Printf.printf "stream: fed %d, delivered %d, emitted %d, to collector %d, %d round(s)\n"
    st.Fleet.fed st.Fleet.delivered st.Fleet.emitted st.Fleet.to_collector
    st.Fleet.rounds;
  Printf.printf "probes: %d, probe verdicts: %d\n" st.Fleet.probes st.Fleet.verdicts;
  if st.Fleet.dropped_down > 0 || st.Fleet.skipped_feeds > 0 then
    Printf.printf "down domains: %d message(s) dropped, %d feed(s) withheld\n"
      st.Fleet.dropped_down st.Fleet.skipped_feeds;
  (match
     List.find_opt (fun (d : Spec.domain) -> d.Spec.speaker = "bird") spec.Spec.domains
   with
  | Some d ->
    let shared, total = Fleet.rib_sharing fl ~domain:d.Spec.name in
    if total > 0 then
      Printf.printf "rib sharing (%s): %d/%d trie nodes shared with an explorer clone\n"
        d.Spec.name shared total
  | None -> ());
  Fleet.checkpoint_all ~clones:1 fl;
  let store = Fleet.store fl in
  Printf.printf
    "checkpoint store: %d capture(s), %.1f%% pages deduped, %d bytes resident\n"
    (Dice_checkpoint.Store.captures store)
    (100.0 *. Dice_checkpoint.Store.dedup_ratio store)
    (Dice_checkpoint.Store.resident_bytes store);
  Fleet.release_checkpoints fl;
  if st.Fleet.rounds < 64 then 0 else 1

(* ---------------- detect-leaks ---------------- *)

let detect_leaks_testbed filtering seed prefixes runs jobs agents speaker panel
    intent minimize repro_out transport loss dup reorder fault_seed crash_rate
    crash_downtime crash_seed json =
  let topo, _, n = build_loaded ~filtering ~seed ~prefixes in
  Printf.printf "table loaded: %d routes; filtering=%s\n" n
    (Threerouter.filtering_to_string filtering);
  if agents > 0 then Printf.printf "cooperating domains run the %s speaker\n" speaker;
  let provider = Threerouter.provider_router topo in
  let serving_agents = mk_remote_agents ~speaker (max 0 agents) in
  let node_faults =
    if crash_rate = 0.0 then None
    else Some (Dice_sim.Faults.node ~crash:crash_rate ~downtime:crash_downtime ())
  in
  let probe_faults =
    if loss = 0.0 && dup = 0.0 && reorder = 0 then None
    else Some (Dice_sim.Faults.make ~drop:loss ~duplicate:dup ~reorder ())
  in
  let remote_agents =
    match transport with
    | `Local -> serving_agents
    | `Remote ->
      remotify ~probe_faults ~fault_seed ~node_faults ~crash_seed
        topo.Threerouter.net serving_agents
  in
  if probe_faults <> None && transport = `Local then
    prerr_endline
      "note: --loss/--dup/--reorder perturb the probe links; with --transport \
       local there is no wire, so they have no effect";
  if node_faults <> None && transport = `Local then
    prerr_endline
      "note: --crash-rate crashes the cooperating domains' nodes; with \
       --transport local there are no nodes, so it has no effect";
  let hits = ref [] in
  let panel_ctx =
    match panel with
    | None ->
      if intent <> None then
        prerr_endline "note: --intent configures the panel members; without --panel it has no effect";
      None
    | Some members when List.length members < 2 ->
      invalid_arg "--panel needs at least two implementations"
    | Some members ->
      Printf.printf "differential panel: %s\n" (String.concat ", " members);
      Option.iter
        (Printf.printf "panel intent: %s (each member realizes its own dialect)\n")
        intent;
      Some (mk_panel_agents ?intent ~panel:members ())
  in
  let panel_checkers =
    match panel_ctx with
    | None -> []
    | Some (panel_agents, _, _) ->
      [ Panel.hunt ~jobs:(max 1 jobs) ~agents:panel_agents
          ~sink:(fun h -> hits := h :: !hits) () ]
  in
  let cfg =
    { Orchestrator.exploration =
        { Orchestrator.default_exploration with
          Orchestrator.explorer =
            { Dice_concolic.Explorer.default_config with
              Dice_concolic.Explorer.max_runs = runs;
              max_depth = 96;
            };
          jobs = max 1 jobs;
        };
      checkers = Orchestrator.default_cfg.Orchestrator.checkers @ panel_checkers;
      federation = Orchestrator.federation ~agents:remote_agents ~probe_jobs:(max 1 jobs);
    }
  in
  let dice = Orchestrator.create ~cfg (Speakers.bird provider) in
  Orchestrator.observe dice ~peer:tr_customer_addr
    ~prefix:(Prefix.of_string "203.0.113.0/24")
    ~route:(customer_route ());
  let report = Orchestrator.explore dice in
  if json then print_endline (Dice_util.Json.to_string ~indent:true (Report.report_json report))
  else print_string (Report.to_text report);
  (match panel_ctx with
   | None -> ()
   | Some (panel_agents, panel_source, panel_setup) ->
     (* one hit per distinct divergence signature, in discovery order *)
     let distinct =
       List.fold_left
         (fun acc (h : Panel.hit) ->
           let s = Panel.signature h.Panel.divergence in
           if List.mem_assoc s acc then acc else (s, h) :: acc)
         []
         (List.rev !hits)
       |> List.rev
     in
     Printf.printf "panel: %d divergent probe(s), %d distinct divergence(s)\n"
       (List.length !hits) (List.length distinct);
     List.iter
       (fun (_, (h : Panel.hit)) ->
         Format.printf "%a@." Panel.pp_divergence h.Panel.divergence)
       distinct;
     if minimize then
       List.iteri
         (fun i (signature, (h : Panel.hit)) ->
           let minimal, st =
             Minimize.divergence ~jobs:(max 1 jobs) ~agents:panel_agents h
           in
           Printf.printf
             "minimized %s: %d -> %d message(s), %d attribute shrink(s), %d \
              predicate test(s)\n"
             signature st.Minimize.initial_len st.Minimize.final_len
             st.Minimize.shrunk st.Minimize.tests;
           let artifact =
             {
               Panel.Artifact.speakers =
                 List.map Distributed.agent_name panel_agents;
               source = panel_source;
               setup = panel_setup;
               schedule = minimal;
               signature;
               absent =
                 (match h.Panel.divergence.Panel.quorum with
                 | Panel.Full -> []
                 | Panel.Degraded absent -> absent);
             }
           in
           let file = Printf.sprintf "%s-%d.repro" repro_out (i + 1) in
           Panel.Artifact.save file artifact;
           let replayed =
             Panel.Artifact.replay ~jobs:(max 1 jobs) artifact
           in
           Printf.printf "wrote %s (%d bytes): replay %s\n" file
             (Bytes.length (Panel.Artifact.encode artifact))
             (if Panel.Artifact.reproduces artifact replayed then
                "reproduces the divergence"
              else "DOES NOT reproduce"))
         distinct);
  List.iter
    (fun a ->
      let s = Distributed.stats a in
      Printf.printf
        "remote agent %s: %d probes, %d checkpoint(s), vcache %d hit(s) (%.1f%% hit \
         rate), %d decline(s), %d timeout(s), %d retry(ies)\n"
        (Distributed.agent_name a) s.Distributed.probes s.Distributed.checkpoints
        s.Distributed.vcache_hits
        (100.0 *. s.Distributed.vcache_hit_rate)
        s.Distributed.declines s.Distributed.timeouts s.Distributed.retries)
    remote_agents;
  (* in remote mode the speaker-side figures live with the serving agent *)
  if transport = `Remote then
    List.iter
      (fun a ->
        let s = Distributed.stats a in
        Printf.printf
          "  serving side %s: %d probes answered, %d checkpoint(s), vcache %d hit(s) \
           (%.1f%% hit rate)\n"
          (Distributed.agent_name a) s.Distributed.probes s.Distributed.checkpoints
          s.Distributed.vcache_hits
          (100.0 *. s.Distributed.vcache_hit_rate))
      serving_agents;
  (if transport = `Remote && probe_faults <> None then begin
     let net = topo.Threerouter.net in
     Printf.printf
       "link faults (seed %Ld): %d dropped, %d duplicated, %d reordered, %d \
        corrupted — rerun with the same --fault-seed to replay this schedule\n"
       fault_seed
       (Dice_sim.Network.messages_dropped net)
       (Dice_sim.Network.messages_duplicated net)
       (Dice_sim.Network.messages_reordered net)
       (Dice_sim.Network.messages_corrupted net)
   end);
  (if transport = `Remote && node_faults <> None then begin
     let net = topo.Threerouter.net in
     Printf.printf
       "node crashes (seed %Ld): %d crash(es), %d restart(s), %d frame(s) \
        requeued — rerun with the same --crash-seed to replay this schedule\n"
       crash_seed
       (Dice_sim.Network.node_crashes net)
       (Dice_sim.Network.node_restarts net)
       (Dice_sim.Network.messages_requeued net);
     List.iter
       (fun a ->
         match Distributed.agent_transport a with
         | Distributed.Remote ep ->
           let s = Probe_rpc.stats ep in
           Format.printf
             "  endpoint %s: %d fail-fast decline(s), %d breaker open(s); %a@."
             (Distributed.agent_name a) s.Probe_rpc.fail_fast
             s.Probe_rpc.breaker_opens Health.pp
             (Probe_rpc.endpoint_health ep)
         | Distributed.Local _ -> ())
       remote_agents
   end);
  if Hijack.leakable_summary report.Orchestrator.faults = [] then 0 else 1

let transport_arg =
  Arg.(
    value
    & opt (enum [ ("local", `Local); ("remote", `Remote) ]) `Local
    & info [ "transport" ] ~docv:"MODE"
        ~doc:
          "How exploration reaches the cooperating domains: $(b,local) probes \
           their routers in-process; $(b,remote) puts each agent on the \
           simulated network and probes it with wire frames (latency, \
           timeouts and retries included).")

let detect_leaks topology filtering seed prefixes updates runs jobs agents
    speaker panel intent minimize repro_out transport loss dup reorder
    fault_seed crash_rate crash_downtime crash_seed json =
  match topology with
  | Some src -> run_fleet src seed updates jobs
  | None ->
    detect_leaks_testbed filtering seed prefixes runs jobs agents speaker panel
      intent minimize repro_out transport loss dup reorder fault_seed crash_rate
      crash_downtime crash_seed json

let topology_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "topology" ] ~docv:"FILE|gen:SEED:N"
        ~doc:
          "Fleet mode: instead of the 3-router testbed, instantiate a \
           DiCE-enabled speaker per domain of the given topology (a \
           $(b,gen-topology) file, or $(b,gen:SEED:N) to generate N domains \
           in-process), drive a sustained update stream through the \
           federation on the worker pool, and probe the stream online at \
           each receiving domain's explorer clone.")

let updates_arg =
  Arg.(
    value
    & opt int Fleet.default_updates_per_domain
    & info [ "updates" ] ~docv:"N"
        ~doc:"Fleet mode: update-stream announcements injected per domain.")

let detect_leaks_cmd =
  Cmd.v
    (Cmd.info "detect-leaks"
       ~doc:
         "Run DiCE exploration on the provider and report hijackable prefix ranges \
          (exit status 1 if any are found). With $(b,--agents), exploration \
          outcomes are also probed at simulated cooperating remote domains over \
          the worker pool ($(b,--speaker) picks the BGP implementation they run); with $(b,--transport remote) plus \
          $(b,--loss)/$(b,--dup)/$(b,--reorder), the probe links misbehave \
          deterministically ($(b,--fault-seed)) and the RPC layer must stay \
          at-most-once and hang-free. $(b,--crash-rate) additionally crashes \
          the cooperating nodes on a seeded schedule ($(b,--crash-seed)): \
          crashed agents recover from snapshot + journal, endpoints detect \
          them via heartbeat gaps and fail fast through a circuit breaker \
          while they are down. With $(b,--panel), every exploration \
          message is additionally probed at an N-way differential panel of \
          implementations; $(b,--minimize) delta-debugs each divergence and \
          writes a replayable repro artifact.")
    Term.(
      const detect_leaks $ topology_arg $ filtering_arg $ seed_arg
      $ prefixes_arg $ updates_arg $ runs_arg $ jobs_arg $ agents_arg
      $ speaker_arg $ panel_arg $ intent_arg $ minimize_arg $ repro_out_arg
      $ transport_arg $ loss_arg $ dup_arg $ reorder_arg $ fault_seed_arg
      $ crash_rate_arg $ crash_downtime_arg $ crash_seed_arg $ json_arg)

(* ---------------- replay-divergence ---------------- *)

let replay_loaded file artifact subset jobs =
  Printf.printf "%s: panel [%s], %d setup message(s), %d probe message(s)\n" file
    (String.concat ", " artifact.Panel.Artifact.speakers)
    (List.length artifact.Panel.Artifact.setup)
    (List.length artifact.Panel.Artifact.schedule);
  Printf.printf "expected divergence: %s\n" artifact.Panel.Artifact.signature;
  (match artifact.Panel.Artifact.source with
  | Panel.Artifact.Config_text _ -> ()
  | Panel.Artifact.Intent_text _ ->
    print_endline "configured from operator intent: each member realizes its own dialect");
  (match artifact.Panel.Artifact.absent with
  | [] -> ()
  | absent ->
    Printf.printf
      "degraded capture: [%s] down when recorded; replaying the members that \
       actually voted\n"
      (String.concat ", " absent));
  let divergences =
    Panel.Artifact.replay ?speakers:subset ~jobs:(max 1 jobs) artifact
  in
  List.iter (Format.printf "%a@." Panel.pp_divergence) divergences;
  match subset with
  | Some members ->
    (* a subset replay answers "what do just these members say?" — the
       recorded signature names outliers the subset may not contain, so
       reproduction is not the question being asked *)
    Printf.printf "replayed against [%s]: %d divergence(s)\n"
      (String.concat ", " members) (List.length divergences);
    0
  | None ->
    if Panel.Artifact.reproduces artifact divergences then begin
      print_endline "divergence reproduced";
      0
    end
    else begin
      print_endline "divergence NOT reproduced";
      1
    end

let replay_divergence file subset jobs =
  match
    try Ok (Panel.Artifact.load file) with
    | Sys_error msg -> Error msg
    | Dice_wire.Rbuf.Truncated msg -> Error (file ^ ": malformed artifact: " ^ msg)
  with
  | Error msg ->
    prerr_endline msg;
    2
  | Ok artifact -> replay_loaded file artifact subset jobs

let replay_divergence_cmd =
  let file =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Repro artifact written by detect-leaks --minimize.")
  in
  let subset =
    Arg.(
      value
      & opt (some (list string)) None
      & info [ "speakers" ] ~docv:"IMPL,IMPL,..."
          ~doc:
            "Replay against this subset of the artifact's panel instead of all \
             members (reproduction of the recorded signature is only asserted \
             for a full-panel replay).")
  in
  Cmd.v
    (Cmd.info "replay-divergence"
       ~doc:
         "Re-execute a minimized divergence repro: rebuild the recorded panel \
          from the artifact's configuration and setup schedule, probe the \
          minimized update schedule, and check the recorded divergence still \
          appears. A degraded capture (members recorded absent) replays over \
          the members that actually voted. Exit status: 0 if the divergence \
          reproduces (or for any $(b,--speakers) subset replay, which asserts \
          nothing), 1 if a full replay does not reproduce it, 2 if the \
          artifact is unreadable or malformed.")
    Term.(const replay_divergence $ file $ subset $ jobs_arg)

(* ---------------- explore-filter ---------------- *)

let explore_filter file runs =
  let config = Config_parser.parse_file file in
  match config.Config_types.filters with
  | [] ->
    prerr_endline "no filters in configuration";
    1
  | filter :: _ ->
    let route =
      Route.make ~origin:Attr.Igp
        ~as_path:[ Asn.Path.Seq [ 64501 ] ]
        ~med:(Some 10)
        ~next_hop:(Ipv4.of_string "192.0.2.1")
        ()
    in
    let program ctx =
      let cr =
        Symbolize.croute ctx ~prefix:(Prefix.of_string "192.0.2.0/24") ~route
      in
      ignore
        (Filter_interp.run ctx ~source_as:64501
           ~local_as:config.Config_types.local_as filter cr)
    in
    let config =
      { Dice_concolic.Explorer.default_config with Dice_concolic.Explorer.max_runs = runs }
    in
    let report = Dice_concolic.Explorer.explore ~config program in
    Format.printf "%a@." Dice_concolic.Explorer.pp_report report;
    0

let explore_filter_cmd =
  let file =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"CONFIG" ~doc:"Router configuration file.")
  in
  Cmd.v
    (Cmd.info "explore-filter"
       ~doc:"Concolically explore the first filter of a configuration file.")
    Term.(const explore_filter $ file $ runs_arg)

(* ---------------- overhead ---------------- *)

let overhead seed prefixes =
  let topo, trace, n = build_loaded ~filtering:Threerouter.Partially_correct ~seed ~prefixes in
  Printf.printf "table loaded: %d routes\n" n;
  let router = Threerouter.provider_router topo in
  let mgr = Dice_checkpoint.Fork.create () in
  let cp = Dice_checkpoint.Fork.checkpoint mgr ~live_image:(Router.snapshot router) in
  let progress =
    Dice_trace.Replay.feed_events router ~peer:tr_internet_addr
      ~next_hop:tr_internet_addr trace
  in
  let unique, fraction =
    Dice_checkpoint.Fork.checkpoint_stats cp ~live_image:(Router.snapshot router)
  in
  Printf.printf
    "checkpoint: %d unique pages (%.2f%%) after the live router processed %d more \
     updates\n"
    unique (100.0 *. fraction) progress.Dice_trace.Replay.updates_sent;
  0

let overhead_cmd =
  Cmd.v
    (Cmd.info "overhead" ~doc:"Measure checkpoint memory overhead on a loaded router.")
    Term.(const overhead $ seed_arg $ prefixes_arg)

(* ---------------- validate ---------------- *)

let validate_change proposed_file seed prefixes runs jobs json =
  let topo, _, n = build_loaded ~filtering:Threerouter.Partially_correct ~seed ~prefixes in
  Printf.printf "live router: %d routes (partially-correct filtering)\n" n;
  let live = Threerouter.provider_router topo in
  (* an .intent proposal is realized through the live implementation's own
     dialect translator inside Validate.config_change *)
  let proposed =
    if Filename.check_suffix proposed_file ".intent" then
      Speaker.Intent (Intent.parse_file proposed_file)
    else Speaker.Config (Config_parser.parse_file proposed_file)
  in
  let seeds =
    [ { Orchestrator.tag = "observed";
        peer = tr_customer_addr;
        prefix = Prefix.of_string "203.0.113.0/24";
        route = customer_route ();
      } ]
  in
  let cfg =
    { Orchestrator.default_cfg with
      Orchestrator.exploration =
        { Orchestrator.default_exploration with
          Orchestrator.explorer =
            { Dice_concolic.Explorer.default_config with
              Dice_concolic.Explorer.max_runs = runs;
              max_depth = 96;
            };
          jobs = max 1 jobs;
        };
    }
  in
  let c = Validate.config_change ~cfg ~live:(Speakers.bird live) ~proposed ~seeds () in
  if json then print_endline (Dice_util.Json.to_string ~indent:true (Report.comparison_json c))
  else Format.printf "%a@." Validate.pp c;
  match Validate.verdict c with
  | `Safe -> 0
  | `Ineffective -> 0
  | `Harmful -> 1

let validate_cmd =
  let file =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"PROPOSED-CONFIG"
          ~doc:
            "Proposed router configuration file; a $(b,.intent) file is \
             realized through the live implementation's own dialect \
             translator before the shadow run.")
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:
         "Validate a proposed configuration change against the testbed's live state           before committing it (exit status 1 if the change is harmful).")
    Term.(
      const validate_change $ file $ seed_arg $ prefixes_arg $ runs_arg
      $ jobs_arg $ json_arg)

(* ---------------- main ---------------- *)

let () =
  let doc = "DiCE: online testing of federated and heterogeneous distributed systems" in
  let info = Cmd.info "dice" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ gen_trace_cmd; gen_topology_cmd; trace_info_cmd; run_cmd;
            detect_leaks_cmd; replay_divergence_cmd; explore_filter_cmd;
            overhead_cmd; validate_cmd ]))
