(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (§4) plus the ablations called out in DESIGN.md.

   Experiments (ids from DESIGN.md):
     F2  the 3-router topology comes up and converges (Figure 2)
     F1  concolic exploration systematically covers paths (Figure 1)
     E1  memory overhead of checkpoints and explorer clones (§4.1)
     E2  update throughput under full load, with/without exploration (§4.1)
     E3  update throughput in the realistic (live-tail) scenario (§4.1)
     E4  route-leak detection across filter configurations (§4.2)
     A1  ablation: selective vs whole-message symbolization (§3.2)
     A2  ablation: exploration search strategies
     P1  seed-level parallel exploration: orchestrator worker scaling
     P2  parallel cross-domain probing: fan-out scaling and verdict-cache hit rate
     P3  probe RPC over the simulated wire: throughput vs link latency,
         retry/timeout behavior under slow links and partitions
         (machine-readable copy in BENCH_p3.json)
     P4  probe RPC under injected link faults: verdict completeness and
         retry amplification vs loss rate, with duplication and
         reordering on, at a fixed fault seed
         (machine-readable copy in BENCH_p4.json)
     P5  heterogeneous federation: probe throughput and verdict-cache
         hit rate over a BIRD-only fleet vs a mixed BIRD+Quagga fleet
         (machine-readable copy in BENCH_p5.json)
     P6  divergence panel: probe throughput vs panel size (1/2/3
         members) and the cost of delta-debugging a divergence down to
         a minimal repro (machine-readable copy in BENCH_p6.json)
     P7  incremental path-prefix solving: satisfied negations per
         second and time to full branch coverage on the F1 filter,
         from-scratch vs incremental
         (machine-readable copy in BENCH_p7.json)
     P8  config translation: per-dialect render/parse/realize cost for
         one operator intent, and divergence-hunt throughput over an
         intent-configured panel where the unstated policy default
         seeds a filter-interpreter divergence
         (machine-readable copy in BENCH_p8.json)
     P9  crash tolerance: verdict completeness under a seeded node-crash
         schedule, circuit-breaker fail-fast latency, time-to-recovery
         after a restart, and the retry-amplification delta from
         jittered backoff (machine-readable copy in BENCH_p9.json)
     P10 fleet scale: seeded topology generation at 1/4/16/64 domains,
         sustained update-stream throughput per domain, resident memory
         per domain, explorer-clone Loc-RIB structural sharing, and
         checkpoint-page dedup across the fleet's shared store
         (machine-readable copy in BENCH_p10.json)
   plus a Bechamel micro-benchmark suite for the hot paths.

   By default everything runs at a laptop-friendly scale; set
   DICE_BENCH_FULL=1 to use the paper's 319,355-prefix table (slow). *)

open Dice_inet
open Dice_bgp
open Dice_core
module Threerouter = Dice_topology.Threerouter
module Gen = Dice_trace.Gen
module Replay = Dice_trace.Replay
module Fork = Dice_checkpoint.Fork
module Explorer = Dice_concolic.Explorer
module Strategy = Dice_concolic.Strategy
module Coverage = Dice_concolic.Coverage

(* Figure-2 addressing, resolved through the topology spec *)
let tr_f2_spec = Threerouter.spec Threerouter.Correct
let tr_customer_addr = Dice_topology.Topology.Spec.address tr_f2_spec ~of_:"customer" ~toward:"provider"
let tr_internet_addr = Dice_topology.Topology.Spec.address tr_f2_spec ~of_:"internet" ~toward:"provider"


let full = Sys.getenv_opt "DICE_BENCH_FULL" <> None

let table_prefixes = if full then 319_355 else 8_000
let p = Prefix.of_string

let section id title =
  Printf.printf "\n=== %s: %s ===\n%!" id title

let row fmt = Printf.printf fmt

(* ------------------------------------------------------------------ *)
(* shared setup                                                        *)
(* ------------------------------------------------------------------ *)

let gen_trace ?(n = table_prefixes) () =
  Gen.generate { Gen.default_params with Gen.n_prefixes = n; duration = 900.0 }

let customer_route () =
  Route.make ~origin:Attr.Igp
    ~as_path:[ Asn.Path.Seq [ Threerouter.customer_as ] ]
    ~next_hop:tr_customer_addr ()

(* A provider router with established sessions and a loaded table, built
   directly (no simulated network) so big tables load fast. *)
let loaded_provider ?(filtering = Threerouter.Partially_correct) ?(n = table_prefixes) () =
  let r = Router.create (Threerouter.provider_config filtering) in
  let establish peer remote_as =
    ignore (Router.handle_event r ~peer Fsm.Manual_start);
    ignore (Router.handle_event r ~peer Fsm.Tcp_connected);
    ignore
      (Router.handle_msg r ~peer
         (Msg.Open
            { Msg.version = 4; my_as = remote_as land 0xFFFF; hold_time = 90;
              bgp_id = peer; capabilities = [ Msg.Cap_as4 remote_as ] }));
    ignore (Router.handle_msg r ~peer Msg.Keepalive)
  in
  establish tr_customer_addr Threerouter.customer_as;
  establish tr_internet_addr Threerouter.internet_as;
  (* the customer announces its own space, as in the testbed *)
  List.iter
    (fun prefix ->
      ignore
        (Router.handle_msg r ~peer:tr_customer_addr
           (Msg.Update
              { Msg.withdrawn = [];
                attrs = Route.to_attrs (customer_route ());
                nlri = [ prefix ];
              })))
    Threerouter.customer_prefixes;
  let trace = gen_trace ~n () in
  let progress =
    Replay.feed_dump r ~peer:tr_internet_addr
      ~next_hop:tr_internet_addr trace
  in
  (r, trace, progress)

let observe_and_cfg ?(mode = Symbolize.Selective) ?(runs = 256) router =
  let cfg =
    { Orchestrator.default_cfg with
      Orchestrator.exploration =
        { Orchestrator.default_exploration with
          Orchestrator.mode;
          explorer =
            { Explorer.default_config with Explorer.max_runs = runs; max_depth = 96 };
        };
    }
  in
  let dice = Orchestrator.create ~cfg (Speakers.bird router) in
  Orchestrator.observe dice ~peer:tr_customer_addr
    ~prefix:(p "203.0.113.0/24") ~route:(customer_route ());
  dice

(* ------------------------------------------------------------------ *)
(* F2: topology (Figure 2)                                             *)
(* ------------------------------------------------------------------ *)

let experiment_f2 () =
  section "F2" "experimental topology (paper Figure 2)";
  let topo = Threerouter.build Threerouter.Partially_correct in
  let t0 = Dice_sim.Network.now topo.Threerouter.net in
  Threerouter.start topo;
  let establish_time = Dice_sim.Network.now topo.Threerouter.net -. t0 in
  let n = Threerouter.load_table topo (gen_trace ~n:(min 4_000 table_prefixes) ()) in
  row "sessions established at the provider: %d (virtual %.2f s)\n"
    (List.length (Router.established_peers (Threerouter.provider_router topo)))
    establish_time;
  row "provider Loc-RIB after table load:    %d routes\n" n;
  row "customer sees (re-exported):          %d routes\n"
    (Rib.Loc.cardinal (Router.loc_rib (Router_node.router topo.Threerouter.customer)))

(* ------------------------------------------------------------------ *)
(* F1: concolic path exploration (Figure 1)                            *)
(* ------------------------------------------------------------------ *)

let sample_filter =
  Config_parser.parse_filter ~name:"bench"
    {|
    if net ~ [ 10.0.0.0/8{8,24}, 172.16.0.0/12{12,24}, 192.168.0.0/16+ ] then {
      if bgp_med > 50 then { bgp_local_pref = 80; accept; }
      bgp_local_pref = 120;
      accept;
    }
    if bgp_origin = 2 then reject;
    accept;
    |}

let filter_program ctx =
  let route =
    Route.make ~origin:Attr.Igp
      ~as_path:[ Asn.Path.Seq [ 64501; 64502 ] ]
      ~med:(Some 10)
      ~next_hop:(Ipv4.of_string "192.0.2.1") ()
  in
  let cr = Symbolize.croute ctx ~tag:"f1" ~prefix:(p "10.1.2.0/24") ~route in
  let cr =
    Croute.with_med cr (Dice_concolic.Engine.input ctx ~name:"f1.med" ~width:32 ~default:10L)
  in
  ignore (Filter_interp.run ctx ~source_as:64501 ~local_as:64510 sample_filter cr)

let experiment_f1 () =
  section "F1" "concolic predicate negation explores code paths (paper Figure 1)";
  let report =
    Explorer.explore ~config:{ Explorer.default_config with Explorer.max_runs = 64 }
      filter_program
  in
  row "%-6s %-14s %-12s %s\n" "run" "path-length" "new-dirs" "inputs (negated predicates -> new values)";
  List.iter
    (fun (r : Explorer.run) ->
      if r.Explorer.index < 10 then
        row "%-6d %-14d %-12d %s\n" r.Explorer.index r.Explorer.path_length
          r.Explorer.new_directions
          (String.concat ", "
             (List.map (fun (n, v) -> Printf.sprintf "%s=%Ld" n v) r.Explorer.assignment)))
    report.Explorer.runs;
  row "total: %d executions, %d distinct paths, %.1f%% branch-direction coverage\n"
    report.Explorer.executions report.Explorer.distinct_paths
    (100.0 *. Explorer.coverage_ratio report);
  row "negations: %d attempted, %d sat, %d unsat, %d gave up; %d divergences\n"
    report.Explorer.negations_attempted report.Explorer.negations_sat
    report.Explorer.negations_unsat report.Explorer.negations_gave_up
    report.Explorer.divergences

(* ------------------------------------------------------------------ *)
(* E1: memory overhead                                                 *)
(* ------------------------------------------------------------------ *)

let experiment_e1 () =
  section "E1" "memory overhead (paper §4.1: checkpoint 3.45%, clones +36.93% avg / 39% max)";
  (* page-fraction metrics need a realistically large address space; use a
     bigger table than the throughput experiments *)
  let router, trace, _ = loaded_provider ~n:(if full then table_prefixes else 64_000) () in
  row "table: %d routes; live image %d KiB\n"
    (Rib.Loc.cardinal (Router.loc_rib router))
    (Bytes.length (Router.snapshot router) / 1024);
  (* checkpoint, then let the live router process the 15-minute tail *)
  let mgr = Fork.create () in
  let checkpoint_image = Router.snapshot router in
  let cp = Fork.checkpoint mgr ~live_image:checkpoint_image in
  let progress =
    Replay.feed_events router ~peer:tr_internet_addr
      ~next_hop:tr_internet_addr trace
  in
  let unique, fraction = Fork.checkpoint_stats cp ~live_image:(Router.snapshot router) in
  row "checkpoint unique pages after live processed %d updates: %d (%.2f%%)   [paper: 3.45%%]\n"
    progress.Replay.updates_sent unique (100.0 *. fraction);
  (* explorer clones *)
  let dice = observe_and_cfg router in
  let dice =
    Orchestrator.create
      ~cfg:
        { Orchestrator.default_cfg with
          Orchestrator.exploration =
            { Orchestrator.default_exploration with Orchestrator.clone_samples = 16 };
        }
      (Orchestrator.speaker dice)
  in
  Orchestrator.observe dice ~peer:tr_customer_addr
    ~prefix:(p "203.0.113.0/24") ~route:(customer_route ());
  let report = Orchestrator.explore dice in
  let stats = Dice_util.Stats.create () in
  List.iter
    (fun (sr : Orchestrator.seed_report) ->
      List.iter
        (fun (cs : Fork.clone_stats) ->
          Dice_util.Stats.add stats (100.0 *. cs.Fork.extra_fraction))
        sr.Orchestrator.clone_stats)
    report.Orchestrator.seed_reports;
  row "explorer clones sampled: %d; extra pages %.2f%% avg, %.2f%% max   [paper: 36.93%% avg, 39%% max]\n"
    (Dice_util.Stats.count stats) (Dice_util.Stats.mean stats) (Dice_util.Stats.max stats);
  (* page-size ablation for the checkpoint metric *)
  row "page-size sweep (checkpoint unique fraction):\n";
  List.iter
    (fun page_size ->
      let mgr = Fork.create ~page_size () in
      let cp = Fork.checkpoint mgr ~live_image:checkpoint_image in
      let u, f = Fork.checkpoint_stats cp ~live_image:(Router.snapshot router) in
      row "  %6d B pages: %5d unique (%.2f%%)\n" page_size u (100.0 *. f))
    [ 1024; 4096; 16384 ]

(* ------------------------------------------------------------------ *)
(* E2/E3: CPU overhead                                                 *)
(* ------------------------------------------------------------------ *)

let throughput ~with_exploration ~updates =
  (* Within-run comparison: replay [updates] announcements; at the
     midpoint DiCE checkpoints and explores (when enabled). The
     exploration itself runs off the critical path (the paper gives the
     explorer its own core), so the live node pays only for the checkpoint
     clone.
     Comparing the first half's throughput with the second half's, inside
     one run, removes cross-run heap and cache noise. *)
  let router, _, _ = loaded_provider ~n:(min 2_000 table_prefixes) () in
  let extra = gen_trace ~n:updates () in
  let dice = observe_and_cfg ~runs:48 router in
  (* warm up in both configurations: grow the heap with one throwaway
     exploration episode so heap-expansion effects do not differ between
     the control and the measured run *)
  Orchestrator.observe dice ~peer:tr_customer_addr
    ~prefix:(p "203.0.113.0/24") ~route:(customer_route ());
  ignore (Orchestrator.explore dice);
  Gc.full_major ();
  let t_start = ref 0.0 in
  let t_half_end = ref 0.0 in
  let t_second_start = ref 0.0 in
  let on_update i =
    if i = updates / 2 then begin
      t_half_end := Unix.gettimeofday ();
      if with_exploration then begin
        Orchestrator.observe dice ~peer:tr_customer_addr
          ~prefix:(p "203.0.113.0/24") ~route:(customer_route ());
        ignore (Orchestrator.explore dice)
      end;
      (* a forked explorer's allocations live in its own process; reclaim
         them off-path so the live half that follows starts from the same
         GC state in both configurations *)
      Gc.full_major ();
      t_second_start := Unix.gettimeofday ()
    end
  in
  t_start := Unix.gettimeofday ();
  let progress =
    Replay.feed_dump ~on_update router ~peer:tr_internet_addr
      ~next_hop:tr_internet_addr extra
  in
  let t_end = Unix.gettimeofday () in
  ignore progress;
  let first = float_of_int (updates / 2) /. (!t_half_end -. !t_start) in
  let second = float_of_int (updates - (updates / 2)) /. (t_end -. !t_second_start) in
  (first, second)

let experiment_e2 () =
  section "E2" "update throughput under full load (paper §4.1: 15.1 vs 13.9 upd/s, 8% impact)";
  let updates = if full then 100_000 else 30_000 in
  (* interleave control/exploration runs and correct each exploration
     run's half-ratio by its adjacent control run's — time-correlated
     machine drift cancels pairwise; report the median *)
  let pairs =
    List.init 5 (fun _ ->
        let ctl = throughput ~with_exploration:false ~updates in
        let ex = throughput ~with_exploration:true ~updates in
        (ctl, ex))
  in
  let corrected =
    List.map
      (fun ((cf, cs), (ef, es)) -> 100.0 *. (1.0 -. (es /. ef) /. (cs /. cf)))
      pairs
  in
  let med xs = List.nth (List.sort compare xs) (List.length xs / 2) in
  let cf, cs = List.nth pairs 2 |> fst in
  let ef, es = List.nth pairs 2 |> snd in
  row "control run:     first half %8.0f upd/s, second half %8.0f upd/s\n" cf cs;
  row "exploration run: first half %8.0f upd/s, second half %8.0f upd/s\n" ef es;
  row "per-pair corrected impacts: %s\n"
    (String.concat ", " (List.map (Printf.sprintf "%.1f%%") corrected));
  row "median drift-corrected impact of running exploration: %.1f%%   [paper: 8%%]\n"
    (med corrected)

let experiment_e3 () =
  section "E3" "realistic scenario: live 15-min tail (paper §4.1: 0.287 vs 0.272 upd/s, negligible)";
  (* The tail arrives at ~0.3 upd/s over a 900 s window, so the router is
     idle almost always; exploration consumes idle time. The effective
     service rate over the window is updates/900 s either way — what can
     differ is the busy time on the live path. *)
  let measure with_exploration =
    let router, trace, _ = loaded_provider ~n:(min 4_000 table_prefixes) () in
    let dice = observe_and_cfg ~runs:96 router in
    let critical = ref 0.0 in
    if with_exploration then begin
      Orchestrator.observe dice ~peer:tr_customer_addr
        ~prefix:(p "203.0.113.0/24") ~route:(customer_route ());
      let report = Orchestrator.explore dice in
      critical := report.Orchestrator.checkpoint_seconds
    end;
    let progress =
      Replay.feed_events router ~peer:tr_internet_addr
        ~next_hop:tr_internet_addr trace
    in
    let busy = progress.Replay.wall_seconds +. !critical in
    (progress.Replay.updates_sent, busy)
  in
  let n_base, busy_base = measure false in
  let n_dice, busy_dice = measure true in
  let window = 900.0 in
  row "tail: %d updates over a %.0f s window\n" n_base window;
  row "service rate without exploration: %.3f updates/s (live path busy %.4f%%)\n"
    (float_of_int n_base /. window)
    (100.0 *. busy_base /. window);
  row "service rate with exploration:    %.3f updates/s (live path busy %.4f%%)\n"
    (float_of_int n_dice /. window)
    (100.0 *. busy_dice /. window);
  row "impact on the service rate: %.2f%%   [paper: negligible]\n"
    (100.0 *. (1.0 -. (float_of_int n_dice /. float_of_int n_base)))

(* ------------------------------------------------------------------ *)
(* E4: route-leak detection                                            *)
(* ------------------------------------------------------------------ *)

let experiment_e4 () =
  section "E4" "detecting route leaks (paper §4.2: the YouTube/Pakistan Telecom scenario)";
  row "%-20s %-12s %-10s %-10s %-12s %s\n" "filtering" "executions" "hijacks" "leaks"
    "wall (s)" "leakable ranges";
  List.iter
    (fun filtering ->
      let router, _, _ = loaded_provider ~filtering ~n:(min 8_000 table_prefixes) () in
      let dice = observe_and_cfg ~runs:256 router in
      let report = Orchestrator.explore dice in
      let criticals, warnings =
        List.partition
          (fun (f : Checker.fault) -> f.Checker.severity = Checker.Critical)
          report.Orchestrator.faults
      in
      let executions =
        List.fold_left
          (fun acc (sr : Orchestrator.seed_report) ->
            acc + sr.Orchestrator.explorer.Explorer.executions)
          0 report.Orchestrator.seed_reports
      in
      let ranges =
        Hijack.leakable_summary report.Orchestrator.faults
        |> List.map (fun (q, _) -> Prefix.to_string q)
      in
      let shown =
        match ranges with
        | a :: b :: c :: _ :: _ -> String.concat " " [ a; b; c; "..." ]
        | l -> String.concat " " l
      in
      row "%-20s %-12d %-10d %-10d %-12.2f %s\n"
        (Threerouter.filtering_to_string filtering)
        executions (List.length criticals) (List.length warnings)
        report.Orchestrator.wall_seconds shown)
    [ Threerouter.Correct; Threerouter.Partially_correct; Threerouter.Missing ]

(* ------------------------------------------------------------------ *)
(* A1: symbolization ablation                                          *)
(* ------------------------------------------------------------------ *)

let experiment_a1 () =
  section "A1" "ablation: selective vs whole-message symbolization (paper §3.2)";
  row "%-16s %-12s %-16s %-10s %s\n" "mode" "executions" "reach-routing" "hijacks" "parser depths";
  List.iter
    (fun mode ->
      let router, _, _ = loaded_provider ~n:(min 4_000 table_prefixes) () in
      let dice = observe_and_cfg ~mode ~runs:192 router in
      let report = Orchestrator.explore dice in
      List.iter
        (fun (sr : Orchestrator.seed_report) ->
          let executions = sr.Orchestrator.explorer.Explorer.executions in
          let reached =
            match mode with
            | Symbolize.Selective -> executions  (* every input is a valid message *)
            | Symbolize.Whole_message ->
              List.fold_left
                (fun acc (k, c) -> if k = "valid-update" then acc + c else acc)
                0 sr.Orchestrator.depth_counts
          in
          let criticals =
            List.length
              (List.filter
                 (fun (f : Checker.fault) -> f.Checker.severity = Checker.Critical)
                 sr.Orchestrator.faults)
          in
          row "%-16s %-12d %-16s %-10d %s\n"
            (Symbolize.mode_to_string mode)
            executions
            (Printf.sprintf "%d (%.0f%%)" reached
               (100.0 *. float_of_int reached /. float_of_int (max 1 executions)))
            criticals
            (String.concat ", "
               (List.map (fun (k, c) -> Printf.sprintf "%s=%d" k c) sr.Orchestrator.depth_counts)))
        report.Orchestrator.seed_reports)
    [ Symbolize.Selective; Symbolize.Whole_message ]

(* ------------------------------------------------------------------ *)
(* A2: strategy ablation                                               *)
(* ------------------------------------------------------------------ *)

let experiment_a2 () =
  section "A2" "ablation: exploration search strategies";
  row "%-22s %-12s %-10s %-12s %s\n" "strategy" "executions" "paths" "coverage" "divergences";
  List.iter
    (fun strategy ->
      let report =
        Explorer.explore
          ~config:{ Explorer.default_config with Explorer.strategy; max_runs = 64 }
          filter_program
      in
      row "%-22s %-12d %-10d %-12s %d\n" (Strategy.to_string strategy)
        report.Explorer.executions report.Explorer.distinct_paths
        (Printf.sprintf "%.1f%%" (100.0 *. Explorer.coverage_ratio report))
        report.Explorer.divergences)
    [ Strategy.Dfs; Strategy.Generational; Strategy.Cover_new; Strategy.Random_negation 7L ]

(* ------------------------------------------------------------------ *)
(* P1: seed-level parallel exploration                                *)
(* ------------------------------------------------------------------ *)

let experiment_p1 () =
  section "P1" "seed-level parallel exploration: orchestrator worker scaling";
  row "machine offers %d domain(s); wall-clock speedups need more than one core\n"
    (Dice_exec.Pool.available_parallelism ());
  let time_median f =
    let s = Dice_util.Stats.create () in
    for _ = 1 to 3 do
      let t0 = Unix.gettimeofday () in
      ignore (f ());
      Dice_util.Stats.add s (Unix.gettimeofday () -. t0)
    done;
    Dice_util.Stats.median s
  in
  (* seed-level parallelism in the orchestrator: one domain per seed over
     the same live checkpoint *)
  let router, _, _ = loaded_provider ~n:(min 2_000 table_prefixes) () in
  row "%-28s %-12s %s\n" "orchestrator (4 seeds)" "wall (ms)" "speedup";
  let obase = ref Float.nan in
  List.iter
    (fun jobs ->
      let t =
        time_median (fun () ->
            let cfg =
              { Orchestrator.default_cfg with
                Orchestrator.exploration =
                  { Orchestrator.default_exploration with
                    Orchestrator.jobs;
                    explorer =
                      { Explorer.default_config with Explorer.max_runs = 64; max_depth = 96 };
                  };
              }
            in
            let dice = Orchestrator.create ~cfg (Speakers.bird router) in
            List.iter
              (fun prefix ->
                Orchestrator.observe dice ~peer:tr_customer_addr ~prefix
                  ~route:(customer_route ()))
              [ p "203.0.113.0/24"; p "203.0.112.0/24"; p "198.51.100.0/24";
                p "192.0.2.0/24" ];
            ignore (Orchestrator.explore dice))
      in
      if jobs = 1 then obase := t;
      row "%-28s %-12.2f %.2fx\n"
        (Printf.sprintf "  jobs=%d" jobs)
        (1000.0 *. t) (!obase /. t))
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* P2: parallel cross-domain probing                                   *)
(* ------------------------------------------------------------------ *)

let experiment_p2 () =
  section "P2" "parallel cross-domain probing: fan-out scaling and verdict-cache hit rate";
  let explorer_side = Ipv4.of_string "10.0.2.1" in
  let collector = Ipv4.of_string "10.0.3.2" in
  let n_private = min 4_000 table_prefixes in
  (* each agent wraps a loaded upstream so a single probe (restore a clone
     of the whole table, import, inspect) costs milliseconds — the regime
     where fanning probes out over domains pays off *)
  let mk_agents n =
    List.init n (fun i ->
        let upstream =
          Router.create
            (Config_parser.parse
               (Printf.sprintf
                  "router id 10.0.2.2; local as %d;\n\
                   protocol bgp provider { neighbor 10.0.2.1 as %d; import all; export none; }\n\
                   protocol bgp collector { neighbor 10.0.3.2 as 64701; import all; export none; }"
                  (64700 + i) Threerouter.provider_as))
        in
        let establish peer remote_as =
          ignore (Router.handle_event upstream ~peer Fsm.Manual_start);
          ignore (Router.handle_event upstream ~peer Fsm.Tcp_connected);
          ignore
            (Router.handle_msg upstream ~peer
               (Msg.Open
                  { Msg.version = 4; my_as = remote_as land 0xFFFF; hold_time = 90;
                    bgp_id = peer; capabilities = [ Msg.Cap_as4 remote_as ] }));
          ignore (Router.handle_msg upstream ~peer Msg.Keepalive)
        in
        establish explorer_side Threerouter.provider_as;
        establish collector 64701;
        ignore
          (Replay.feed_dump upstream ~peer:collector ~next_hop:collector
             (Gen.generate
                { Gen.default_params with Gen.n_prefixes = n_private; collector_as = 64701 }));
        Distributed.agent
          ~name:(Printf.sprintf "upstream-%d" i)
          ~addr:tr_internet_addr ~explorer_addr:explorer_side
          (Distributed.Local (Speakers.bird upstream)))
  in
  let probe_msg i =
    Msg.Update
      { Msg.withdrawn = [];
        attrs =
          Route.to_attrs
            (Route.make ~origin:Attr.Igp
               ~as_path:
                 [ Asn.Path.Seq [ Threerouter.provider_as; Threerouter.customer_as ] ]
               ~next_hop:explorer_side ());
        nlri = [ p (Printf.sprintf "198.51.%d.0/24" (i mod 256)) ];
      }
  in
  let n_probes = 64 in
  row "machine offers %d domain(s); %d distinct probes across 2 agents per level\n"
    (Dice_exec.Pool.available_parallelism ()) (2 * n_probes);
  row "%-10s %-12s %-8s %s\n" "workers" "wall (ms)" "speedup" "verdicts";
  (* fresh agents per jobs level: a shared verdict cache would let later
     levels answer from memory and fake the scaling *)
  let base = ref Float.nan in
  List.iter
    (fun jobs ->
      let agents = mk_agents 2 in
      let reqs =
        List.concat_map
          (fun a -> List.init n_probes (fun i -> (a, explorer_side, probe_msg i)))
          agents
      in
      let t0 = Unix.gettimeofday () in
      let answers = Distributed.probe_all ~jobs reqs in
      let t = Unix.gettimeofday () -. t0 in
      if jobs = 1 then base := t;
      row "%-10d %-12.2f %-8s %d\n" jobs (1000.0 *. t)
        (Printf.sprintf "%.2fx" (!base /. t))
        (List.length (List.concat_map Distributed.verdicts answers)))
    [ 1; 2; 4 ];
  (* repeated-message workload: while the remote's live router stands
     still, re-probes of the same (from, message) pair answer from the
     per-agent verdict cache without touching a clone *)
  let agent = List.hd (mk_agents 1) in
  let distinct = 8 in
  let reqs =
    List.init (8 * distinct) (fun i -> (agent, explorer_side, probe_msg (i mod distinct)))
  in
  let t0 = Unix.gettimeofday () in
  ignore (Distributed.probe_all ~jobs:4 reqs);
  let s = Distributed.stats agent in
  row
    "repeated-message workload (%d probes of %d messages): %.2f ms, %d vcache hit(s) \
     (%.1f%% hit rate)\n"
    s.Distributed.probes distinct
    (1000.0 *. (Unix.gettimeofday () -. t0))
    s.Distributed.vcache_hits
    (100.0 *. s.Distributed.vcache_hit_rate)

(* ------------------------------------------------------------------ *)
(* P3: probe RPC over the wire, across link qualities                  *)
(* ------------------------------------------------------------------ *)

let experiment_p3 () =
  section "P3" "probe RPC throughput vs link latency (remote transport)";
  let explorer_side = Ipv4.of_string "10.0.2.1" in
  let collector = Ipv4.of_string "10.0.3.2" in
  let upstream =
    Router.create
      (Config_parser.parse
         (Printf.sprintf
            "router id 10.0.2.2; local as 64700;\n\
             protocol bgp provider { neighbor 10.0.2.1 as %d; import all; export none; }\n\
             protocol bgp collector { neighbor 10.0.3.2 as 64701; import all; export none; }"
            Threerouter.provider_as))
  in
  let establish peer remote_as =
    ignore (Router.handle_event upstream ~peer Fsm.Manual_start);
    ignore (Router.handle_event upstream ~peer Fsm.Tcp_connected);
    ignore
      (Router.handle_msg upstream ~peer
         (Msg.Open
            { Msg.version = 4; my_as = remote_as land 0xFFFF; hold_time = 90;
              bgp_id = peer; capabilities = [ Msg.Cap_as4 remote_as ] }));
    ignore (Router.handle_msg upstream ~peer Msg.Keepalive)
  in
  establish explorer_side Threerouter.provider_as;
  establish collector 64701;
  ignore
    (Replay.feed_dump upstream ~peer:collector ~next_hop:collector
       (Gen.generate
          { Gen.default_params with Gen.n_prefixes = min 2_000 table_prefixes;
            collector_as = 64701 }));
  let net = Dice_sim.Network.create () in
  let serving =
    Distributed.agent ~name:"upstream" ~addr:tr_internet_addr
      ~explorer_addr:explorer_side (Distributed.Local (Speakers.bird upstream))
  in
  let srv = Distributed.serve net serving in
  let cl = Probe_rpc.client net ~name:"bench-explorer" in
  let requests n =
    List.init n (fun i ->
        Probe_wire.canonical_request ~from:explorer_side
          (Msg.Update
             { Msg.withdrawn = [];
               attrs =
                 Route.to_attrs
                   (Route.make ~origin:Attr.Igp
                      ~as_path:
                        [ Asn.Path.Seq [ Threerouter.provider_as; Threerouter.customer_as ] ]
                      ~next_hop:explorer_side ());
               nlri = [ p (Printf.sprintf "198.51.%d.0/24" (i mod 256)) ];
             }))
  in
  let n_probes = 64 in
  (* a 20 ms timeout: plenty for the fast links, always too short for the
     first attempt over the slow one — retries and backoff must recover *)
  let config =
    { Probe_rpc.default_config with Probe_rpc.timeout = 0.02; retries = 3 }
  in
  row "%d probes per level, %d in flight, timeout %.0f ms, %d retries\n" n_probes
    config.Probe_rpc.max_in_flight
    (1000.0 *. config.Probe_rpc.timeout)
    config.Probe_rpc.retries;
  row "%-14s %-12s %-12s %-14s %-9s %s\n" "latency (ms)" "wall (ms)" "virtual (s)"
    "probes/s wall" "retries" "timeouts";
  let json_rows = ref [] in
  let level latency =
    Dice_sim.Network.connect net (Probe_rpc.client_node cl)
      (Probe_rpc.server_node srv) ~latency;
    let ep = Probe_rpc.endpoint ~config cl ~server:(Probe_rpc.server_node srv) in
    let v0 = Dice_sim.Network.now net in
    let t0 = Unix.gettimeofday () in
    let answers = Probe_rpc.call_batch ep (requests n_probes) in
    let wall = Unix.gettimeofday () -. t0 in
    let virt = Dice_sim.Network.now net -. v0 in
    let s = Probe_rpc.stats ep in
    assert (List.for_all (fun r -> r <> Probe_rpc.Timeout) answers);
    row "%-14.1f %-12.2f %-12.4f %-14.0f %-9d %d\n" (1000.0 *. latency)
      (1000.0 *. wall) virt
      (float_of_int n_probes /. wall)
      s.Probe_rpc.retries s.Probe_rpc.timeouts;
    json_rows :=
      Dice_util.Json.obj
        [ ("latency_s", Dice_util.Json.float latency);
          ("wall_s", Dice_util.Json.float wall);
          ("virtual_s", Dice_util.Json.float virt);
          ("probes", Dice_util.Json.int n_probes);
          ("throughput_wall_per_s", Dice_util.Json.float (float_of_int n_probes /. wall));
          ("retries", Dice_util.Json.int s.Probe_rpc.retries);
          ("timeouts", Dice_util.Json.int s.Probe_rpc.timeouts);
          ("declines", Dice_util.Json.int s.Probe_rpc.declines) ]
      :: !json_rows
  in
  List.iter level [ 0.0005; 0.005; 0.05 ];
  (* partition: every request exhausts its schedule and reports a timeout *)
  Dice_sim.Network.disconnect net (Probe_rpc.client_node cl) (Probe_rpc.server_node srv);
  let ep = Probe_rpc.endpoint ~config cl ~server:(Probe_rpc.server_node srv) in
  let v0 = Dice_sim.Network.now net in
  let answers = Probe_rpc.call_batch ep (requests 16) in
  let virt = Dice_sim.Network.now net -. v0 in
  let s = Probe_rpc.stats ep in
  assert (List.for_all (fun r -> r = Probe_rpc.Timeout) answers);
  row "partitioned link: %d/%d timed out after %d retries, %.3f virtual s, no hang\n"
    s.Probe_rpc.timeouts 16 s.Probe_rpc.retries virt;
  let json =
    Dice_util.Json.obj
      [ ("experiment", Dice_util.Json.string "p3");
        ("levels", Dice_util.Json.List (List.rev !json_rows));
        ( "partition",
          Dice_util.Json.obj
            [ ("probes", Dice_util.Json.int 16);
              ("timeouts", Dice_util.Json.int s.Probe_rpc.timeouts);
              ("retries", Dice_util.Json.int s.Probe_rpc.retries);
              ("virtual_s", Dice_util.Json.float virt) ] ) ]
  in
  let oc = open_out "BENCH_p3.json" in
  output_string oc (Dice_util.Json.to_string ~indent:true json);
  output_string oc "\n";
  close_out oc;
  row "wrote BENCH_p3.json\n"

(* ------------------------------------------------------------------ *)
(* P4: probe RPC under link faults, across loss rates                  *)
(* ------------------------------------------------------------------ *)

let experiment_p4 () =
  section "P4" "probe RPC under link faults: verdict completeness vs loss rate";
  let explorer_side = Ipv4.of_string "10.0.2.1" in
  let collector = Ipv4.of_string "10.0.3.2" in
  let upstream =
    Router.create
      (Config_parser.parse
         (Printf.sprintf
            "router id 10.0.2.2; local as 64700;\n\
             protocol bgp provider { neighbor 10.0.2.1 as %d; import all; export none; }\n\
             protocol bgp collector { neighbor 10.0.3.2 as 64701; import all; export none; }"
            Threerouter.provider_as))
  in
  let establish peer remote_as =
    ignore (Router.handle_event upstream ~peer Fsm.Manual_start);
    ignore (Router.handle_event upstream ~peer Fsm.Tcp_connected);
    ignore
      (Router.handle_msg upstream ~peer
         (Msg.Open
            { Msg.version = 4; my_as = remote_as land 0xFFFF; hold_time = 90;
              bgp_id = peer; capabilities = [ Msg.Cap_as4 remote_as ] }));
    ignore (Router.handle_msg upstream ~peer Msg.Keepalive)
  in
  establish explorer_side Threerouter.provider_as;
  establish collector 64701;
  ignore
    (Replay.feed_dump upstream ~peer:collector ~next_hop:collector
       (Gen.generate
          { Gen.default_params with Gen.n_prefixes = min 2_000 table_prefixes;
            collector_as = 64701 }));
  let requests n =
    List.init n (fun i ->
        Probe_wire.canonical_request ~from:explorer_side
          (Msg.Update
             { Msg.withdrawn = [];
               attrs =
                 Route.to_attrs
                   (Route.make ~origin:Attr.Igp
                      ~as_path:
                        [ Asn.Path.Seq [ Threerouter.provider_as; Threerouter.customer_as ] ]
                      ~next_hop:explorer_side ());
               nlri = [ p (Printf.sprintf "198.51.%d.0/24" (i mod 256)) ];
             }))
  in
  let n_probes = 128 in
  let fault_seed = 42L in
  let config =
    { Probe_rpc.default_config with Probe_rpc.timeout = 0.02; retries = 5 }
  in
  row "%d probes per level, duplicate=0.1, reorder window=2, fault seed %Ld, \
       timeout %.0f ms, %d retries\n"
    n_probes fault_seed
    (1000.0 *. config.Probe_rpc.timeout)
    config.Probe_rpc.retries;
  row "%-8s %-11s %-9s %-9s %-7s %-9s %-9s %s\n" "loss" "completed" "amplif."
    "timeouts" "dedup" "dropped" "dup'd" "reordered";
  let json_rows = ref [] in
  let level loss =
    (* a fresh wire per level, same upstream RIB behind it: the sweep
       measures the link, not the router *)
    let net = Dice_sim.Network.create () in
    Dice_sim.Network.set_fault_seed net fault_seed;
    let serving =
      Distributed.agent ~name:"upstream" ~addr:tr_internet_addr
        ~explorer_addr:explorer_side (Distributed.Local (Speakers.bird upstream))
    in
    let srv = Distributed.serve net serving in
    let cl = Probe_rpc.client net ~name:"bench-explorer" in
    Dice_sim.Network.connect net (Probe_rpc.client_node cl)
      (Probe_rpc.server_node srv) ~latency:0.001;
    Dice_sim.Network.set_faults net (Probe_rpc.client_node cl)
      (Probe_rpc.server_node srv)
      (Dice_sim.Faults.make ~drop:loss ~duplicate:0.1 ~reorder:2 ());
    let ep = Probe_rpc.endpoint ~config cl ~server:(Probe_rpc.server_node srv) in
    let answers = Probe_rpc.call_batch ep (requests n_probes) in
    ignore (Dice_sim.Network.run net);
    let s = Probe_rpc.stats ep in
    let completed =
      List.length (List.filter (fun r -> r <> Probe_rpc.Timeout) answers)
    in
    let amplification =
      float_of_int (n_probes + s.Probe_rpc.retries) /. float_of_int n_probes
    in
    row "%-8.2f %-11s %-9.2f %-9d %-7d %-9d %-9d %d\n" loss
      (Printf.sprintf "%d/%d" completed n_probes)
      amplification s.Probe_rpc.timeouts (Probe_rpc.dedup_hits srv)
      (Dice_sim.Network.messages_dropped net)
      (Dice_sim.Network.messages_duplicated net)
      (Dice_sim.Network.messages_reordered net);
    json_rows :=
      Dice_util.Json.obj
        [ ("loss", Dice_util.Json.float loss);
          ("probes", Dice_util.Json.int n_probes);
          ("completed", Dice_util.Json.int completed);
          ("retry_amplification", Dice_util.Json.float amplification);
          ("retries", Dice_util.Json.int s.Probe_rpc.retries);
          ("timeouts", Dice_util.Json.int s.Probe_rpc.timeouts);
          ("late_responses", Dice_util.Json.int s.Probe_rpc.late_responses);
          ("frames_executed", Dice_util.Json.int (Probe_rpc.frames_executed srv));
          ("dedup_hits", Dice_util.Json.int (Probe_rpc.dedup_hits srv));
          ("dropped", Dice_util.Json.int (Dice_sim.Network.messages_dropped net));
          ("duplicated", Dice_util.Json.int (Dice_sim.Network.messages_duplicated net));
          ("reordered", Dice_util.Json.int (Dice_sim.Network.messages_reordered net)) ]
      :: !json_rows
  in
  List.iter level [ 0.0; 0.1; 0.2; 0.3; 0.4 ];
  let json =
    Dice_util.Json.obj
      [ ("experiment", Dice_util.Json.string "p4");
        ("fault_seed", Dice_util.Json.string (Int64.to_string fault_seed));
        ("duplicate", Dice_util.Json.float 0.1);
        ("reorder_window", Dice_util.Json.int 2);
        ("levels", Dice_util.Json.List (List.rev !json_rows)) ]
  in
  let oc = open_out "BENCH_p4.json" in
  output_string oc (Dice_util.Json.to_string ~indent:true json);
  output_string oc "\n";
  close_out oc;
  row "wrote BENCH_p4.json\n"

(* ------------------------------------------------------------------ *)
(* P5: heterogeneous federation — mixed-fleet probing                  *)
(* ------------------------------------------------------------------ *)

let experiment_p5 () =
  section "P5" "heterogeneous federation: BIRD-only vs mixed BIRD+Quagga fleet";
  let explorer_side = Ipv4.of_string "10.0.2.1" in
  let collector = Ipv4.of_string "10.0.3.2" in
  let n_private = min 4_000 table_prefixes in
  (* one private table, replayed into every agent regardless of
     implementation: the fleets differ only in what answers the probes *)
  let private_table =
    Gen.to_updates
      (Gen.generate
         { Gen.default_params with Gen.n_prefixes = n_private; collector_as = 64701 })
      ~peer_as:64701 ~next_hop:collector
  in
  let mk_agent impl i =
    let intent =
      Intent.make ~router_id:(Ipv4.of_string "10.0.2.2") ~local_as:(64700 + i)
        ~sessions:
          [ Intent.session "provider" ~export:Intent.Block
              ~neighbor:explorer_side ~remote_as:Threerouter.provider_as;
            Intent.session "collector" ~export:Intent.Block ~neighbor:collector
              ~remote_as:64701 ]
        ()
    in
    let sp =
      match Speakers.create impl (Speaker.Intent intent) with
      | Some sp -> sp
      | None -> invalid_arg ("unknown speaker: " ^ impl)
    in
    Speaker.establish sp ~peer:explorer_side;
    Speaker.establish sp ~peer:collector;
    List.iter (fun m -> ignore (Speaker.feed sp ~peer:collector m)) private_table;
    Distributed.agent
      ~name:(Printf.sprintf "%s-%d" impl i)
      ~addr:tr_internet_addr ~explorer_addr:explorer_side
      (Distributed.Local sp)
  in
  let probe_msg i =
    Msg.Update
      { Msg.withdrawn = [];
        attrs =
          Route.to_attrs
            (Route.make ~origin:Attr.Igp
               ~as_path:
                 [ Asn.Path.Seq [ Threerouter.provider_as; Threerouter.customer_as ] ]
               ~next_hop:explorer_side ());
        nlri = [ p (Printf.sprintf "198.51.%d.0/24" (i mod 256)) ];
      }
  in
  let n_probes = 64 in
  let passes = 2 in
  row "%d private routes behind each agent; %d distinct probes x%d passes per agent, jobs=4\n"
    n_private n_probes passes;
  row "%-12s %-22s %-12s %-14s %-9s %s\n" "fleet" "speakers" "wall (ms)"
    "probes/s wall" "vcache" "hit rate";
  let json_rows = ref [] in
  let fleet name impls =
    let agents = List.mapi (fun i impl -> mk_agent impl i) impls in
    let reqs =
      (* the second pass re-probes the same messages: while the agents'
         live speakers stand still, it must answer from the vcache *)
      List.concat_map
        (fun a ->
          List.concat
            (List.init passes (fun _ ->
                 List.init n_probes (fun i -> (a, explorer_side, probe_msg i)))))
        agents
    in
    let t0 = Unix.gettimeofday () in
    let answers = Distributed.probe_all ~jobs:4 reqs in
    let wall = Unix.gettimeofday () -. t0 in
    let stats = List.map Distributed.stats agents in
    let probes = List.fold_left (fun a s -> a + s.Distributed.probes) 0 stats in
    let hits = List.fold_left (fun a s -> a + s.Distributed.vcache_hits) 0 stats in
    let hit_rate = float_of_int hits /. float_of_int (max 1 probes) in
    let verdicts = List.length (List.concat_map Distributed.verdicts answers) in
    row "%-12s %-22s %-12.2f %-14.0f %-9d %.1f%%\n" name (String.concat "+" impls)
      (1000.0 *. wall)
      (float_of_int probes /. wall)
      hits (100.0 *. hit_rate);
    json_rows :=
      Dice_util.Json.obj
        [ ("fleet", Dice_util.Json.string name);
          ("speakers", Dice_util.Json.List (List.map Dice_util.Json.string impls));
          ("probes", Dice_util.Json.int probes);
          ("wall_s", Dice_util.Json.float wall);
          ("throughput_wall_per_s", Dice_util.Json.float (float_of_int probes /. wall));
          ("vcache_hits", Dice_util.Json.int hits);
          ("vcache_hit_rate", Dice_util.Json.float hit_rate);
          ("verdicts", Dice_util.Json.int verdicts) ]
      :: !json_rows
  in
  fleet "bird-only" [ "bird"; "bird" ];
  fleet "mixed" [ "bird"; "quagga" ];
  let json =
    Dice_util.Json.obj
      [ ("experiment", Dice_util.Json.string "p5");
        ("private_routes", Dice_util.Json.int n_private);
        ("probes_per_agent", Dice_util.Json.int (n_probes * passes));
        ("fleets", Dice_util.Json.List (List.rev !json_rows)) ]
  in
  let oc = open_out "BENCH_p5.json" in
  output_string oc (Dice_util.Json.to_string ~indent:true json);
  output_string oc "\n";
  close_out oc;
  row "wrote BENCH_p5.json\n"

(* ------------------------------------------------------------------ *)
(* P6: divergence panel — throughput vs size, minimization cost        *)
(* ------------------------------------------------------------------ *)

let experiment_p6 () =
  section "P6" "divergence panel: probe throughput vs panel size; repro minimization cost";
  let explorer_side = Ipv4.of_string "10.0.2.1" in
  let collector = Ipv4.of_string "10.0.3.2" in
  let n_private = min 2_000 table_prefixes in
  let config_src =
    Printf.sprintf
      "router id 10.0.2.2; local as 64700;\n\
       protocol bgp provider { neighbor 10.0.2.1 as %d; import all; export none; }\n\
       protocol bgp collector { neighbor 10.0.3.2 as 64701; import all; export none; }"
      Threerouter.provider_as
  in
  let private_table =
    Gen.to_updates
      (Gen.generate
         { Gen.default_params with Gen.n_prefixes = n_private; collector_as = 64701 })
      ~peer_as:64701 ~next_hop:collector
  in
  (* identical state behind every member: same config text, same table —
     only the decision process differs *)
  let mk_member ?(table = private_table) impl =
    let sp = Speakers.create_exn impl (Speaker.Config (Config_parser.parse config_src)) in
    Speaker.establish sp ~peer:explorer_side;
    Speaker.establish sp ~peer:collector;
    List.iter (fun m -> ignore (Speaker.feed sp ~peer:collector m)) table;
    Distributed.agent ~name:impl ~addr:tr_internet_addr
      ~explorer_addr:explorer_side (Distributed.Local sp)
  in
  let probe_msg i =
    Msg.Update
      { Msg.withdrawn = [];
        attrs =
          Route.to_attrs
            (Route.make ~origin:Attr.Igp
               ~as_path:
                 [ Asn.Path.Seq [ Threerouter.provider_as; Threerouter.customer_as ] ]
               ~next_hop:explorer_side ());
        nlri = [ p (Printf.sprintf "198.51.%d.0/24" (i mod 256)) ];
      }
  in
  let n_probes = 64 in
  let exchanges = List.init n_probes (fun i -> (explorer_side, probe_msg i)) in
  row "%d private routes behind each member; %d probe exchanges, jobs=4\n"
    n_private n_probes;
  row "%-8s %-22s %-12s %-16s %s\n" "size" "members" "wall (ms)" "verdicts/s wall"
    "divergences";
  let json_sizes = ref [] in
  List.iter
    (fun impls ->
      (* fresh members per level: a shared verdict cache across levels
         would answer repeats from memory and fake the scaling *)
      let agents = List.map mk_member impls in
      let t0 = Unix.gettimeofday () in
      let ds = Panel.probe ~jobs:4 ~agents exchanges in
      let wall = Unix.gettimeofday () -. t0 in
      let verdicts = List.length impls * n_probes in
      row "%-8d %-22s %-12.2f %-16.0f %d\n" (List.length impls)
        (String.concat "+" impls) (1000.0 *. wall)
        (float_of_int verdicts /. wall)
        (List.length ds);
      json_sizes :=
        Dice_util.Json.obj
          [ ("members", Dice_util.Json.List (List.map Dice_util.Json.string impls));
            ("size", Dice_util.Json.int (List.length impls));
            ("probes", Dice_util.Json.int n_probes);
            ("verdicts", Dice_util.Json.int verdicts);
            ("wall_s", Dice_util.Json.float wall);
            ("throughput_wall_per_s", Dice_util.Json.float (float_of_int verdicts /. wall));
            ("divergences", Dice_util.Json.int (List.length ds)) ]
        :: !json_sizes)
    [ [ "bird" ]; [ "bird"; "quagga" ]; [ "bird"; "quagga"; "xorp" ] ];
  (* minimization cost: a seeded tie-break divergence (the incumbent's
     lower next hop keeps it installed under XORP's IGP-cost step while
     BIRD and Quagga fall through to peer identity) hidden in a schedule
     of noise announcements — delta-debug it down and time the whole
     shrink *)
  let incumbent =
    ( collector,
      Msg.Update
        { Msg.withdrawn = [];
          attrs =
            Route.to_attrs
              (Route.make ~origin:Attr.Igp
                 ~as_path:[ Asn.Path.Seq [ 64701; 64512 ] ]
                 ~next_hop:(Ipv4.of_string "10.0.0.1") ());
          nlri = [ p "203.0.113.0/24" ];
        } )
  in
  let trigger =
    ( explorer_side,
      Msg.Update
        { Msg.withdrawn = [];
          attrs =
            Route.to_attrs
              (Route.make ~origin:Attr.Igp ~med:(Some 50)
                 ~communities:[ Community.make 64510 77 ]
                 ~as_path:[ Asn.Path.Seq [ Threerouter.provider_as; 64512 ] ]
                 ~next_hop:explorer_side ());
          nlri = [ p "203.0.113.0/24" ];
        } )
  in
  let noise i =
    ( explorer_side,
      Msg.Update
        { Msg.withdrawn = [];
          attrs =
            Route.to_attrs
              (Route.make ~origin:Attr.Igp
                 ~as_path:[ Asn.Path.Seq [ Threerouter.provider_as; 64900 + i ] ]
                 ~next_hop:explorer_side ());
          nlri = [ p (Printf.sprintf "100.%d.0.0/16" (i mod 200)) ];
        } )
  in
  let schedule_len = 32 in
  let schedule =
    List.init schedule_len (fun i ->
        if i = schedule_len / 2 then trigger else noise i)
  in
  let agents = List.map (mk_member ~table:[ snd incumbent ]) Speakers.names in
  let hit =
    match
      List.find_opt
        (fun (d : Panel.divergence) -> Prefix.equal d.Panel.prefix (p "203.0.113.0/24"))
        (Panel.probe ~jobs:1 ~agents schedule)
    with
    | Some d -> { Panel.schedule; divergence = d }
    | None -> failwith "P6: seeded divergence did not fire"
  in
  let t0 = Unix.gettimeofday () in
  let minimal, st = Minimize.divergence ~jobs:1 ~agents hit in
  let wall = Unix.gettimeofday () -. t0 in
  let reproduced =
    List.exists
      (fun d -> Panel.signature d = Panel.signature hit.Panel.divergence)
      (Panel.probe ~jobs:1 ~agents minimal)
  in
  row
    "minimization: %d -> %d message(s), %d attribute shrink(s), %d predicate \
     test(s), %.2f ms wall (%s)\n"
    st.Minimize.initial_len
    (List.length minimal)
    st.Minimize.shrunk st.Minimize.tests (1000.0 *. wall)
    (if reproduced then "minimal schedule reproduces" else "REPRO LOST");
  let json =
    Dice_util.Json.obj
      [ ("experiment", Dice_util.Json.string "p6");
        ("private_routes", Dice_util.Json.int n_private);
        ("sizes", Dice_util.Json.List (List.rev !json_sizes));
        ( "minimize",
          Dice_util.Json.obj
            [ ("initial_len", Dice_util.Json.int st.Minimize.initial_len);
              ("final_len", Dice_util.Json.int (List.length minimal));
              ("attribute_shrinks", Dice_util.Json.int st.Minimize.shrunk);
              ("predicate_tests", Dice_util.Json.int st.Minimize.tests);
              ("wall_s", Dice_util.Json.float wall);
              ("reproduced", Dice_util.Json.bool reproduced) ] ) ]
  in
  let oc = open_out "BENCH_p6.json" in
  output_string oc (Dice_util.Json.to_string ~indent:true json);
  output_string oc "\n";
  close_out oc;
  row "wrote BENCH_p6.json\n"

(* ------------------------------------------------------------------ *)
(* P7: incremental path-prefix solving                                 *)
(* ------------------------------------------------------------------ *)

let experiment_p7 () =
  section "P7"
    "incremental path-prefix solving: negation throughput and time to full branch \
     coverage (F1 filter, generational search)";
  let measure ~incremental =
    let config =
      { Explorer.default_config with
        Explorer.strategy = Strategy.Generational;
        max_runs = 192;
        incremental;
      }
    in
    let report = Explorer.explore ~config filter_program in
    let total = Coverage.direction_count report.Explorer.coverage in
    (* the execution index at which cumulative new directions reach the
       final total: how much of the budget full branch coverage needed *)
    let runs_to_full =
      let cum = ref 0 and found = ref None in
      List.iter
        (fun (r : Explorer.run) ->
          cum := !cum + r.Explorer.new_directions;
          if !found = None && !cum >= total then found := Some (r.Explorer.index + 1))
        report.Explorer.runs;
      Option.value !found ~default:report.Explorer.executions
    in
    (* honest wall-clock for that milestone: a fresh exploration capped at
       exactly that many runs, timed end to end *)
    let t0 = Unix.gettimeofday () in
    ignore
      (Explorer.explore
         ~config:{ config with Explorer.max_runs = runs_to_full }
         filter_program);
    let time_to_full = Unix.gettimeofday () -. t0 in
    (report, runs_to_full, time_to_full)
  in
  let line label (report, runs_to_full, time_to_full) =
    let ss = report.Explorer.solver_stats in
    let neg_rate =
      float_of_int report.Explorer.negations_sat /. max 1e-9 report.Explorer.elapsed_s
    in
    let reuse_rate =
      float_of_int ss.Dice_concolic.Solver.prefix_reuses
      /. float_of_int (max 1 ss.Dice_concolic.Solver.calls)
    in
    row "%-14s %-14.0f %-12d %-14.2f %-12s %-10d %d\n" label neg_rate runs_to_full
      (1000.0 *. time_to_full)
      (Printf.sprintf "%.1f%%" (100.0 *. reuse_rate))
      ss.Dice_concolic.Solver.simplifications
      ss.Dice_concolic.Solver.first_violated_skips;
    (neg_rate, reuse_rate)
  in
  row "%-14s %-14s %-12s %-14s %-12s %-10s %s\n" "solver" "neg-sat/s" "runs-to-full"
    "time-to-full" "prefix-reuse" "simplif." "scan-skips";
  let before = measure ~incremental:false in
  let after = measure ~incremental:true in
  let before_rate, before_reuse = line "from-scratch" before in
  let after_rate, after_reuse = line "incremental" after in
  let json_side label (report, runs_to_full, time_to_full) rate reuse =
    let ss = report.Explorer.solver_stats in
    ( label,
      Dice_util.Json.obj
        [ ("negations_sat", Dice_util.Json.int report.Explorer.negations_sat);
          ("elapsed_s", Dice_util.Json.float report.Explorer.elapsed_s);
          ("negations_sat_per_s", Dice_util.Json.float rate);
          ("runs_to_full_coverage", Dice_util.Json.int runs_to_full);
          ("time_to_full_coverage_s", Dice_util.Json.float time_to_full);
          ("prefix_reuse_rate", Dice_util.Json.float reuse);
          ("prefix_reuses", Dice_util.Json.int ss.Dice_concolic.Solver.prefix_reuses);
          ("simplifications", Dice_util.Json.int ss.Dice_concolic.Solver.simplifications);
          ( "first_violated_skips",
            Dice_util.Json.int ss.Dice_concolic.Solver.first_violated_skips );
          ( "candidates_deduped",
            Dice_util.Json.int ss.Dice_concolic.Solver.candidates_deduped );
          ("distinct_paths", Dice_util.Json.int report.Explorer.distinct_paths);
          ( "coverage_ratio",
            Dice_util.Json.float (Explorer.coverage_ratio report) ) ] )
  in
  let json =
    Dice_util.Json.obj
      [ ("experiment", Dice_util.Json.string "p7");
        ("strategy", Dice_util.Json.string "generational");
        json_side "from_scratch" before before_rate before_reuse;
        json_side "incremental" after after_rate after_reuse;
        ( "speedup_negations_per_s",
          Dice_util.Json.float (after_rate /. max 1e-9 before_rate) ) ]
  in
  let oc = open_out "BENCH_p7.json" in
  output_string oc (Dice_util.Json.to_string ~indent:true json);
  output_string oc "\n";
  close_out oc;
  row "wrote BENCH_p7.json\n"

(* ------------------------------------------------------------------ *)
(* P8: config translation — dialect cost, intent-panel divergence hunt *)
(* ------------------------------------------------------------------ *)

let experiment_p8 () =
  section "P8"
    "config translation: per-dialect render/parse/realize cost; divergence hunt \
     over an intent-configured panel";
  let explorer_side = Ipv4.of_string "10.0.2.1" in
  let collector = Ipv4.of_string "10.0.3.2" in
  let pat base low high = { Filter.base = p base; low; high } in
  (* one operator intent, sized like a real edge policy: two prefix
     sets, a three-rule import policy whose default is deliberately
     unstated — the seeded filter-interpreter quirk *)
  let intent =
    Intent.make ~router_id:(Ipv4.of_string "10.0.2.2") ~local_as:64700
      ~prefix_sets:
        [ ("incumbents", [ pat "198.0.0.0/16" 16 16; pat "203.0.113.0/24" 24 24 ]);
          ("martians", [ pat "10.0.0.0/8" 8 32; pat "192.168.0.0/16" 16 32 ]) ]
      ~policies:
        [ Intent.policy "collector_in"
            [ Intent.deny ~matches:[ Intent.Prefixes "martians" ] ();
              Intent.permit
                ~matches:[ Intent.Prefixes "incumbents" ]
                ~actions:[ Intent.Set_local_pref 110 ] ();
              Intent.permit
                ~matches:[ Intent.Transits 64512 ]
                ~actions:[ Intent.Add_community (Community.make 64700 100) ] () ] ]
      ~sessions:
        [ Intent.session "provider" ~export:Intent.Block ~neighbor:explorer_side
            ~remote_as:Threerouter.provider_as;
          Intent.session "collector" ~import:(Intent.Apply "collector_in")
            ~neighbor:collector ~remote_as:64801 ]
      ()
  in
  let iters = 500 in
  row "%d translation iterations per dialect\n" iters;
  row "%-8s %-12s %-12s %-12s %s\n" "dialect" "rendered-b" "renders/s" "parses/s"
    "realizes/s";
  let json_dialects = ref [] in
  List.iter
    (fun name ->
      let (module D : Dialect.S) = Speakers.dialect_exn name in
      let text = D.render intent in
      let rate f =
        let t0 = Unix.gettimeofday () in
        for _ = 1 to iters do
          ignore (Sys.opaque_identity (f ()))
        done;
        float_of_int iters /. (Unix.gettimeofday () -. t0)
      in
      let renders = rate (fun () -> D.render intent) in
      let parses = rate (fun () -> D.parse text) in
      let realizes = rate (fun () -> Dialect.realize (module D) intent) in
      row "%-8s %-12d %-12.0f %-12.0f %.0f\n" name (String.length text) renders
        parses realizes;
      json_dialects :=
        Dice_util.Json.obj
          [ ("dialect", Dice_util.Json.string name);
            ("rendered_bytes", Dice_util.Json.int (String.length text));
            ("renders_per_s", Dice_util.Json.float renders);
            ("parses_per_s", Dice_util.Json.float parses);
            ("realizes_per_s", Dice_util.Json.float realizes) ]
        :: !json_dialects)
    Speakers.names;
  (* the same intent behind a full panel: XORP's default-accept admits
     collector routes the policy never matched, so its tables differ
     from BIRD's and Quagga's before the first probe arrives *)
  let incumbent prefix path =
    ( collector,
      Msg.Update
        { Msg.withdrawn = [];
          attrs =
            Route.to_attrs
              (Route.make ~origin:Attr.Igp ~as_path:[ Asn.Path.Seq path ]
                 ~next_hop:collector ());
          nlri = [ p prefix ];
        } )
  in
  let setup =
    [ incumbent "198.0.0.0/16" [ 64801; 64900 ];   (* matched: all members *)
      incumbent "198.0.0.0/8" [ 64801; 64901 ];    (* unmatched: xorp only *)
      incumbent "198.51.100.0/22" [ 64801; 64902 ] (* unmatched: xorp only *) ]
  in
  let members =
    List.map
      (fun name ->
        let sp = Speakers.create_exn name (Speaker.Intent intent) in
        Speaker.establish sp ~peer:explorer_side;
        Speaker.establish sp ~peer:collector;
        List.iter (fun (peer, msg) -> ignore (Speaker.feed sp ~peer msg)) setup;
        Distributed.agent ~name ~addr:tr_internet_addr
          ~explorer_addr:explorer_side (Distributed.Local sp))
      Speakers.names
  in
  let n_probes = 64 in
  let exchanges =
    (* half the probes land under the /22 the quirk admitted into XORP
       alone; the rest are uncontested *)
    List.init n_probes (fun i ->
        ( explorer_side,
          Msg.Update
            { Msg.withdrawn = [];
              attrs =
                Route.to_attrs
                  (Route.make ~origin:Attr.Igp
                     ~as_path:
                       [ Asn.Path.Seq
                           [ Threerouter.provider_as; Threerouter.customer_as ] ]
                     ~next_hop:explorer_side ());
              nlri = [ p (Printf.sprintf "198.51.%d.0/24" (96 + (i mod 8))) ];
            } ))
  in
  let t0 = Unix.gettimeofday () in
  let ds = Panel.probe ~jobs:4 ~agents:members exchanges in
  let wall = Unix.gettimeofday () -. t0 in
  let verdicts = List.length Speakers.names * n_probes in
  row
    "intent panel (%s): %d probes, %.2f ms wall, %.0f verdicts/s, %d divergence(s)\n"
    (String.concat "+" Speakers.names)
    n_probes (1000.0 *. wall)
    (float_of_int verdicts /. wall)
    (List.length ds);
  let json =
    Dice_util.Json.obj
      [ ("experiment", Dice_util.Json.string "p8");
        ( "translation",
          Dice_util.Json.obj
            [ ("iters", Dice_util.Json.int iters);
              ("dialects", Dice_util.Json.List (List.rev !json_dialects)) ] );
        ( "panel",
          Dice_util.Json.obj
            [ ( "members",
                Dice_util.Json.List (List.map Dice_util.Json.string Speakers.names) );
              ("probes", Dice_util.Json.int n_probes);
              ("wall_s", Dice_util.Json.float wall);
              ( "verdicts_per_s",
                Dice_util.Json.float (float_of_int verdicts /. wall) );
              ("divergences", Dice_util.Json.int (List.length ds)) ] ) ]
  in
  let oc = open_out "BENCH_p8.json" in
  output_string oc (Dice_util.Json.to_string ~indent:true json);
  output_string oc "\n";
  close_out oc;
  row "wrote BENCH_p8.json\n"

(* ------------------------------------------------------------------ *)
(* P9: crash tolerance — completeness, fail-fast, recovery, jitter     *)
(* ------------------------------------------------------------------ *)

let experiment_p9 () =
  section "P9"
    "crash tolerance: verdict completeness vs crash rate, breaker fail-fast \
     latency, time-to-recovery, jittered-backoff retry amplification";
  let explorer_side = Ipv4.of_string "10.0.2.1" in
  (* a deliberately small upstream behind each wire: the sweep measures
     the crash machinery, not the RIB *)
  let upstream () =
    let r =
      Router.create
        (Config_parser.parse
           (Printf.sprintf
              "router id 10.0.2.2; local as 64700;\n\
               protocol bgp provider { neighbor 10.0.2.1 as %d; import all; \
               export none; }"
              Threerouter.provider_as))
    in
    ignore (Router.handle_event r ~peer:explorer_side Fsm.Manual_start);
    ignore (Router.handle_event r ~peer:explorer_side Fsm.Tcp_connected);
    ignore
      (Router.handle_msg r ~peer:explorer_side
         (Msg.Open
            { Msg.version = 4; my_as = Threerouter.provider_as land 0xFFFF;
              hold_time = 90; bgp_id = explorer_side;
              capabilities = [ Msg.Cap_as4 Threerouter.provider_as ] }));
    ignore (Router.handle_msg r ~peer:explorer_side Msg.Keepalive);
    r
  in
  let requests n =
    List.init n (fun i ->
        Probe_wire.canonical_request ~from:explorer_side
          (Msg.Update
             { Msg.withdrawn = [];
               attrs =
                 Route.to_attrs
                   (Route.make ~origin:Attr.Igp
                      ~as_path:
                        [ Asn.Path.Seq
                            [ Threerouter.provider_as; Threerouter.customer_as ] ]
                      ~next_hop:explorer_side ());
               nlri = [ p (Printf.sprintf "198.51.%d.0/24" (i mod 256)) ];
             }))
  in
  let wire () =
    let net = Dice_sim.Network.create () in
    Dice_sim.Network.set_crash_seed net Dice_sim.Network.default_crash_seed;
    let serving =
      Distributed.agent ~name:"upstream" ~addr:tr_internet_addr
        ~explorer_addr:explorer_side
        (Distributed.Local (Speakers.bird (upstream ())))
    in
    let srv = Distributed.serve net serving in
    let cl = Probe_rpc.client net ~name:"bench-explorer" in
    Dice_sim.Network.connect net (Probe_rpc.client_node cl)
      (Probe_rpc.server_node srv) ~latency:0.001;
    (net, serving, srv, cl)
  in
  (* --- completeness vs crash rate, under the default crash seed --- *)
  let n_probes = 200 in
  let config =
    { Probe_rpc.default_config with
      Probe_rpc.timeout = 0.05; retries = 6; jitter = 0.1;
      breaker_threshold = 3; breaker_cooldown = 0.2 }
  in
  row "crash sweep: %d probes per level, downtime 0.1 s, crash seed %Ld\n"
    n_probes Dice_sim.Network.default_crash_seed;
  row "%-8s %-11s %-8s %-9s %-9s %-7s %s\n" "crash" "completed" "crashes"
    "restarts" "requeued" "incarn." "virtual-s";
  let json_sweep = ref [] in
  let crash_level rate =
    let net, serving, srv, cl = wire () in
    let harness = Distributed.Recovery.attach serving in
    Dice_sim.Network.set_restart_hook net (Probe_rpc.server_node srv) (fun () ->
        Distributed.Recovery.crash_restart harness);
    let _stop : unit -> unit =
      Probe_rpc.start_heartbeats ~until:60.0 srv
        ~to_:(Probe_rpc.client_node cl) ~period:0.05
        ~incarnation:(fun () -> Distributed.Recovery.incarnation harness)
        ~state_version:(fun () -> Distributed.Recovery.state_version harness)
    in
    if rate > 0.0 then
      Dice_sim.Network.set_node_faults net (Probe_rpc.server_node srv)
        (Dice_sim.Faults.node ~crash:rate ~downtime:0.1 ());
    let ep = Probe_rpc.endpoint ~config cl ~server:(Probe_rpc.server_node srv) in
    let v0 = Dice_sim.Network.now net in
    let answers = Probe_rpc.call_batch ep (requests n_probes) in
    let virt = Dice_sim.Network.now net -. v0 in
    ignore (Dice_sim.Network.run net);
    let completed =
      List.length (List.filter (fun r -> r <> Probe_rpc.Timeout) answers)
    in
    row "%-8.2f %-11s %-8d %-9d %-9d %-7d %.2f\n" rate
      (Printf.sprintf "%d/%d" completed n_probes)
      (Dice_sim.Network.node_crashes net)
      (Dice_sim.Network.node_restarts net)
      (Dice_sim.Network.messages_requeued net)
      (Distributed.Recovery.incarnation harness)
      virt;
    json_sweep :=
      Dice_util.Json.obj
        [ ("crash_rate", Dice_util.Json.float rate);
          ("probes", Dice_util.Json.int n_probes);
          ("completed", Dice_util.Json.int completed);
          ("crashes", Dice_util.Json.int (Dice_sim.Network.node_crashes net));
          ("restarts", Dice_util.Json.int (Dice_sim.Network.node_restarts net));
          ("requeued", Dice_util.Json.int (Dice_sim.Network.messages_requeued net));
          ("incarnation", Dice_util.Json.int (Distributed.Recovery.incarnation harness));
          ("virtual_s", Dice_util.Json.float virt) ]
      :: !json_sweep
  in
  List.iter crash_level [ 0.0; 0.05; 0.1; 0.2 ];
  (* --- breaker fail-fast: virtual seconds burned per probe at a dead
     member, closed vs open --- *)
  let fconfig =
    { Probe_rpc.default_config with
      Probe_rpc.timeout = 0.05; retries = 2; backoff = 2.0;
      breaker_threshold = 2; breaker_cooldown = 0.2 }
  in
  let net, _serving, srv, cl = wire () in
  let ep = Probe_rpc.endpoint ~config:fconfig cl ~server:(Probe_rpc.server_node srv) in
  let reqs = requests 16 in
  let timed f =
    let t0 = Dice_sim.Network.now net in
    ignore (f ());
    Dice_sim.Network.now net -. t0
  in
  Dice_sim.Network.pause_node net (Probe_rpc.server_node srv);
  (* two full-budget timeouts open the breaker *)
  let closed_lat =
    List.fold_left
      (fun acc r -> acc +. timed (fun () -> Probe_rpc.call ep r))
      0.0
      [ List.nth reqs 0; List.nth reqs 1 ]
    /. 2.0
  in
  let n_fast = 10 in
  let open_lat =
    List.fold_left
      (fun acc i -> acc +. timed (fun () -> Probe_rpc.call ep (List.nth reqs (2 + i))))
      0.0
      (List.init n_fast Fun.id)
    /. float_of_int n_fast
  in
  let fail_fast = (Probe_rpc.stats ep).Probe_rpc.fail_fast in
  row
    "fail-fast: closed-breaker probe burns %.3f virtual s, open-breaker %.4f \
     (%d declined locally)\n"
    closed_lat open_lat fail_fast;
  (* --- time-to-recovery: node resumes, cooldown passes, half-open
     trial heals — measured from resume to the first verdict --- *)
  Dice_sim.Network.resume_node net (Probe_rpc.server_node srv);
  ignore (Dice_sim.Network.run net);
  let t_resume = Dice_sim.Network.now net in
  let rec until_ok tries =
    match Probe_rpc.call ep (List.nth reqs 15) with
    | Probe_rpc.Verdicts _ -> Dice_sim.Network.now net
    | _ when tries = 0 -> Dice_sim.Network.now net
    | _ ->
      Dice_sim.Network.schedule net ~delay:0.05 (fun () -> ());
      ignore (Dice_sim.Network.run net);
      until_ok (tries - 1)
  in
  let recovery = until_ok 100 -. t_resume in
  row "time-to-recovery: %.3f virtual s from restart to the first verdict \
       (cooldown %.2f s, polling every 0.05 s)\n"
    recovery fconfig.Probe_rpc.breaker_cooldown;
  (* --- retry amplification: jittered vs synchronized backoff on a
     lossy (but crash-free) link, same fault seed --- *)
  let amplification jitter =
    let net, _serving, srv, cl = wire () in
    Dice_sim.Network.set_fault_seed net 42L;
    Dice_sim.Network.set_faults net (Probe_rpc.client_node cl)
      (Probe_rpc.server_node srv)
      (Dice_sim.Faults.make ~drop:0.3 ~duplicate:0.1 ~reorder:2 ());
    let config =
      { Probe_rpc.default_config with
        Probe_rpc.timeout = 0.02; retries = 5; jitter }
    in
    let ep = Probe_rpc.endpoint ~config cl ~server:(Probe_rpc.server_node srv) in
    ignore (Probe_rpc.call_batch ep (requests 128));
    ignore (Dice_sim.Network.run net);
    let s = Probe_rpc.stats ep in
    float_of_int (128 + s.Probe_rpc.retries) /. 128.0
  in
  let amp_sync = amplification 0.0 in
  let amp_jit = amplification 0.25 in
  row
    "retry amplification at 30%% loss: %.3f synchronized, %.3f with 0.25 \
     jitter (delta %+.3f)\n"
    amp_sync amp_jit (amp_jit -. amp_sync);
  let json =
    Dice_util.Json.obj
      [ ("experiment", Dice_util.Json.string "p9");
        ( "crash_seed",
          Dice_util.Json.string (Int64.to_string Dice_sim.Network.default_crash_seed) );
        ("crash_sweep", Dice_util.Json.List (List.rev !json_sweep));
        ( "fail_fast",
          Dice_util.Json.obj
            [ ("closed_probe_s", Dice_util.Json.float closed_lat);
              ("open_probe_s", Dice_util.Json.float open_lat);
              ("declined_locally", Dice_util.Json.int fail_fast) ] );
        ( "recovery",
          Dice_util.Json.obj
            [ ("cooldown_s", Dice_util.Json.float fconfig.Probe_rpc.breaker_cooldown);
              ("time_to_first_verdict_s", Dice_util.Json.float recovery) ] );
        ( "jitter",
          Dice_util.Json.obj
            [ ("amplification_synchronized", Dice_util.Json.float amp_sync);
              ("amplification_jittered", Dice_util.Json.float amp_jit);
              ("delta", Dice_util.Json.float (amp_jit -. amp_sync)) ] ) ]
  in
  let oc = open_out "BENCH_p9.json" in
  output_string oc (Dice_util.Json.to_string ~indent:true json);
  output_string oc "\n";
  close_out oc;
  row "wrote BENCH_p9.json\n"

(* ------------------------------------------------------------------ *)
(* P10: fleet-scale topology generation with shared-RIB memory         *)
(* ------------------------------------------------------------------ *)

let experiment_p10 () =
  section "P10" "fleet scale: updates/s per domain and resident memory per domain";
  let module Spec = Dice_topology.Topology.Spec in
  let module Tgen = Dice_topology.Gen in
  let module Fleet = Dice_topology.Fleet in
  let module Store = Dice_checkpoint.Store in
  let updates_per_domain = if full then 256 else 64 in
  let jobs = max 1 (min 4 (Dice_exec.Pool.available_parallelism ())) in
  let json_rows = ref [] in
  row "%-8s %-8s %12s %14s %14s %12s %10s\n" "domains" "links" "updates/s"
    "upd/s/domain" "words/domain" "rib-shared" "ckpt-dedup";
  List.iter
    (fun domains ->
      Gc.compact ();
      let before = (Gc.stat ()).Gc.live_words in
      let spec = Tgen.generate ~seed:31L ~domains () in
      let fl = Fleet.realize spec in
      Fleet.establish fl;
      let t0 = Unix.gettimeofday () in
      let st = Fleet.drive ~jobs ~updates_per_domain ~seed:31L fl in
      let wall = Unix.gettimeofday () -. t0 in
      Gc.compact ();
      let live_words = (Gc.stat ()).Gc.live_words - before in
      let words_per_domain = live_words / domains in
      let throughput = float_of_int st.Fleet.delivered /. wall in
      (* shared-RIB memory: how much of a mutated explorer clone's Loc-RIB
         is physically the live speaker's trie (first persistent-trie
         domain in the fleet) *)
      let shared, clone_nodes =
        match
          List.find_opt
            (fun (d : Spec.domain) -> d.Spec.speaker = "bird")
            spec.Spec.domains
        with
        | Some d -> Fleet.rib_sharing fl ~domain:d.Spec.name
        | None -> (0, 0)
      in
      let rib_shared =
        if clone_nodes = 0 then 0.0
        else float_of_int shared /. float_of_int clone_nodes
      in
      (* checkpoint pages content-deduped across the fleet's shared store:
         every domain captured live plus one mutated explorer clone *)
      Fleet.checkpoint_all ~clones:1 fl;
      let store = Fleet.store fl in
      let dedup = Store.dedup_ratio store in
      let resident = Store.resident_bytes store in
      Fleet.release_checkpoints fl;
      row "%-8d %-8d %12.0f %14.0f %14d %11.0f%% %9.0f%%\n" domains
        (List.length spec.Spec.links) throughput
        (throughput /. float_of_int domains)
        words_per_domain (100.0 *. rib_shared) (100.0 *. dedup);
      json_rows :=
        Dice_util.Json.obj
          [ ("domains", Dice_util.Json.int domains);
            ("links", Dice_util.Json.int (List.length spec.Spec.links));
            ("updates_fed", Dice_util.Json.int st.Fleet.fed);
            ("updates_delivered", Dice_util.Json.int st.Fleet.delivered);
            ("rounds", Dice_util.Json.int st.Fleet.rounds);
            ("wall_s", Dice_util.Json.float wall);
            ("updates_per_s", Dice_util.Json.float throughput);
            ("updates_per_s_per_domain", Dice_util.Json.float (throughput /. float_of_int domains));
            ("live_words_per_domain", Dice_util.Json.int words_per_domain);
            ("rib_clone_nodes", Dice_util.Json.int clone_nodes);
            ("rib_shared_nodes", Dice_util.Json.int shared);
            ("rib_shared_fraction", Dice_util.Json.float rib_shared);
            ("checkpoint_captures", Dice_util.Json.int (Store.captures store));
            ("checkpoint_dedup_ratio", Dice_util.Json.float dedup);
            ("checkpoint_resident_bytes", Dice_util.Json.int resident) ]
        :: !json_rows)
    [ 1; 4; 16; 64 ];
  let json =
    Dice_util.Json.obj
      [ ("experiment", Dice_util.Json.string "p10");
        ("updates_per_domain", Dice_util.Json.int updates_per_domain);
        ("jobs", Dice_util.Json.int jobs);
        ("fleets", Dice_util.Json.List (List.rev !json_rows)) ]
  in
  let oc = open_out "BENCH_p10.json" in
  output_string oc (Dice_util.Json.to_string ~indent:true json);
  output_char oc '\n';
  close_out oc;
  row "wrote BENCH_p10.json\n"

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let micro_benchmarks () =
  section "micro" "hot-path micro-benchmarks (Bechamel, ns/op)";
  let open Bechamel in
  let router, _, _ = loaded_provider ~n:(min 2_000 table_prefixes) () in
  let announce_msg =
    Msg.Update
      { withdrawn = [];
        attrs = Route.to_attrs (customer_route ());
        nlri = [ p "203.0.113.0/24" ];
      }
  in
  let encoded = Msg.encode announce_msg in
  let live_image = Router.snapshot router in
  let loc = Router.loc_rib router in
  let solver_query () =
    let x = Dice_concolic.Sym.var ~name:"bx" ~width:32 in
    ignore
      (Dice_concolic.Solver.solve ~hint:(Hashtbl.create 0)
         [ { Dice_concolic.Path.expr =
               Dice_concolic.Sym.Binop
                 (Dice_concolic.Sym.Eq,
                  Dice_concolic.Sym.Binop
                    (Dice_concolic.Sym.And, Dice_concolic.Sym.of_var x,
                     Dice_concolic.Sym.const ~width:32 0xFFFF00L),
                  Dice_concolic.Sym.const ~width:32 0xAB00L);
             expected_nonzero = true;
           } ])
  in
  let tests =
    [ Test.make ~name:"update-processing (E2/E3 hot path)"
        (Staged.stage (fun () -> ignore (Router.handle_msg router ~peer:tr_internet_addr announce_msg)));
      Test.make ~name:"msg-decode"
        (Staged.stage (fun () -> ignore (Msg.decode encoded)));
      Test.make ~name:"msg-encode"
        (Staged.stage (fun () -> ignore (Msg.encode announce_msg)));
      Test.make ~name:"router-snapshot (checkpoint cost, E1)"
        (Staged.stage (fun () -> ignore (Router.snapshot router)));
      Test.make ~name:"cow-capture (E1)"
        (Staged.stage
           (let mgr = Fork.create () in
            fun () ->
              let cp = Fork.checkpoint mgr ~live_image in
              Fork.drop_checkpoint cp));
      Test.make ~name:"rib-longest-match"
        (Staged.stage (fun () -> ignore (Rib.Loc.longest_match (Ipv4.of_string "198.51.100.1") loc)));
      Test.make ~name:"solver-query (F1)" (Staged.stage solver_query);
      Test.make ~name:"filter-eval (concrete fast path)"
        (Staged.stage
           (let cr = Croute.of_route (p "10.1.2.0/24") (customer_route ()) in
            fun () ->
              ignore
                (Filter_interp.run (Dice_concolic.Engine.null ()) ~source_as:64501
                   ~local_as:64510 sample_filter cr)))
    ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let analyzed = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols_result ->
          let ns =
            match Analyze.OLS.estimates ols_result with
            | Some (est :: _) -> est
            | Some [] | None -> Float.nan
          in
          row "%-42s %12.1f ns/op\n" name ns)
        analyzed)
    tests

(* ------------------------------------------------------------------ *)
(* X1/X2: the paper's envisioned extensions, measured                  *)
(* ------------------------------------------------------------------ *)

let experiment_x1 () =
  section "X1" "cross-domain exploration through a narrow interface (paper §2.4)";
  (* the upstream keeps its table private (export none): only remote
     probing can see origin conflicts *)
  let upstream =
    Router.create
      (Config_parser.parse
         {|
         router id 10.0.2.2;
         local as 64700;
         protocol bgp provider { neighbor 10.0.2.1 as 64510; import all; export none; }
         protocol bgp collector { neighbor 10.0.3.2 as 64701; import all; export none; }
         |})
  in
  let establish r peer remote_as =
    ignore (Router.handle_event r ~peer Fsm.Manual_start);
    ignore (Router.handle_event r ~peer Fsm.Tcp_connected);
    ignore
      (Router.handle_msg r ~peer
         (Msg.Open
            { Msg.version = 4; my_as = remote_as land 0xFFFF; hold_time = 90; bgp_id = peer;
              capabilities = [ Msg.Cap_as4 remote_as ] }));
    ignore (Router.handle_msg r ~peer Msg.Keepalive)
  in
  establish upstream (Ipv4.of_string "10.0.2.1") 64510;
  establish upstream (Ipv4.of_string "10.0.3.2") 64701;
  let private_trace =
    Gen.generate
      { Gen.default_params with Gen.n_prefixes = min 4_000 table_prefixes;
        collector_as = 64701 }
  in
  ignore
    (Replay.feed_dump upstream ~peer:(Ipv4.of_string "10.0.3.2")
       ~next_hop:(Ipv4.of_string "10.0.3.2") private_trace);
  (* the upstream also routes space inside the provider's leaky 198/8
     block — the routes the misconfiguration endangers *)
  List.iter
    (fun (prefix, origin) ->
      let route =
        Route.make ~origin:Attr.Igp
          ~as_path:[ Asn.Path.Seq [ 64701; origin ] ]
          ~next_hop:(Ipv4.of_string "10.0.3.2") ()
      in
      ignore
        (Router.handle_msg upstream ~peer:(Ipv4.of_string "10.0.3.2")
           (Msg.Update
              { Msg.withdrawn = []; attrs = Route.to_attrs route; nlri = [ p prefix ] })))
    [ ("198.0.0.0/16", 64999); ("198.32.0.0/14", 64998); ("198.128.0.0/12", 64997) ];
  let provider = Router.create (Threerouter.provider_config Threerouter.Partially_correct) in
  establish provider tr_customer_addr Threerouter.customer_as;
  establish provider tr_internet_addr Threerouter.internet_as;
  List.iter
    (fun prefix ->
      ignore
        (Router.handle_msg provider ~peer:tr_customer_addr
           (Msg.Update
              { Msg.withdrawn = []; attrs = Route.to_attrs (customer_route ());
                nlri = [ prefix ] })))
    Threerouter.customer_prefixes;
  let agent =
    Distributed.agent ~name:"upstream" ~addr:tr_internet_addr
      ~explorer_addr:(Ipv4.of_string "10.0.2.1")
      (Distributed.Local (Speakers.bird upstream))
  in
  let cfg =
    { Orchestrator.default_cfg with
      Orchestrator.checkers =
        [ Hijack.checker; Distributed.checker ~jobs:1 ~agents:[ agent ] ];
      exploration =
        { Orchestrator.default_exploration with
          Orchestrator.explorer =
            { Explorer.default_config with Explorer.max_runs = 256; max_depth = 96 };
        };
    }
  in
  let dice = Orchestrator.create ~cfg (Speakers.bird provider) in
  Orchestrator.observe dice ~peer:tr_customer_addr
    ~prefix:(p "203.0.113.0/24") ~route:(customer_route ());
  let report = Orchestrator.explore dice in
  let count name =
    List.length
      (List.filter (fun (f : Checker.fault) -> f.Checker.checker = name)
         report.Orchestrator.faults)
  in
  row "provider-local origin conflicts:        %d (its RIB is nearly empty)\n"
    (count "origin-hijack");
  row "remote origin conflicts (narrow iface): %d\n" (count "remote-origin-conflict");
  row "remote coverage leaks (narrow iface):   %d\n" (count "remote-coverage-leak");
  let s = Distributed.stats agent in
  row "remote agent: %d probes over %d checkpoint(s), zero state disclosed\n"
    s.Distributed.probes s.Distributed.checkpoints

let experiment_x2 () =
  section "X2" "operator-action validation (paper §5)";
  let router, _, _ = loaded_provider ~n:(min 4_000 table_prefixes) () in
  let seeds =
    List.map
      (fun prefix ->
        { Orchestrator.tag = "obs-" ^ Prefix.to_string prefix;
          peer = tr_customer_addr;
          prefix;
          route = customer_route ();
        })
      Threerouter.customer_prefixes
  in
  let vcfg =
    { Orchestrator.default_cfg with
      Orchestrator.exploration =
        { Orchestrator.default_exploration with
          Orchestrator.explorer =
            { Explorer.default_config with Explorer.max_runs = 160; max_depth = 96 };
        };
    }
  in
  row "%-42s %-14s %-7s %-11s %s\n" "proposed change" "verdict" "fixed" "introduced" "regressions";
  List.iter
    (fun (name, proposed) ->
      let c =
        Validate.config_change ~cfg:vcfg ~live:(Speakers.bird router)
          ~proposed:(Speaker.Config proposed) ~seeds ()
      in
      let verdict =
        match Validate.verdict c with
        | `Safe -> "SAFE"
        | `Ineffective -> "INEFFECTIVE"
        | `Harmful -> "HARMFUL"
      in
      row "%-42s %-14s %-7d %-11d %d\n" name verdict
        (List.length c.Validate.fixed)
        (List.length c.Validate.introduced)
        (List.length c.Validate.regressions))
    [ ("correct filter (pins the customer /22)", Threerouter.provider_config Threerouter.Correct);
      ("no change", Threerouter.provider_config Threerouter.Partially_correct);
      ( "import none (over-blocking)",
        Config_parser.parse
          (Printf.sprintf
             "router id 10.0.2.1; local as %d;\n\
              protocol bgp customer { neighbor 10.0.1.2 as %d; import none; export all; }\n\
              protocol bgp internet { neighbor 10.0.2.2 as %d; import all; export all; }\n\
              anycast [ 192.88.99.0/24 ];"
             Threerouter.provider_as Threerouter.customer_as Threerouter.internet_as) )
    ]

(* ------------------------------------------------------------------ *)

let () =
  Printf.printf "DiCE benchmark harness (%s scale)\n"
    (if full then "FULL paper" else "scaled-down; set DICE_BENCH_FULL=1 for 319,355 prefixes");
  experiment_f2 ();
  experiment_f1 ();
  experiment_e1 ();
  experiment_e2 ();
  experiment_e3 ();
  experiment_e4 ();
  experiment_a1 ();
  experiment_a2 ();
  experiment_p1 ();
  experiment_p2 ();
  experiment_p3 ();
  experiment_p4 ();
  experiment_p5 ();
  experiment_p6 ();
  experiment_p7 ();
  experiment_p8 ();
  experiment_p9 ();
  experiment_p10 ();
  experiment_x1 ();
  experiment_x2 ();
  micro_benchmarks ();
  print_newline ()
