(* Memory and CPU overhead of online exploration (paper §4.1).

   Measures, on a router with a loaded table:
   - checkpoint cost: unique pages of the checkpoint image vs. the live image
     after it kept processing updates;
   - explorer-clone cost: extra pages a clone dirties during exploration;
   - update throughput with and without concurrent exploration, under a
     burst (E2) and over a live 15-minute tail (E3).

   Run with: dune exec examples/overhead.exe *)

open Dice_inet
open Dice_bgp
open Dice_core
module Fork = Dice_checkpoint.Fork

(* Figure-2 addressing, resolved through the topology spec *)
let tr_f2_spec = Dice_topology.Threerouter.spec Dice_topology.Threerouter.Correct
let tr_customer_addr = Dice_topology.Topology.Spec.address tr_f2_spec ~of_:"customer" ~toward:"provider"
let tr_internet_addr = Dice_topology.Topology.Spec.address tr_f2_spec ~of_:"internet" ~toward:"provider"


let build_loaded_router ?(duration = 120.0) n_prefixes =
  let topo = Dice_topology.Threerouter.build Dice_topology.Threerouter.Partially_correct in
  Dice_topology.Threerouter.start topo;
  let trace =
    Dice_trace.Gen.generate
      { Dice_trace.Gen.default_params with n_prefixes; duration }
  in
  ignore (Dice_topology.Threerouter.load_table topo trace);
  (Dice_topology.Threerouter.provider_router topo, trace)

let () =
  print_endline "== DiCE overhead measurements ==";
  let router, trace = build_loaded_router 5_000 in
  Printf.printf "provider table: %d routes\n\n" (Rib.Loc.cardinal (Router.loc_rib router));

  (* --- memory: checkpoint vs live after continued processing --- *)
  let mgr = Fork.create () in
  let cp = Fork.checkpoint mgr ~live_image:(Router.snapshot router) in
  (* live router keeps processing the 15-min update tail *)
  let progress =
    Dice_trace.Replay.feed_events router
      ~peer:tr_internet_addr
      ~next_hop:tr_internet_addr trace
  in
  let unique, fraction = Fork.checkpoint_stats cp ~live_image:(Router.snapshot router) in
  Printf.printf "checkpoint: %d unique pages after live processed %d updates (%.2f%%)\n"
    unique progress.Dice_trace.Replay.updates_sent (100.0 *. fraction);

  (* --- memory: explorer clones --- *)
  let dice =
    Orchestrator.create
      ~cfg:
        { Orchestrator.default_cfg with
          Orchestrator.exploration =
            { Orchestrator.default_exploration with
              Orchestrator.clone_samples = 8;
              explorer =
                { Dice_concolic.Explorer.default_config with
                  Dice_concolic.Explorer.max_runs = 128 };
            };
        }
      (Speakers.bird router)
  in
  let route =
    Route.make ~origin:Attr.Igp
      ~as_path:[ Asn.Path.Seq [ Dice_topology.Threerouter.customer_as ] ]
      ~next_hop:tr_customer_addr ()
  in
  Orchestrator.observe dice ~peer:tr_customer_addr
    ~prefix:(Prefix.of_string "203.0.113.0/24") ~route;
  let report = Orchestrator.explore dice in
  let clone_stats =
    List.concat_map (fun (sr : Orchestrator.seed_report) -> sr.clone_stats)
      report.Orchestrator.seed_reports
  in
  let stats = Dice_util.Stats.create () in
  List.iter
    (fun (cs : Fork.clone_stats) ->
      Dice_util.Stats.add stats (100.0 *. cs.Fork.extra_fraction))
    clone_stats;
  Printf.printf "explorer clones: %d sampled, extra pages %.2f%% avg (max %.2f%%)\n\n"
    (Dice_util.Stats.count stats) (Dice_util.Stats.mean stats) (Dice_util.Stats.max stats);

  (* --- CPU: update throughput with / without exploration --- *)
  (* Exploration runs off the live node's critical path (the paper gives
     the explorer its own core); the live path pays only for freezing the
     image. We replay a burst of updates, run one exploration episode at
     the midpoint, and compare the two halves. *)
  let throughput with_exploration =
    let router, _ = build_loaded_router 2_000 in
    let dice =
      Orchestrator.create
        ~cfg:
          { Orchestrator.default_cfg with
            Orchestrator.exploration =
              { Orchestrator.default_exploration with
                Orchestrator.explorer =
                  { Dice_concolic.Explorer.default_config with
                    Dice_concolic.Explorer.max_runs = 24 };
              };
          }
        (Speakers.bird router)
    in
    let burst =
      Dice_trace.Gen.generate
        { Dice_trace.Gen.default_params with Dice_trace.Gen.n_prefixes = 10_000; seed = 7L }
    in
    let halfway = ref 0.0 in
    let resume = ref 0.0 in
    let t0 = Unix.gettimeofday () in
    let on_update i =
      if i = 5_000 then begin
        halfway := Unix.gettimeofday ();
        if with_exploration then begin
          Orchestrator.observe dice ~peer:tr_customer_addr
            ~prefix:(Prefix.of_string "203.0.113.0/24") ~route;
          ignore (Orchestrator.explore dice)
        end;
        Gc.full_major ();
        resume := Unix.gettimeofday ()
      end
    in
    let p =
      Dice_trace.Replay.feed_dump ~on_update router
        ~peer:tr_internet_addr
        ~next_hop:tr_internet_addr burst
    in
    let live_seconds = (!halfway -. t0) +. (Unix.gettimeofday () -. !resume) in
    float_of_int p.Dice_trace.Replay.updates_sent /. live_seconds
  in
  (* one discarded warm-up so heap growth doesn't skew the comparison *)
  ignore (throughput true);
  let base = throughput false in
  let with_dice = throughput true in
  Printf.printf "update throughput without exploration: %8.0f updates/s\n" base;
  Printf.printf "update throughput with exploration:    %8.0f updates/s\n" with_dice;
  Printf.printf "impact: %.1f%% (exploration itself runs off the critical path)\n\n"
    (100.0 *. (1.0 -. (with_dice /. base)));

  (* --- CPU, realistic scenario: the live 15-minute tail --- *)
  (* The tail arrives at about 0.3 updates/s, so the live node is idle
     almost always and exploration consumes idle time: the service rate
     over the window is updates/900 s either way, and what can differ is
     the live path's busy time (the tail's processing plus, with
     exploration, taking the checkpoint). *)
  let window = 900.0 in
  let tail with_exploration =
    let router, trace = build_loaded_router ~duration:window 4_000 in
    let critical =
      if with_exploration then begin
        let dice = Orchestrator.create (Speakers.bird router) in
        Orchestrator.observe dice ~peer:tr_customer_addr
          ~prefix:(Prefix.of_string "203.0.113.0/24") ~route;
        (Orchestrator.explore dice).Orchestrator.checkpoint_seconds
      end
      else 0.0
    in
    let p =
      Dice_trace.Replay.feed_events router ~peer:tr_internet_addr
        ~next_hop:tr_internet_addr trace
    in
    (p.Dice_trace.Replay.updates_sent, p.Dice_trace.Replay.wall_seconds +. critical)
  in
  let n_base, busy_base = tail false in
  let n_dice, busy_dice = tail true in
  Printf.printf "live tail: %d updates over a %.0f s window\n" n_base window;
  Printf.printf "service rate without exploration: %.3f updates/s (live path busy %.4f%%)\n"
    (float_of_int n_base /. window) (100.0 *. busy_base /. window);
  Printf.printf "service rate with exploration:    %.3f updates/s (live path busy %.4f%%)\n"
    (float_of_int n_dice /. window) (100.0 *. busy_dice /. window);
  Printf.printf "service-rate impact: %.2f%%\n"
    (100.0 *. (1.0 -. (float_of_int n_dice /. float_of_int n_base)))
