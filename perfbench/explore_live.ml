(* explore-live: the paper's §4.1 scenario. A BIRD-flavoured provider
   with partially-correct customer filtering serves a live update stream;
   every [updates_per_episode] live updates, the customer's announcement
   is observed and explored to completion. One op is one episode, from
   observe to report. *)

open Dice_inet
open Dice_bgp
open Dice_core
open Common
module Gen = Dice_trace.Gen
module Threerouter = Dice_topology.Threerouter
module Spec = Dice_topology.Topology.Spec
module Explorer = Dice_concolic.Explorer
module Fork = Dice_checkpoint.Fork

let table_routes = 600
let tail_events = 2_000
let updates_per_episode = 20
let warmup_episodes = 3

let spec = Threerouter.spec Threerouter.Partially_correct
let customer = Spec.address spec ~of_:"customer" ~toward:"provider"
let internet = Spec.address spec ~of_:"internet" ~toward:"provider"
let observed_prefix = Prefix.of_string "203.0.113.0/24"

let customer_route =
  Route.make ~origin:Attr.Igp
    ~as_path:[ Asn.Path.Seq [ Threerouter.customer_as ] ]
    ~next_hop:customer ()

let announce ~next_hop ~as_path prefix =
  Msg.Update
    { Msg.withdrawn = [];
      attrs =
        Route.to_attrs (Route.make ~origin:Attr.Igp ~as_path:[ Asn.Path.Seq as_path ] ~next_hop ());
      nlri = [ prefix ] }

(* Internet routes planted inside the filter's leaky 198.0.0.0/8 block,
   each with a foreign origin AS: the hijack every episode must find.
   Exploration steers the observed address into the block keeping its low
   bits, which lands in 198.0.0.0/11. The blocks are the same for every
   seed, so every seed explores the same paths; the seed picks the
   origins. *)
let planted seed =
  List.mapi
    (fun i block -> (Prefix.of_string block, 65_100 + ((seed * 7) mod 500) + i))
    [ "198.0.0.0/11"; "198.128.0.0/11"; "198.192.0.0/12" ]

(* The seeded table stays clear of the space exploration visits, so its
   content moves no exploration path. *)
let clear_of_exploration prefix =
  not
    (List.exists
       (fun q -> Prefix.subsumes q prefix || Prefix.subsumes prefix q)
       [ Prefix.of_string "198.0.0.0/8"; observed_prefix ])

type state = {
  live : Speaker.instance;
  dice : Orchestrator.t;
  tail : Msg.t array;
  planted : (Prefix.t * int) list;
}

let build seed () =
  let live =
    Speaker.create (module Speakers.Bird)
      (Speaker.Config (Threerouter.provider_config Threerouter.Partially_correct))
  in
  Speaker.establish live ~peer:customer;
  Speaker.establish live ~peer:internet;
  List.iter
    (fun prefix ->
      ignore
        (Speaker.feed live ~peer:customer
           (announce ~next_hop:customer ~as_path:[ Threerouter.customer_as ] prefix)))
    Threerouter.customer_prefixes;
  let trace =
    Gen.generate
      { Gen.default_params with
        Gen.seed = Int64.of_int seed;
        n_prefixes = table_routes;
        duration = 900.0;
        update_rate = float_of_int tail_events /. 900.0 }
  in
  let dump =
    Array.to_list trace.Gen.dump
    |> List.filter (fun (e : Gen.entry) -> clear_of_exploration e.Gen.prefix)
  in
  let tail =
    List.filter
      (function
        | Gen.Announce { entry; _ } -> clear_of_exploration entry.Gen.prefix
        | Gen.Withdraw { prefix; _ } -> clear_of_exploration prefix)
      (Array.to_list trace.Gen.events)
  in
  let peer_as = Threerouter.internet_as in
  List.iter
    (fun m -> ignore (Speaker.feed live ~peer:internet m))
    (Gen.to_updates { trace with Gen.dump = Array.of_list dump } ~peer_as ~next_hop:internet);
  let planted = planted seed in
  List.iter
    (fun (prefix, origin) ->
      ignore
        (Speaker.feed live ~peer:internet
           (announce ~next_hop:internet ~as_path:[ peer_as; origin ] prefix)))
    planted;
  let cfg =
    { Orchestrator.default_cfg with
      Orchestrator.exploration =
        { Orchestrator.default_exploration with Orchestrator.max_seeds = 1; jobs = 1 } }
  in
  { live;
    dice = Orchestrator.create ~cfg live;
    tail = Array.of_list (List.map (Gen.event_update ~entry_next_hop:internet) tail);
    planted }

let loc_rib_size sp = Rib.Loc.cardinal (Speaker.loc_rib sp)

let finds_planted st (report : Orchestrator.report) =
  List.exists
    (fun (f : Checker.fault) ->
      f.Checker.checker = "origin-hijack"
      && (match List.assoc_opt "existing-prefix" f.Checker.details with
         | Some p -> List.exists (fun (q, _) -> Prefix.to_string q = p) st.planted
         | None -> false))
    report.Orchestrator.faults

(* What a run keeps of each episode's report: holding the reports
   themselves would grow the heap, and peak RSS, with run length. *)
type episode = {
  freeze_s : float;
  accepted : int;
  rejected : int;
  intercepted : int;
  executions : int;
  solver_calls : int;
  negations : int;
  sat : int;
  faults : int;
  pages : int;
}

let summarize (r : Orchestrator.report) =
  let total f = List.fold_left (fun acc s -> acc + f s) 0 r.Orchestrator.seed_reports in
  let explorer f = total (fun s -> f s.Orchestrator.explorer) in
  { freeze_s = r.Orchestrator.checkpoint_seconds;
    accepted = total (fun s -> s.Orchestrator.runs_accepted);
    rejected = total (fun s -> s.Orchestrator.runs_rejected);
    intercepted = total (fun s -> s.Orchestrator.intercepted);
    executions = explorer (fun e -> e.Explorer.executions);
    solver_calls = explorer (fun e -> e.Explorer.solver_stats.Dice_concolic.Solver.calls);
    negations = explorer (fun e -> e.Explorer.negations_attempted);
    sat = explorer (fun e -> e.Explorer.negations_sat);
    faults = List.length r.Orchestrator.faults;
    pages = r.Orchestrator.checkpoint_pages }

let run ~seed ~seconds ~trace:tr =
  let st, setup_s = setup (build seed) in
  let cursor = ref 0 and feeds = ref [] in
  let feed_one () =
    let msg = st.tail.(!cursor mod Array.length st.tail) in
    incr cursor;
    let (), dt =
      timed (fun () ->
          span tr "speaker.feed.bird" (fun () -> ignore (Speaker.feed st.live ~peer:internet msg)))
    in
    feeds := dt :: !feeds
  in
  let episode () =
    Orchestrator.observe st.dice ~peer:customer ~prefix:observed_prefix ~route:customer_route;
    timed (fun () -> span tr "orchestrator.explore" (fun () -> Orchestrator.explore st.dice))
  in
  for _ = 1 to warmup_episodes do
    for _ = 1 to updates_per_episode do feed_one () done;
    ignore (episode ())
  done;
  feeds := [];
  let episodes = ref [] and latencies = ref [] in
  let failed = ref 0 and hijack_ok = ref true and isolated = ref true in
  let clock = start () in
  while elapsed clock < seconds do
    Option.iter (fun t -> Perfbench.Btrace.op t (List.length !episodes + 1)) tr;
    for _ = 1 to updates_per_episode do feed_one () done;
    let live_state () = (Speaker.updates_processed st.live, loc_rib_size st.live) in
    let before = excluded clock live_state in
    let report, dt = episode () in
    excluded clock (fun () ->
        let found = finds_planted st report and same = live_state () = before in
        if not found then hijack_ok := false;
        if not same then isolated := false;
        if not (found && same) then incr failed;
        episodes := summarize report :: !episodes);
    latencies := dt :: !latencies
  done;
  let elapsed_s = elapsed clock in
  Option.iter (fun t -> Perfbench.Btrace.op t 0) tr;
  let eps = List.rev !episodes and latencies = Array.of_list (List.rev !latencies) in
  let n = List.length eps and fed = List.length !feeds in
  let freezes = Array.of_list (List.map (fun e -> e.freeze_s) eps) in
  (* busy time per live update: the median feed (a mean would charge the
     live node for collecting the explorer's garbage, which a forked
     explorer keeps in its own process) plus its share of the freezes *)
  let live_updates_per_s =
    1.0
    /. (median (Array.of_list !feeds)
       +. (Array.fold_left ( +. ) 0.0 freezes /. float_of_int fed))
  in
  let ops_per_s = float_of_int n /. elapsed_s in
  let metrics =
    match tr with
    | None -> end_to_end ~ops:n ~elapsed_s ~latencies ~live_updates_per_s ~setup_s
    | Some t ->
      let total f = List.fold_left (fun acc e -> acc + f e) 0 eps in
      counters tr
        [ ("orchestrator.episodes", n); ("orchestrator.runs_accepted", total (fun e -> e.accepted));
          ("orchestrator.runs_rejected", total (fun e -> e.rejected));
          ("orchestrator.intercepted", total (fun e -> e.intercepted));
          ("concolic.executions", total (fun e -> e.executions));
          ("concolic.solver_calls", total (fun e -> e.solver_calls));
          ("concolic.negations_attempted", total (fun e -> e.negations));
          ("concolic.negations_sat", total (fun e -> e.sat));
          ("hijack.faults", total (fun e -> e.faults)) ];
      let per_episode f = float_of_int (total f) /. float_of_int n in
      (* layer samples on the live speaker's current image, after the loop *)
      let image = Speaker.snapshot st.live and real = Speaker.realization st.live in
      let mgr = Fork.create () in
      [ metric "trace.ops_per_s" "1/s" ops_per_s;
        metric "orchestrator.explore_ms" "ms"
          (ms (median (Perfbench.Btrace.durations t "orchestrator.explore")));
        metric "orchestrator.freeze_ms" "ms" (ms (median freezes));
        metric "orchestrator.restores_per_episode" "count" (per_episode (fun e -> e.accepted));
        metric "checkpoint.serialize_ms" "ms"
          (ms (sample tr "checkpoint.serialize" (fun () -> ignore (Speaker.snapshot st.live))));
        metric "checkpoint.capture_ms" "ms"
          (ms
             (sample tr "checkpoint.capture" (fun () ->
                  Fork.drop_checkpoint (Fork.checkpoint mgr ~live_image:image))));
        metric "checkpoint.pages" "count" (per_episode (fun e -> e.pages));
        metric "speaker.restore_ms.bird" "ms"
          (ms
             (sample tr "speaker.restore.bird" (fun () ->
                  ignore (Speaker.restore_like st.live real image))));
        (* after the episodes' snapshots: the clone copies the slot table
           that serializing filled *)
        metric "speaker.clone_us.bird" "us"
          (us (sample tr "speaker.clone.bird" (fun () -> ignore (Speaker.clone st.live))));
        metric "speaker.feed_us.bird" "us"
          (us (median (Perfbench.Btrace.durations t "speaker.feed.bird")));
        metric "concolic.runs_per_episode" "count" (per_episode (fun e -> e.executions));
        metric "concolic.solver_calls_per_episode" "count" (per_episode (fun e -> e.solver_calls));
        metric "concolic.sat_frac" "ratio"
          (float_of_int (total (fun e -> e.sat)) /. float_of_int (total (fun e -> e.negations)));
        metric "hijack.faults_per_episode" "count" (per_episode (fun e -> e.faults)) ]
  in
  { attempted = n;
    failed = !failed;
    checks = [ ("planted_hijack_found", !hijack_ok); ("live_speaker_isolated", !isolated) ];
    metrics;
    info =
      [ ("episodes", Json.int n); ("live_updates", Json.int fed);
        ("table_routes", Json.int (loc_rib_size st.live)) ] }
