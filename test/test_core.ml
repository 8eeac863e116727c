(* Tests for the DiCE core: symbolization, the byte-level concolic parser,
   the hijack checker, and the orchestrator. *)
open Dice_inet
open Dice_bgp
open Dice_concolic
open Dice_core

(* Figure-2 addressing, resolved through the topology spec *)
let tr_f2_spec = Dice_topology.Threerouter.spec Dice_topology.Threerouter.Correct
let tr_customer_addr = Dice_topology.Topology.Spec.address tr_f2_spec ~of_:"customer" ~toward:"provider"


let p = Prefix.of_string

let base_route =
  Route.make ~origin:Attr.Igp
    ~as_path:[ Asn.Path.Seq [ 64501; 64777 ] ]
    ~med:(Some 10)
    ~next_hop:(Ipv4.of_string "10.0.1.2")
    ()

(* ---- Symbolize ---- *)

let recording_ctx () =
  let space = Engine.Space.create () in
  (space, Engine.create ~space ~overrides:(Hashtbl.create 0) ())

let test_symbolize_defaults () =
  let _, ctx = recording_ctx () in
  let cr = Symbolize.croute ctx ~prefix:(p "203.0.113.0/24") ~route:base_route in
  Alcotest.(check string) "prefix preserved" "203.0.113.0/24"
    (Prefix.to_string (Croute.prefix_of cr));
  Alcotest.(check bool) "addr symbolic" true (Cval.is_symbolic cr.Croute.net_addr);
  Alcotest.(check bool) "len symbolic" true (Cval.is_symbolic cr.Croute.net_len);
  Alcotest.(check bool) "origin symbolic" true (Cval.is_symbolic cr.Croute.origin);
  Alcotest.(check bool) "origin_as symbolic" true (Cval.is_symbolic cr.Croute.origin_as);
  Alcotest.(check bool) "med symbolic (was present)" true (Cval.is_symbolic cr.Croute.med);
  Alcotest.(check int) "origin_as default" 64777 (Cval.to_int cr.Croute.origin_as)

let test_symbolize_seed_constraints () =
  let _, ctx = recording_ctx () in
  ignore (Symbolize.croute ctx ~prefix:(p "10.0.0.0/8") ~route:base_route);
  (* len <= 32 and origin <= 2 *)
  Alcotest.(check int) "two seed constraints" 2
    (List.length (Engine.seed_constraints ctx))

let test_symbolize_no_med () =
  let route = { base_route with Route.med = None } in
  let _, ctx = recording_ctx () in
  let cr = Symbolize.croute ctx ~prefix:(p "10.0.0.0/8") ~route in
  Alcotest.(check bool) "med stays concrete" false (Cval.is_symbolic cr.Croute.med);
  Alcotest.(check bool) "has_med false" false cr.Croute.has_med

let test_symbolize_overrides () =
  let space = Engine.Space.create () in
  let ctx0 = Engine.create ~space ~overrides:(Hashtbl.create 0) () in
  ignore (Symbolize.croute ctx0 ~prefix:(p "10.0.0.0/8") ~route:base_route);
  let addr_var =
    match Engine.Space.find space "addr" with
    | Some v -> v
    | None -> Alcotest.fail "addr input not registered"
  in
  let overrides : Sym.env = Hashtbl.create 4 in
  Hashtbl.replace overrides addr_var.Sym.id (Int64.of_int (Prefix.network (p "198.51.0.0/16")));
  let ctx = Engine.create ~space ~overrides () in
  let cr = Symbolize.croute ctx ~prefix:(p "10.0.0.0/8") ~route:base_route in
  Alcotest.(check string) "override applied (len still /8)" "198.0.0.0/8"
    (Prefix.to_string (Croute.prefix_of cr))

let test_symbolize_message_bytes () =
  let _, ctx = recording_ctx () in
  let observed = Msg.encode Msg.Keepalive in
  let cvals = Symbolize.message_bytes ctx observed in
  Alcotest.(check int) "one input per byte" (Bytes.length observed) (Array.length cvals);
  Alcotest.(check bytes) "concretize is identity" observed (Symbolize.concretize_bytes cvals);
  Alcotest.(check bool) "all symbolic" true
    (Array.for_all Cval.is_symbolic cvals)

(* ---- Concolic_parser ---- *)

let validate bytes =
  let _, ctx = recording_ctx () in
  let cvals = Symbolize.message_bytes ctx bytes in
  let depth = Concolic_parser.validate ctx cvals in
  (depth, Path.length (Engine.path ctx))

let update_msg =
  Msg.encode
    (Msg.Update
       { withdrawn = [];
         attrs = Route.to_attrs base_route;
         nlri = [ p "203.0.113.0/24" ] })

let test_parser_valid_update () =
  let depth, constraints = validate update_msg in
  Alcotest.(check string) "valid" "valid-update" (Concolic_parser.depth_to_string depth);
  Alcotest.(check bool) "constraints recorded" true (constraints > 16)

let test_parser_valid_keepalive () =
  let depth, _ = validate (Msg.encode Msg.Keepalive) in
  Alcotest.(check string) "other" "valid-other" (Concolic_parser.depth_to_string depth)

let test_parser_bad_marker () =
  let b = Bytes.copy update_msg in
  Bytes.set b 5 '\x00';
  let depth, _ = validate b in
  Alcotest.(check string) "header" "bad-header" (Concolic_parser.depth_to_string depth)

let test_parser_bad_length () =
  let b = Bytes.copy update_msg in
  Bytes.set b 17 '\x00';
  let depth, _ = validate b in
  Alcotest.(check string) "header" "bad-header" (Concolic_parser.depth_to_string depth)

let test_parser_bad_type () =
  let b = Bytes.copy update_msg in
  Bytes.set b 18 '\x07';
  let depth, _ = validate b in
  Alcotest.(check string) "header" "bad-header" (Concolic_parser.depth_to_string depth)

let test_parser_bad_nlri () =
  let b = Bytes.copy update_msg in
  (* NLRI length byte is 4 bytes from the end (len 24 -> 3 addr bytes) *)
  Bytes.set b (Bytes.length b - 4) (Char.chr 60);
  let depth, _ = validate b in
  Alcotest.(check string) "nlri" "bad-nlri" (Concolic_parser.depth_to_string depth)

let test_parser_agrees_with_decoder () =
  (* on random single-byte corruptions, "valid-update" must imply the real
     decoder accepts the bytes *)
  let rng = Dice_util.Rng.create 11L in
  for _ = 1 to 200 do
    let b = Bytes.copy update_msg in
    let i = Dice_util.Rng.int rng (Bytes.length b) in
    Bytes.set b i (Char.chr (Dice_util.Rng.int rng 256));
    let depth, _ = validate b in
    match depth with
    | Concolic_parser.Valid_update ->
      (* structural validity must rule out header errors; value-level
         attribute errors (e.g. a corrupted AS_PATH segment count) are
         beyond the structural checks and acceptable here *)
      Alcotest.(check bool)
        (Printf.sprintf "byte %d: no header error" i)
        true
        (match Msg.decode b with
        | Ok _ -> true
        | Error (Msg.Header_error _) -> false
        | Error (Msg.Open_error _ | Msg.Update_error _ | Msg.Update_malformed _) -> true)
    | _ -> ()
  done

(* ---- Hijack checker ---- *)

let loc_with entries =
  List.fold_left
    (fun acc (prefix, origin_asn) ->
      let route =
        Route.make ~origin:Attr.Igp
          ~as_path:[ Asn.Path.Seq [ 64700; origin_asn ] ]
          ~next_hop:(Ipv4.of_string "10.0.2.2") ()
      in
      Rib.Loc.set (p prefix)
        { Rib.Loc.route;
          src = { Route.peer_addr = 2; peer_asn = 64700; peer_bgp_id = 2; ebgp = true } }
        acc)
    Rib.Loc.empty entries

let outcome ?(accepted = true) ?(installed = true) ~prefix ~origin_asn () =
  let route =
    Route.make ~origin:Attr.Igp
      ~as_path:[ Asn.Path.Seq [ 64501; origin_asn ] ]
      ~next_hop:(Ipv4.of_string "10.0.1.2") ()
  in
  { Speaker.prefix = p prefix;
    accepted;
    installed;
    route = (if accepted then Some route else None);
    previous_best = None;
    outputs = [];
  }

let ctx_with ?(anycast = []) entries =
  { Checker.pre_loc_rib = loc_with entries;
    anycast = List.map p anycast;
    peer = Ipv4.of_string "10.0.1.2";
    peer_as = 64501;
  }

let run_checker cctx oc = Hijack.checker.Checker.check cctx oc

let test_hijack_same_origin_clean () =
  let cctx = ctx_with [ ("198.51.100.0/22", 64501) ] in
  let faults = run_checker cctx (outcome ~prefix:"198.51.100.0/22" ~origin_asn:64501 ()) in
  Alcotest.(check int) "no fault" 0 (List.length faults)

let test_hijack_exact_override () =
  let cctx = ctx_with [ ("198.51.100.0/22", 64999) ] in
  let faults = run_checker cctx (outcome ~prefix:"198.51.100.0/22" ~origin_asn:64501 ()) in
  match faults with
  | [ f ] ->
    Alcotest.(check string) "checker" "origin-hijack" f.Checker.checker;
    Alcotest.(check bool) "critical" true (f.Checker.severity = Checker.Critical)
  | _ -> Alcotest.failf "expected one fault, got %d" (List.length faults)

let test_hijack_more_specific () =
  (* the YouTube pattern: /24 announced inside an existing /22 *)
  let cctx = ctx_with [ ("198.51.100.0/22", 64999) ] in
  let faults = run_checker cctx (outcome ~prefix:"198.51.101.0/24" ~origin_asn:64501 ()) in
  Alcotest.(check int) "flagged" 1 (List.length faults);
  match faults with
  | [ f ] ->
    Alcotest.(check (option string)) "names the victim" (Some "198.51.100.0/22")
      (List.assoc_opt "existing-prefix" f.Checker.details)
  | _ -> ()

let test_hijack_rejected_no_fault () =
  let cctx = ctx_with [ ("198.51.100.0/22", 64999) ] in
  let faults =
    run_checker cctx
      (outcome ~accepted:false ~installed:false ~prefix:"198.51.100.0/22" ~origin_asn:64501 ())
  in
  Alcotest.(check int) "no fault when rejected" 0 (List.length faults)

let test_hijack_anycast_whitelisted () =
  let cctx = ctx_with ~anycast:[ "192.88.99.0/24" ] [ ("192.88.99.0/24", 64999) ] in
  let faults = run_checker cctx (outcome ~prefix:"192.88.99.0/24" ~origin_asn:64501 ()) in
  Alcotest.(check int) "whitelisted" 0 (List.length faults)

let test_filter_leak_for_unheld_space () =
  let cctx = ctx_with [ ("8.8.8.0/24", 64999) ] in
  let faults = run_checker cctx (outcome ~prefix:"100.100.0.0/16" ~origin_asn:64501 ()) in
  match faults with
  | [ f ] ->
    Alcotest.(check string) "leak" "filter-leak" f.Checker.checker;
    Alcotest.(check bool) "warning" true (f.Checker.severity = Checker.Warning)
  | _ -> Alcotest.failf "expected one leak, got %d" (List.length faults)

let test_leakable_summary () =
  let f prefix =
    { Checker.checker = "origin-hijack"; severity = Checker.Critical; prefix = p prefix;
      description = "d"; details = [] }
  in
  let summary = Hijack.leakable_summary [ f "10.0.0.0/8"; f "10.0.0.0/8"; f "9.0.0.0/8" ] in
  Alcotest.(check (list (pair string int))) "aggregated"
    [ ("9.0.0.0/8", 1); ("10.0.0.0/8", 2) ]
    (List.map (fun (q, c) -> (Prefix.to_string q, c)) summary)

(* ---- Orchestrator (on the 3-router testbed) ---- *)

(* The table always holds a foreign-origin route inside the filter's leaky
   198.0.0.0/8 block, where exploration steers the observed address: the
   hijack tests then check the filter, not what the trace happened to draw. *)
let testbed ?(prefixes = 1500) filtering =
  let topo = Dice_topology.Threerouter.build filtering in
  Dice_topology.Threerouter.start topo;
  let trace =
    Dice_trace.Gen.generate
      { Dice_trace.Gen.default_params with Dice_trace.Gen.n_prefixes = prefixes; duration = 30.0 }
  in
  let planted =
    { Dice_trace.Gen.prefix = p "198.0.0.0/11";
      as_path = [ Dice_topology.Threerouter.internet_as; 65100 ];
      origin = Attr.Igp; med = None }
  in
  ignore
    (Dice_topology.Threerouter.load_table topo
       { trace with Dice_trace.Gen.dump = Array.append trace.Dice_trace.Gen.dump [| planted |] });
  topo

let observe_customer dice =
  let route =
    Route.make ~origin:Attr.Igp
      ~as_path:[ Asn.Path.Seq [ Dice_topology.Threerouter.customer_as ] ]
      ~next_hop:tr_customer_addr ()
  in
  Orchestrator.observe dice ~peer:tr_customer_addr
    ~prefix:(p "203.0.113.0/24") ~route

let explore_cfg ?(mode = Symbolize.Selective) ?(runs = 192) () =
  { Orchestrator.default_cfg with
    Orchestrator.exploration =
      { Orchestrator.default_exploration with
        Orchestrator.mode;
        explorer =
          { Explorer.default_config with Explorer.max_runs = runs; max_depth = 96 };
      };
  }

let test_orchestrator_seeding () =
  let topo = testbed Dice_topology.Threerouter.Partially_correct in
  let dice = Orchestrator.create (Speakers.bird (Dice_topology.Threerouter.provider_router topo)) in
  Alcotest.(check int) "empty" 0 (Orchestrator.pending_seeds dice);
  observe_customer dice;
  Alcotest.(check int) "one" 1 (Orchestrator.pending_seeds dice);
  Orchestrator.observe_update dice ~peer:tr_customer_addr
    { Msg.withdrawn = [];
      attrs = Route.to_attrs base_route;
      nlri = [ p "203.0.113.0/24"; p "198.51.100.0/22" ];
    };
  Alcotest.(check int) "three" 3 (Orchestrator.pending_seeds dice);
  ignore (Orchestrator.explore dice);
  Alcotest.(check int) "drained" 0 (Orchestrator.pending_seeds dice)

let test_orchestrator_finds_hijacks_with_broken_filter () =
  let topo = testbed Dice_topology.Threerouter.Partially_correct in
  let dice =
    Orchestrator.create ~cfg:(explore_cfg ())
      (Speakers.bird (Dice_topology.Threerouter.provider_router topo))
  in
  observe_customer dice;
  let report = Orchestrator.explore dice in
  let criticals =
    List.filter (fun (f : Checker.fault) -> f.Checker.severity = Checker.Critical)
      report.Orchestrator.faults
  in
  Alcotest.(check bool) "found hijackable ranges" true (List.length criticals > 0);
  List.iter
    (fun (f : Checker.fault) ->
      Alcotest.(check bool) "inside the leaky 198/8 block" true
        (Prefix.subsumes (p "198.0.0.0/8") f.Checker.prefix))
    report.Orchestrator.faults

let test_orchestrator_clean_with_correct_filter () =
  let topo = testbed Dice_topology.Threerouter.Correct in
  let dice =
    Orchestrator.create ~cfg:(explore_cfg ())
      (Speakers.bird (Dice_topology.Threerouter.provider_router topo))
  in
  observe_customer dice;
  let report = Orchestrator.explore dice in
  let criticals =
    List.filter (fun (f : Checker.fault) -> f.Checker.severity = Checker.Critical)
      report.Orchestrator.faults
  in
  Alcotest.(check int) "nothing hijackable" 0 (List.length criticals)

let test_orchestrator_empty_report_text () =
  let report =
    { Orchestrator.seed_reports = [];
      faults = [];
      checkpoint_pages = 0;
      live_image_bytes = 0;
      wall_seconds = 0.0;
      checkpoint_seconds = 0.0 }
  in
  Alcotest.(check string) "no blank line under an empty fault list"
    "DiCE exploration report\nseeds explored: 0\nlive image: 0 bytes (0 pages)\n\
     distinct faults (0):\nwall time: 0.00 s"
    (Format.asprintf "%a" Orchestrator.pp_report report)

let test_orchestrator_live_router_untouched () =
  let topo = testbed Dice_topology.Threerouter.Partially_correct in
  let provider = Dice_topology.Threerouter.provider_router topo in
  let before = Router.snapshot provider in
  let dice = Orchestrator.create ~cfg:(explore_cfg ()) (Speakers.bird provider) in
  observe_customer dice;
  ignore (Orchestrator.explore dice);
  Alcotest.(check bytes) "exploration never mutates the live router" before
    (Router.snapshot provider)

let test_orchestrator_isolation () =
  let topo = testbed Dice_topology.Threerouter.Partially_correct in
  let net = topo.Dice_topology.Threerouter.net in
  let sent_before = Dice_sim.Network.messages_sent net in
  let dice =
    Orchestrator.create ~cfg:(explore_cfg ())
      (Speakers.bird (Dice_topology.Threerouter.provider_router topo))
  in
  observe_customer dice;
  let report = Orchestrator.explore dice in
  Alcotest.(check int) "no exploration traffic on the live network" sent_before
    (Dice_sim.Network.messages_sent net);
  (* but exploration did produce (intercepted) messages *)
  let intercepted =
    List.fold_left
      (fun acc (sr : Orchestrator.seed_report) -> acc + sr.Orchestrator.intercepted)
      0 report.Orchestrator.seed_reports
  in
  Alcotest.(check bool) "sandbox captured exploration traffic" true (intercepted > 0)

let test_orchestrator_clone_stats () =
  let topo = testbed Dice_topology.Threerouter.Partially_correct in
  let dice =
    Orchestrator.create ~cfg:(explore_cfg ())
      (Speakers.bird (Dice_topology.Threerouter.provider_router topo))
  in
  observe_customer dice;
  let report = Orchestrator.explore dice in
  match report.Orchestrator.seed_reports with
  | [ sr ] ->
    Alcotest.(check bool) "clone stats sampled" true (sr.Orchestrator.clone_stats <> []);
    List.iter
      (fun (cs : Dice_checkpoint.Fork.clone_stats) ->
        Alcotest.(check bool) "unique pages positive" true (cs.Dice_checkpoint.Fork.unique > 0))
      sr.Orchestrator.clone_stats
  | _ -> Alcotest.fail "expected one seed report"

let test_orchestrator_whole_message_mode () =
  let topo = testbed Dice_topology.Threerouter.Partially_correct in
  let dice =
    Orchestrator.create
      ~cfg:(explore_cfg ~mode:Symbolize.Whole_message ~runs:96 ())
      (Speakers.bird (Dice_topology.Threerouter.provider_router topo))
  in
  observe_customer dice;
  let report = Orchestrator.explore dice in
  match report.Orchestrator.seed_reports with
  | [ sr ] ->
    (* the initial run is the observed (valid) message; negated runs land
       overwhelmingly in the parser *)
    let total = List.fold_left (fun a (_, c) -> a + c) 0 sr.Orchestrator.depth_counts in
    let invalid =
      List.fold_left
        (fun a (k, c) -> if k <> "valid-update" then a + c else a)
        0 sr.Orchestrator.depth_counts
    in
    Alcotest.(check bool) "ran" true (total > 10);
    Alcotest.(check bool) "most runs die in the parser" true
      (float_of_int invalid >= 0.5 *. float_of_int total)
  | _ -> Alcotest.fail "expected one seed report"

(* Seed-level parallelism is the only parallelism inside one
   [Orchestrator.explore]: each seed explores sequentially on its own
   worker, cloning the one shared checkpoint, so the per-seed reports —
   clone footprints included — must not depend on [jobs]. *)
let test_orchestrator_jobs_deterministic () =
  let topo = testbed ~prefixes:200 Dice_topology.Threerouter.Partially_correct in
  let provider = Dice_topology.Threerouter.provider_router topo in
  let route =
    Route.make ~origin:Attr.Igp
      ~as_path:[ Asn.Path.Seq [ Dice_topology.Threerouter.customer_as ] ]
      ~next_hop:tr_customer_addr ()
  in
  let seed_summaries jobs =
    let cfg = explore_cfg ~runs:32 () in
    let cfg =
      { cfg with
        Orchestrator.exploration = { cfg.Orchestrator.exploration with Orchestrator.jobs };
      }
    in
    let dice = Orchestrator.create ~cfg (Speakers.bird provider) in
    List.iter
      (fun prefix -> Orchestrator.observe dice ~peer:tr_customer_addr ~prefix:(p prefix) ~route)
      [ "203.0.113.0/24"; "203.0.112.0/24"; "198.51.100.0/24"; "192.0.2.0/24" ];
    let report = Orchestrator.explore dice in
    let seeds =
      List.map
        (fun (sr : Orchestrator.seed_report) ->
          let finding (f : Checker.fault) =
            Checker.fault_key f
            ^ String.concat "" (List.map (fun (k, v) -> ";" ^ k ^ "=" ^ v) f.Checker.details)
          in
          let footprint (cs : Dice_checkpoint.Fork.clone_stats) =
            (cs.Dice_checkpoint.Fork.pages, cs.Dice_checkpoint.Fork.unique)
          in
          ( Prefix.to_string sr.Orchestrator.seed.Orchestrator.prefix,
            ( List.map finding sr.Orchestrator.faults,
              (sr.Orchestrator.runs_accepted, sr.Orchestrator.runs_rejected),
              ( Coverage.snapshot sr.Orchestrator.explorer.Explorer.coverage,
                List.map footprint sr.Orchestrator.clone_stats ) ) ))
        report.Orchestrator.seed_reports
    in
    ((report.Orchestrator.checkpoint_pages, report.Orchestrator.live_image_bytes), seeds)
  in
  let (seq_cp, seq) = seed_summaries 1 and (par_cp, par) = seed_summaries 2 in
  Alcotest.(check int) "four seed reports" 4 (List.length seq);
  Alcotest.(check bool) "the comparison covers findings" true
    (List.exists (fun (_, (findings, _, _)) -> findings <> []) seq);
  Alcotest.(check bool) "the comparison covers clone footprints" true
    (List.for_all (fun (_, (_, _, (_, footprints))) -> footprints <> []) seq);
  Alcotest.(check (pair int int)) "jobs=2 checkpoint equals jobs=1" seq_cp par_cp;
  Alcotest.(
    check
      (list
         (pair string
            (triple (list string) (pair int int)
               (pair (list (pair int bool)) (list (pair int int)))))))
    "jobs=2 seed reports equal jobs=1" seq par

(* Each episode patches its checkpoint's image from the last one, which
   serves only the page accounting: what an episode explores and finds
   must be what a first episode on an orchestrator attached at that
   moment explores and finds, whatever the live speaker processed in
   between. *)
let test_orchestrator_chained_episodes () =
  let topo = testbed ~prefixes:200 Dice_topology.Threerouter.Partially_correct in
  let live = Speakers.bird (Dice_topology.Threerouter.provider_router topo) in
  let internet = Dice_topology.Topology.Spec.address tr_f2_spec ~of_:"internet" ~toward:"provider" in
  let cfg = explore_cfg ~runs:48 () in
  let summary (r : Orchestrator.report) =
    ( List.map Checker.fault_key r.Orchestrator.faults,
      List.map
        (fun (sr : Orchestrator.seed_report) ->
          ( (sr.Orchestrator.runs_accepted, sr.Orchestrator.runs_rejected),
            ( sr.Orchestrator.explorer.Explorer.executions,
              sr.Orchestrator.explorer.Explorer.solver_stats.Dice_concolic.Solver.calls ) ))
        r.Orchestrator.seed_reports )
  in
  let episode dice =
    observe_customer dice;
    summary (Orchestrator.explore dice)
  in
  let chained = Orchestrator.create ~cfg live in
  let announce prefix origin =
    ignore
      (Speaker.feed live ~peer:internet
         (Msg.Update
            { Msg.withdrawn = [];
              attrs =
                Route.to_attrs
                  (Route.make ~origin:Attr.Igp
                     ~as_path:[ Asn.Path.Seq [ Dice_topology.Threerouter.internet_as; origin ] ]
                     ~next_hop:internet ());
              nlri = [ p prefix ] }))
  in
  let first = episode chained in
  Alcotest.(check bool) "the first episode equals a fresh one's" true
    (first = episode (Orchestrator.create ~cfg live));
  (* the live node moves on: a route inside the filter's leaky block,
     more specific than the one the testbed planted *)
  announce "198.0.0.0/12" 65123;
  announce "100.64.0.0/24" 65124;
  let second = episode chained in
  Alcotest.(check bool) "the second episode equals a fresh one's" true
    (second = episode (Orchestrator.create ~cfg live));
  Alcotest.(check bool) "and sees the live node's new route" true (fst second <> fst first)

(* A report depends only on the config and the table, not on what the
   process explored before: the 50th parse-and-explore of the partially
   correct testbed prints the same JSON report as the first (timings
   zeroed). *)
let test_report_independent_of_history () =
  let report_json () =
    let topo = testbed ~prefixes:200 Dice_topology.Threerouter.Partially_correct in
    let dice =
      Orchestrator.create ~cfg:(explore_cfg ~runs:32 ())
        (Speakers.bird (Dice_topology.Threerouter.provider_router topo))
    in
    observe_customer dice;
    let r = Orchestrator.explore dice in
    let untimed (sr : Orchestrator.seed_report) =
      { sr with
        Orchestrator.explorer = { sr.Orchestrator.explorer with Explorer.elapsed_s = 0.0 } }
    in
    Dice_util.Json.to_string ~indent:true
      (Report.report_json
         { r with
           Orchestrator.seed_reports = List.map untimed r.Orchestrator.seed_reports;
           wall_seconds = 0.0;
           checkpoint_seconds = 0.0;
         })
  in
  let first = report_json () in
  for _ = 2 to 49 do ignore (report_json ()) done;
  Alcotest.(check string) "50th report equals the 1st" first (report_json ())

let suite =
  [ ("symbolize defaults", `Quick, test_symbolize_defaults);
    ("symbolize seed constraints", `Quick, test_symbolize_seed_constraints);
    ("symbolize without MED", `Quick, test_symbolize_no_med);
    ("symbolize overrides", `Quick, test_symbolize_overrides);
    ("symbolize message bytes", `Quick, test_symbolize_message_bytes);
    ("parser: valid update", `Quick, test_parser_valid_update);
    ("parser: keepalive", `Quick, test_parser_valid_keepalive);
    ("parser: bad marker", `Quick, test_parser_bad_marker);
    ("parser: bad length", `Quick, test_parser_bad_length);
    ("parser: bad type", `Quick, test_parser_bad_type);
    ("parser: bad nlri", `Quick, test_parser_bad_nlri);
    ("parser agrees with decoder", `Quick, test_parser_agrees_with_decoder);
    ("hijack: same origin clean", `Quick, test_hijack_same_origin_clean);
    ("hijack: exact override", `Quick, test_hijack_exact_override);
    ("hijack: more specific", `Quick, test_hijack_more_specific);
    ("hijack: rejected no fault", `Quick, test_hijack_rejected_no_fault);
    ("hijack: anycast whitelisted", `Quick, test_hijack_anycast_whitelisted);
    ("filter-leak for unheld space", `Quick, test_filter_leak_for_unheld_space);
    ("leakable summary", `Quick, test_leakable_summary);
    ("orchestrator seeding", `Quick, test_orchestrator_seeding);
    ("orchestrator finds hijacks (broken filter)", `Slow,
     test_orchestrator_finds_hijacks_with_broken_filter);
    ("orchestrator clean (correct filter)", `Slow, test_orchestrator_clean_with_correct_filter);
    ("orchestrator empty report text", `Quick, test_orchestrator_empty_report_text);
    ("live router untouched", `Slow, test_orchestrator_live_router_untouched);
    ("exploration isolated", `Slow, test_orchestrator_isolation);
    ("clone stats sampled", `Slow, test_orchestrator_clone_stats);
    ("whole-message mode", `Slow, test_orchestrator_whole_message_mode);
    ("orchestrator jobs=1 and jobs=2 agree", `Slow, test_orchestrator_jobs_deterministic);
    ("chained episodes explore as fresh ones", `Slow, test_orchestrator_chained_episodes);
    ("report independent of process history", `Slow, test_report_independent_of_history)
  ]
