(* The shared SPEAKER conformance suite (ISSUE 5): every registered
   implementation — BIRD and the heterogeneous Quagga-flavored speaker —
   must satisfy the same contract behind {!Dice_core.Speaker}: feeding,
   attribution, version counting, snapshot/restore isolation, clone
   checkpoint semantics, serving exploration as the live node, and answering probes
   identically over Local and Remote transports. Plus QCheck properties
   pinning down exactly how far the implementations may diverge:
   acceptance and origin-conflict detection must always agree; full
   verdicts agree whenever no decision tie-breaking is involved. *)
open Dice_inet
open Dice_bgp
open Dice_core
module Network = Dice_sim.Network

let p = Prefix.of_string
let provider_side = Ipv4.of_string "10.0.2.1"
let collector = Ipv4.of_string "10.0.3.2"

(* [provider_in], when given, is the body of the provider session's
   import filter; without it the session imports everything *)
let upstream_config ?provider_in () =
  let filter, import =
    match provider_in with
    | None -> ("", "import all;")
    | Some body -> (Printf.sprintf "filter provider_in { %s }" body, "import filter provider_in;")
  in
  Config_parser.parse
    (Printf.sprintf
       {|
    router id 10.0.2.2;
    local as 64700;
    %s
    protocol bgp provider { neighbor 10.0.2.1 as 64510; %s export none; }
    protocol bgp collector { neighbor 10.0.3.2 as 64701; import all; export all; }
    anycast [ 192.88.99.0/24 ];
    |}
       filter import)

let create ?provider_in impl =
  match Speakers.create impl (Speaker.Config (upstream_config ?provider_in ())) with
  | Some sp -> sp
  | None -> Alcotest.failf "speaker %s not registered" impl

let incumbents =
  [ ("198.51.0.0/16", 64999); ("8.8.8.0/24", 64888); ("192.88.99.0/24", 64777) ]

let feed_incumbents sp =
  List.iter
    (fun (prefix, origin) ->
      let route =
        Route.make ~origin:Attr.Igp
          ~as_path:[ Asn.Path.Seq [ 64701; origin ] ]
          ~next_hop:collector ()
      in
      ignore
        (Speaker.feed sp ~peer:collector
           (Msg.Update { withdrawn = []; attrs = Route.to_attrs route; nlri = [ p prefix ] })))
    incumbents

let upstream ?provider_in impl =
  let sp = create ?provider_in impl in
  Speaker.establish sp ~peer:provider_side;
  Speaker.establish sp ~peer:collector;
  feed_incumbents sp;
  sp

let announcement ?(origin_asn = 64512) ?(origin = Attr.Igp) prefixes =
  Msg.Update
    {
      withdrawn = [];
      attrs =
        Route.to_attrs
          (Route.make ~origin
             ~as_path:[ Asn.Path.Seq [ 64510; origin_asn ] ]
             ~next_hop:provider_side ());
      nlri = List.map p prefixes;
    }

(* ---- conformance cases, one set per implementation ---- *)

let test_identity impl () =
  let sp = create impl in
  Alcotest.(check string) "id is the registry name" impl (Speaker.id sp);
  Alcotest.(check int) "fresh speaker processed nothing" 0 (Speaker.updates_processed sp);
  Alcotest.(check int) "local AS from config" 64700
    (Speaker.config sp).Config_types.local_as

let test_feed_and_attribution impl () =
  let sp = upstream impl in
  Alcotest.(check int) "every incumbent installed" (List.length incumbents)
    (Rib.Loc.cardinal (Speaker.loc_rib sp));
  List.iter
    (fun (prefix, _) ->
      (match Speaker.best_route sp (p prefix) with
      | Some e ->
        Alcotest.(check bool)
          (prefix ^ " attributed to the collector session") true
          (e.Rib.Loc.src.Route.peer_addr = collector)
      | None -> Alcotest.failf "%s not installed by %s" prefix impl);
      Alcotest.(check bool) "learned from the collector" true
        (Speaker.learned_from sp ~peer:collector (p prefix));
      Alcotest.(check bool) "not learned from the provider" false
        (Speaker.learned_from sp ~peer:provider_side (p prefix)))
    incumbents

let test_version_counter impl () =
  let sp = upstream impl in
  let v0 = Speaker.updates_processed sp in
  Alcotest.(check bool) "feeding advanced the version" true (v0 >= List.length incumbents);
  ignore (Speaker.feed sp ~peer:provider_side (announcement [ "100.0.0.0/16" ]));
  Alcotest.(check bool) "every update advances the version" true
    (Speaker.updates_processed sp > v0);
  let v1 = Speaker.updates_processed sp in
  ignore (Speaker.feed sp ~peer:provider_side Msg.Keepalive);
  Alcotest.(check int) "keepalives do not" v1 (Speaker.updates_processed sp)

let test_snapshot_restore_roundtrip impl () =
  let sp = upstream impl in
  let clone = Speaker.restore_like sp (Speaker.realization sp) (Speaker.snapshot sp) in
  Alcotest.(check string) "clone keeps the implementation" impl (Speaker.id clone);
  Alcotest.(check int) "clone keeps the version counter"
    (Speaker.updates_processed sp) (Speaker.updates_processed clone);
  Alcotest.(check int) "clone keeps the table"
    (Rib.Loc.cardinal (Speaker.loc_rib sp))
    (Rib.Loc.cardinal (Speaker.loc_rib clone));
  Alcotest.(check bytes) "snapshot of the clone is byte-identical"
    (Speaker.snapshot sp) (Speaker.snapshot clone)

let test_clone_isolation impl () =
  let sp = upstream impl in
  let before = Speaker.snapshot sp in
  let clone = Speaker.restore_like sp (Speaker.realization sp) before in
  ignore (Speaker.feed clone ~peer:provider_side (announcement [ "100.66.0.0/16" ]));
  Alcotest.(check bool) "clone took the route" true
    (Speaker.best_route clone (p "100.66.0.0/16") <> None);
  Alcotest.(check bool) "live speaker never saw it" true
    (Speaker.best_route sp (p "100.66.0.0/16") = None);
  Alcotest.(check bytes) "live state untouched" before (Speaker.snapshot sp)

let test_clone_of_restored_base impl () =
  (* the clone contract exploration relies on, over a base rebuilt from
     an image (as crash recovery and validation build theirs): runs
     import into clones of one checkpoint, so neither it nor a later
     clone may see a clone's writes, and a fresh clone must serialize to
     the checkpoint's image (clone-footprint page accounting diffs
     against it) *)
  let sp = upstream impl in
  let image = Speaker.snapshot sp in
  let base = Speaker.restore_like sp (Speaker.realization sp) image in
  let base_bytes = Speaker.snapshot base in
  let a = Speaker.clone base in
  let route =
    Route.make ~origin:Attr.Igp
      ~as_path:[ Asn.Path.Seq [ 64510; 64512 ] ]
      ~next_hop:provider_side ()
  in
  let outcome =
    match a with
    | Speaker.Inst ((module M), _, a) ->
      M.import_concolic ~ctx:Dice_concolic.Engine.null a ~peer:provider_side
        (Croute.of_route (p "100.88.0.0/16") route)
  in
  Alcotest.(check bool) "clone A accepted the route" true outcome.Speaker.accepted;
  Alcotest.(check bool) "clone A installed it" true
    (Speaker.best_route a (p "100.88.0.0/16") <> None);
  Alcotest.(check bytes) "the base is untouched" base_bytes (Speaker.snapshot base);
  let b = Speaker.clone base in
  Alcotest.(check bool) "clone B does not see A's route" true
    (Speaker.best_route b (p "100.88.0.0/16") = None);
  Alcotest.(check bool) "nor A's Adj-RIB-In" false
    (Speaker.learned_from b ~peer:provider_side (p "100.88.0.0/16"));
  Alcotest.(check bytes) "a fresh clone serializes to the restored image" image
    (Speaker.snapshot (Speaker.clone base))

let test_truncated_restore impl () =
  (* restore's contract is Invalid_argument on a corrupt image: every
     strict prefix of a real snapshot must fail through it and nothing
     else (no decoder exception leaking) *)
  let sp = upstream impl in
  let image = Speaker.snapshot sp in
  for len = 0 to Bytes.length image - 1 do
    match Speaker.restore_like sp (Speaker.realization sp) (Bytes.sub image 0 len) with
    | _ ->
      Alcotest.failf "%s: %d-byte prefix of a %d-byte image restored" impl len
        (Bytes.length image)
    | exception Invalid_argument _ -> ()
    | exception e ->
      Alcotest.failf "%s: %d-byte prefix raised %s" impl len (Printexc.to_string e)
  done

let test_large_table_roundtrip impl () =
  (* more entries in one table than a 16-bit count holds: the image must
     still restore, and re-serialize byte for byte *)
  let sp = upstream impl in
  let routes = 70_000 and per_update = 500 in
  (* from the collector: the provider session exports nothing, so the
     table is the Loc-RIB and one Adj-RIB-In *)
  let attrs =
    Route.to_attrs
      (Route.make ~origin:Attr.Igp ~as_path:[ Asn.Path.Seq [ 64701; 64512 ] ]
         ~next_hop:collector ())
  in
  let base = Ipv4.of_string "20.0.0.0" in
  for u = 0 to (routes / per_update) - 1 do
    let nlri =
      List.init per_update (fun i -> Prefix.make (base + (((u * per_update) + i) lsl 8)) 24)
    in
    ignore (Speaker.feed sp ~peer:collector (Msg.Update { withdrawn = []; attrs; nlri }))
  done;
  let last = Prefix.make (base + ((routes - 1) lsl 8)) 24 in
  Alcotest.(check bool) "the last route is installed" true (Speaker.best_route sp last <> None);
  let image = Speaker.snapshot sp in
  let restored = Speaker.restore_like sp (Speaker.realization sp) image in
  Alcotest.(check bool) "and restored" true (Speaker.best_route restored last <> None);
  Alcotest.(check bool) "restore then snapshot is byte-identical" true
    (Bytes.equal image (Speaker.snapshot restored))

let test_clone_captures_the_moment impl () =
  (* the orchestrator's checkpoint is a clone of the live speaker: it
     must keep the state of the moment it was taken, whatever the live
     speaker processes afterwards *)
  let sp = upstream impl in
  let before = Speaker.snapshot sp in
  let cp = Speaker.clone sp in
  ignore (Speaker.feed sp ~peer:provider_side (announcement [ "100.77.0.0/16" ]));
  Alcotest.(check bool) "live has the post-checkpoint route" true
    (Speaker.best_route sp (p "100.77.0.0/16") <> None);
  let image = Speaker.snapshot cp in
  Alcotest.(check bytes) "the checkpoint serializes to the pre-feed snapshot" before image;
  let restored = Speaker.restore_like sp (Speaker.realization sp) image in
  Alcotest.(check bool) "its image lacks the route" true
    (Speaker.best_route restored (p "100.77.0.0/16") = None)

let test_patch_rebuilds_snapshot impl () =
  (* an explorer clone's footprint is counted from its [snapshot_patch]
     against the checkpoint, never from a serialization of the clone: the
     patch laid over the checkpoint's image must give the clone's
     snapshot byte for byte, and count the same pages. Seeded random
     accepted imports (some with 80-AS paths, whose payload spills past a
     BIRD slot into the overflow region), rejected imports, re-announced
     incumbents and withdrawals, over a base whose layout has holes. *)
  let rng = Random.State.make [| 18 |] in
  let route ?(hops = 1) first =
    Route.make ~origin:Attr.Igp
      ~as_path:[ Asn.Path.Seq (first :: List.init hops (fun i -> 65000 + i)) ]
      ~next_hop:provider_side ()
  in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let fresh () = Printf.sprintf "100.%d.%d.0/24" (Random.State.int rng 8) (Random.State.int rng 4) in
  for trial = 1 to 12 do
    match upstream impl ~provider_in:"if net ~ [ 100.64.0.0/10{10,32} ] then reject; accept;" with
    | Speaker.Inst ((module M), _, live) ->
      (* holes: snapshot with extra routes, then withdraw some *)
      let extra = List.init 6 (fun _ -> fresh ()) in
      ignore (M.feed live ~peer:provider_side (announcement extra));
      ignore (M.snapshot live);
      ignore
        (M.feed live ~peer:provider_side
           (Msg.Update { withdrawn = [ p (pick extra); p (pick extra) ]; attrs = []; nlri = [] }));
      let base = M.clone live in
      let img = M.snapshot base in
      let ops =
        List.init (1 + Random.State.int rng 8) (fun _ ->
            match Random.State.int rng 5 with
            | 0 -> `Import (fresh (), 1)
            | 1 -> `Import (fresh (), 80)
            | 2 -> `Import (Printf.sprintf "100.%d.0.0/16" (64 + Random.State.int rng 64), 1)
            | 3 -> `Reannounce (fst (pick incumbents))
            | _ -> `Withdraw (pick (List.map fst incumbents @ extra)))
      in
      let apply sp = function
        | `Import (prefix, hops) ->
          ignore
            (M.import_concolic ~ctx:Dice_concolic.Engine.null sp ~peer:provider_side
               (Croute.of_route (p prefix) (route ~hops 64510)))
        | `Reannounce prefix ->
          ignore
            (M.feed sp ~peer:collector
               (Msg.Update
                  { withdrawn = [];
                    attrs = Route.to_attrs { (route ~hops:2 64701) with Route.next_hop = collector };
                    nlri = [ p prefix ] }))
        | `Withdraw prefix ->
          List.iter
            (fun peer ->
              ignore
                (M.feed sp ~peer
                   (Msg.Update { withdrawn = [ p prefix ]; attrs = []; nlri = [] })))
            [ collector; provider_side ]
      in
      let a = M.clone base and b = M.clone base in
      List.iter (apply a) ops;
      List.iter (apply b) ops;
      let ((len, writes) as patch) = M.snapshot_patch ~base a in
      let rebuilt = Bytes.make len '\000' in
      Bytes.blit img 0 rebuilt 0 (min len (Bytes.length img));
      List.iter (fun (off, w) -> Bytes.blit w 0 rebuilt off (Bytes.length w)) writes;
      let image = M.snapshot b in
      Alcotest.(check bytes) (Printf.sprintf "trial %d: the patched image is the snapshot" trial)
        image rebuilt;
      let cp = Dice_checkpoint.Fork.(checkpoint (create ()) ~live_image:img) in
      let metadata = Bytes.make (Random.State.int rng 6000) 'm' in
      let by_patch = Dice_checkpoint.Fork.footprint cp ~patch ~metadata in
      let by_image =
        Dice_checkpoint.Fork.footprint cp
          ~patch:(Bytes.length image + Bytes.length metadata, [ (0, Bytes.cat image metadata) ])
          ~metadata:Bytes.empty
      in
      let fields (s : Dice_checkpoint.Fork.clone_stats) =
        Dice_checkpoint.Fork.(s.pages, s.unique, s.unique_fraction, s.extra_fraction)
      in
      Alcotest.(check (pair (pair int int) (pair (float 0.) (float 0.))))
        (Printf.sprintf "trial %d: the same footprint as the whole image" trial)
        (let a, b, c, d = fields by_image in ((a, b), (c, d)))
        (let a, b, c, d = fields by_patch in ((a, b), (c, d)))
  done

let test_explores_as_live_node impl () =
  (* the full checkpoint–symbolize–explore loop with this implementation
     as the live node: a clone checkpoint, concolic import over clones
     of it, checking — nothing in the orchestrator may assume BIRD. The
     import filter branches on fields that leave the prefix alone, so
     several accepted runs import the same prefix, whatever the
     implementation instruments past the shared policy interpreter. *)
  let sp =
    upstream impl
      ~provider_in:
        "if bgp_path.last = 64666 then { bgp_local_pref = 90; accept; } \
         if bgp_origin = 2 then { bgp_local_pref = 80; accept; } accept;"
  in
  (* every run must start from the checkpoint: a recording checker sees
     each outcome, and its [previous_best] must be the live speaker's
     best route for that prefix, never an earlier run's import *)
  let outcomes = ref [] in
  let recorder =
    { Checker.name = "record";
      check = (fun _ outcome -> outcomes := outcome :: !outcomes; []);
    }
  in
  let cfg =
    { Orchestrator.default_cfg with
      Orchestrator.checkers = recorder :: Orchestrator.default_cfg.Orchestrator.checkers;
      exploration =
        { Orchestrator.default_exploration with
          Orchestrator.explorer =
            { Dice_concolic.Explorer.default_config with
              Dice_concolic.Explorer.max_runs = 24;
              max_depth = 64;
            };
        };
    }
  in
  let dice = Orchestrator.create ~cfg sp in
  let before = Speaker.snapshot sp in
  Orchestrator.observe dice ~peer:provider_side ~prefix:(p "100.80.0.0/16")
    ~route:
      (Route.make ~origin:Attr.Igp
         ~as_path:[ Asn.Path.Seq [ 64510; 64512 ] ]
         ~next_hop:provider_side ());
  let report = Orchestrator.explore dice in
  Alcotest.(check int) "the seed was explored" 1
    (List.length report.Orchestrator.seed_reports);
  Alcotest.(check bytes) "exploration never touches the live speaker" before
    (Speaker.snapshot sp);
  let sr = List.hd report.Orchestrator.seed_reports in
  Alcotest.(check bool) "several runs accepted, so runs crossed a re-clone" true
    (sr.Orchestrator.runs_accepted >= 2);
  Alcotest.(check int) "every run reached the checker"
    (sr.Orchestrator.runs_accepted + sr.Orchestrator.runs_rejected)
    (List.length !outcomes);
  (* the live speaker is byte-identical to its checkpoint-time self *)
  List.iter
    (fun (o : Speaker.import_outcome) ->
      if o.Speaker.previous_best <> Speaker.best_route sp o.Speaker.prefix then
        Alcotest.failf "%s: a run saw %s's best route left by an earlier run" impl
          (Prefix.to_string o.Speaker.prefix))
    !outcomes

(* ---- Local/Remote equivalence, per implementation (ISSUE 5: the new
   speaker must answer identically over both transports) ---- *)

let render outcome =
  match outcome with
  | Distributed.Timeout -> "timeout"
  | Distributed.Declined r -> "declined:" ^ r
  | Distributed.Verdicts vs ->
    String.concat ";"
      (List.map
         (fun (q, v) -> Prefix.to_string q ^ "=" ^ Verdict.to_string v)
         vs)

let local_agent sp =
  Distributed.agent ~name:"up-local" ~addr:(Ipv4.of_string "10.0.2.2")
    ~explorer_addr:provider_side (Distributed.Local sp)

let remote_agent net sp =
  let serving =
    Distributed.agent ~name:"up-serving" ~addr:(Ipv4.of_string "10.0.2.2")
      ~explorer_addr:provider_side (Distributed.Local sp)
  in
  let srv = Distributed.serve net serving in
  let cl = Probe_rpc.client net ~name:"explorer" in
  Network.connect net (Probe_rpc.client_node cl) (Probe_rpc.server_node srv)
    ~latency:0.001;
  let ep = Probe_rpc.endpoint cl ~server:(Probe_rpc.server_node srv) in
  Distributed.agent ~name:"up-remote" ~addr:(Ipv4.of_string "10.0.2.2")
    ~explorer_addr:provider_side (Distributed.Remote ep)

let equivalence_workload =
  [ announcement [ "198.51.100.0/24" ];  (* origin conflict *)
    announcement [ "198.0.0.0/8" ];  (* coverage leak *)
    announcement [ "100.0.0.0/16" ];  (* clean *)
    announcement [ "198.51.100.0/24"; "100.0.0.0/16" ];  (* multi-prefix *)
    announcement [ "192.88.99.0/24" ];  (* whitelisted *)
    announcement ~origin_asn:64888 [ "8.8.8.0/24" ];  (* same origin *)
    Msg.Keepalive  (* declined *) ]

let test_local_remote_equivalence impl () =
  let la = local_agent (upstream impl) in
  let ra = remote_agent (Network.create ()) (upstream impl) in
  List.iteri
    (fun i msg ->
      Alcotest.(check string)
        (Printf.sprintf "message %d answers identically over both transports" i)
        (render (Distributed.probe la ~from:provider_side msg))
        (render (Distributed.probe ra ~from:provider_side msg)))
    equivalence_workload

(* ---- wire tap: a quagga agent interoperates over unmodified
   Probe_wire frames — no new frame kinds, responses stay small ---- *)

let test_wire_tap_no_new_frame_types impl () =
  let net = Network.create () in
  let serving =
    Distributed.agent ~name:"up-serving" ~addr:(Ipv4.of_string "10.0.2.2")
      ~explorer_addr:provider_side (Distributed.Local (upstream impl))
  in
  let srv = Distributed.serve net serving in
  let cl = Probe_rpc.client net ~name:"explorer" in
  let client_id = Probe_rpc.client_node cl in
  let server_id = Probe_rpc.server_node srv in
  let crossed = ref [] in
  let tap =
    Network.add_node net ~name:"tap" ~handler:(fun net ~self ~from b ->
        crossed := Bytes.copy b :: !crossed;
        let dst = if from = client_id then server_id else client_id in
        Network.send net ~src:self ~dst b)
  in
  Network.connect net client_id tap ~latency:0.001;
  Network.connect net tap server_id ~latency:0.001;
  let ep = Probe_rpc.endpoint cl ~server:tap in
  let ra =
    Distributed.agent ~name:"up-remote" ~addr:(Ipv4.of_string "10.0.2.2")
      ~explorer_addr:provider_side (Distributed.Remote ep)
  in
  List.iter
    (fun msg -> ignore (Distributed.probe ra ~from:provider_side msg))
    [ announcement [ "198.51.100.0/24" ];
      announcement [ "198.0.0.0/8"; "100.0.0.0/16" ] ];
  Alcotest.(check bool) "traffic crossed the tap" true (List.length !crossed >= 4);
  List.iter
    (fun b ->
      match Probe_wire.decode b with
      | Probe_wire.Request _ | Probe_wire.Decline _ | Probe_wire.Error _
      | Probe_wire.Heartbeat _ -> ()
      | Probe_wire.Response { verdicts; _ } ->
        Alcotest.(check bool) "responses carry per-prefix verdicts only" true
          (List.length verdicts <= 2);
        Alcotest.(check bool) "response size independent of the RIB behind it" true
          (Bytes.length b < 128)
      | exception Dice_wire.Rbuf.Truncated msg ->
        Alcotest.failf "%s emitted a non-Probe_wire frame: %s" impl msg)
    !crossed

(* ---- QCheck: how far may the implementations diverge? ---- *)

let verdicts_for agent msg =
  Distributed.verdicts (Distributed.probe agent ~from:provider_side msg)

let arb_announcement ~allow_incumbent_prefixes =
  (* prefixes under the incumbents' umbrella (more-specifics), in unheld
     space, and — when allowed — the incumbents themselves, where the
     probe competes head-on with an installed route and decision
     tie-breaking kicks in *)
  let open QCheck.Gen in
  let more_specific =
    let* len = int_range 17 24 in
    let* bits = int_bound ((1 lsl (len - 16)) - 1) in
    return (Prefix.make ((198 lsl 24) lor (51 lsl 16) lor (bits lsl (32 - len))) len)
  in
  let unheld =
    let* block = int_range 0 255 in
    return (Prefix.make (100 lsl 24 lor (block lsl 16)) 16)
  in
  let incumbent = oneofl (List.map (fun (q, _) -> p q) incumbents) in
  let prefix =
    if allow_incumbent_prefixes then oneof [ more_specific; unheld; incumbent ]
    else oneof [ more_specific; unheld ]
  in
  let gen =
    let* prefix = prefix in
    let* origin_asn = oneofl [ 64512; 64513; 64888; 64999 ] in
    let* origin = oneofl [ Attr.Igp; Attr.Egp; Attr.Incomplete ] in
    let* med = oneofl [ None; Some 0; Some 50 ] in
    return
      (Msg.Update
         {
           withdrawn = [];
           attrs =
             Route.to_attrs
               (Route.make ~origin ~med
                  ~as_path:[ Asn.Path.Seq [ 64510; origin_asn ] ]
                  ~next_hop:provider_side ());
           nlri = [ prefix ];
         })
  in
  QCheck.make gen ~print:(fun m ->
      match m with
      | Msg.Update u -> String.concat "," (List.map Prefix.to_string u.Msg.nlri)
      | _ -> "<non-update>")

(* Property B: whatever the announcement, BIRD and Quagga always agree
   on acceptance and on origin-conflict detection — the facts the
   narrow interface promises to mean the same thing everywhere. *)
let prop_origin_conflict_agreement =
  let bird = local_agent (upstream "bird") in
  let quagga = local_agent (upstream "quagga") in
  QCheck.Test.make ~name:"bird/quagga agree on acceptance and origin conflicts"
    ~count:150
    (arb_announcement ~allow_incumbent_prefixes:true)
    (fun msg ->
      List.for_all2
        (fun (ql, vl) (qr, vr) ->
          Prefix.equal ql qr
          && vl.Verdict.accepted = vr.Verdict.accepted
          && vl.Verdict.origin_conflict = vr.Verdict.origin_conflict)
        (verdicts_for bird msg) (verdicts_for quagga msg))

(* Property A: away from head-on competition with an installed route
   (no decision tie-breaking involved), the whole verdict must agree —
   divergences are *only* the documented tie-break cases. *)
let prop_tie_free_full_agreement =
  let bird = local_agent (upstream "bird") in
  let quagga = local_agent (upstream "quagga") in
  QCheck.Test.make ~name:"bird/quagga verdicts identical off the tie-break paths"
    ~count:150
    (arb_announcement ~allow_incumbent_prefixes:false)
    (fun msg ->
      List.for_all2
        (fun (ql, vl) (qr, vr) -> Prefix.equal ql qr && Verdict.equal vl vr)
        (verdicts_for bird msg) (verdicts_for quagga msg))

(* Property C: the whole registered triple — not just one pair — agrees
   on acceptance and origin-conflict detection, announcement by
   announcement. This is the invariant the N-way panel's taxonomy
   rests on: a majority vote can only ever split downstream of the
   decision process (tie-break divergences), never on the policy- and
   origin-level facts. *)
let prop_panel_origin_conflict_agreement =
  let agents = List.map (fun impl -> local_agent (upstream impl)) Speakers.names in
  QCheck.Test.make
    ~name:"all registered speakers agree on acceptance and origin conflicts"
    ~count:150
    (arb_announcement ~allow_incumbent_prefixes:true)
    (fun msg ->
      match List.map (fun a -> verdicts_for a msg) agents with
      | [] -> true
      | reference :: rest ->
        List.for_all
          (List.for_all2
             (fun (ql, vl) (qr, vr) ->
               Prefix.equal ql qr
               && vl.Verdict.accepted = vr.Verdict.accepted
               && vl.Verdict.origin_conflict = vr.Verdict.origin_conflict)
             reference)
          rest)

(* ---- the BGP import and export rules every implementation shares ---- *)

let core_side = Ipv4.of_string "10.0.4.2"
let router_id = Ipv4.of_string "10.0.2.2"

(* Two eBGP sessions and one iBGP session, all exporting; the provider's
   import filter rejects a MED above 100 *)
let exporting impl =
  let cfg =
    Config_parser.parse
      {|
    router id 10.0.2.2;
    local as 64700;
    filter provider_in { if bgp_med > 100 then reject; accept; }
    protocol static { route 192.0.2.0/24 via 10.0.2.2; }
    protocol bgp provider { neighbor 10.0.2.1 as 64510; import filter provider_in; export all; }
    protocol bgp collector { neighbor 10.0.3.2 as 64701; import all; export all; }
    protocol bgp core { neighbor 10.0.4.2 as 64700; import all; export all; }
    |}
  in
  match Speakers.create impl (Speaker.Config cfg) with
  | Some sp ->
    List.iter (fun peer -> Speaker.establish sp ~peer) [ provider_side; collector; core_side ];
    sp
  | None -> Alcotest.failf "speaker %s not registered" impl

let offered ?(med = Some 50) ?(communities = []) ?(path = [ 64510; 64512 ]) peer =
  Route.make ~origin:Attr.Igp ~as_path:[ Asn.Path.Seq path ] ~next_hop:peer ~med ~communities ()

let announce_from sp peer route prefix =
  Speaker.feed sp ~peer
    (Msg.Update { withdrawn = []; attrs = Route.to_attrs route; nlri = [ p prefix ] })

(* The UPDATEs as sorted [(destination, prefix, Some route)] per
   announced prefix and [(destination, prefix, None)] per withdrawn one *)
let adverts outs =
  List.concat_map
    (fun (dst, m) ->
      match m with
      | Msg.Update u ->
        List.map (fun q -> (dst, q, None)) u.Msg.withdrawn
        @ (match Route.of_attrs u.Msg.attrs with
          | Ok r -> List.map (fun q -> (dst, q, Some r)) u.Msg.nlri
          | Error _ -> [])
      | _ -> Alcotest.fail "a speaker sent a non-UPDATE in response to an UPDATE")
    outs
  |> List.sort compare

(* the sessions [outs] sends anything to are exactly [expected] *)
let check_receivers msg expected outs =
  let dsts = List.sort_uniq compare (List.map (fun (dst, _, _) -> dst) (adverts outs)) in
  Alcotest.(check (list string)) msg (List.map Ipv4.to_string expected)
    (List.map Ipv4.to_string dsts)

let test_split_horizon impl () =
  let sp = exporting impl in
  let outs = announce_from sp provider_side (offered provider_side) "100.1.0.0/16" in
  check_receivers "every session but the source's hears it" [ collector; core_side ] outs

let test_no_export_no_advertise impl () =
  let sp = exporting impl in
  let outs =
    announce_from sp provider_side
      (offered ~communities:[ Community.no_export ] provider_side)
      "100.2.0.0/16"
  in
  Alcotest.(check bool) "a NO_EXPORT route is installed" true
    (Speaker.best_route sp (p "100.2.0.0/16") <> None);
  check_receivers "NO_EXPORT reaches the iBGP session only" [ core_side ] outs;
  let outs =
    announce_from sp provider_side
      (offered ~communities:[ Community.no_advertise ] provider_side)
      "100.3.0.0/16"
  in
  Alcotest.(check bool) "a NO_ADVERTISE route is installed" true
    (Speaker.best_route sp (p "100.3.0.0/16") <> None);
  check_receivers "NO_ADVERTISE reaches nobody" [] outs

let test_ebgp_rewrite_ibgp_passthrough impl () =
  let sp = exporting impl in
  let offer = offered provider_side in
  let outs = announce_from sp provider_side offer "100.4.0.0/16" in
  let sent_to peer =
    match List.filter (fun (dst, _, _) -> dst = peer) (adverts outs) with
    | [ (_, q, Some r) ] when q = p "100.4.0.0/16" -> r
    | _ -> Alcotest.failf "%s: expected one announcement to %s" impl (Ipv4.to_string peer)
  in
  let ebgp = sent_to collector in
  Alcotest.(check bool) "eBGP prepends the local AS" true
    (ebgp.Route.as_path = Asn.Path.prepend 64700 offer.Route.as_path);
  Alcotest.(check string) "eBGP sets next-hop-self" (Ipv4.to_string router_id)
    (Ipv4.to_string ebgp.Route.next_hop);
  Alcotest.(check (option int)) "eBGP strips LOCAL_PREF" None ebgp.Route.local_pref;
  Alcotest.(check (option int)) "eBGP strips MED" None ebgp.Route.med;
  let ibgp = sent_to core_side in
  Alcotest.(check bool) "iBGP keeps the path" true (ibgp.Route.as_path = offer.Route.as_path);
  Alcotest.(check string) "iBGP keeps the next hop" (Ipv4.to_string provider_side)
    (Ipv4.to_string ibgp.Route.next_hop);
  Alcotest.(check (option int)) "iBGP carries the default LOCAL_PREF" (Some 100)
    ibgp.Route.local_pref;
  Alcotest.(check (option int)) "iBGP carries the MED" (Some 50) ibgp.Route.med

let test_loop_rejected impl () =
  let sp = exporting impl in
  let outs =
    announce_from sp provider_side (offered ~path:[ 64510; 64700; 64512 ] provider_side)
      "100.5.0.0/16"
  in
  Alcotest.(check int) "nothing exported" 0 (List.length outs);
  Alcotest.(check bool) "nothing installed" true
    (Speaker.best_route sp (p "100.5.0.0/16") = None);
  Alcotest.(check bool) "nothing learned" false
    (Speaker.learned_from sp ~peer:provider_side (p "100.5.0.0/16"))

(* An announcement, then [second] for the same prefix from the same
   session, must withdraw the route everywhere it was exported *)
let withdrawn_by impl second () =
  let sp = exporting impl in
  ignore (announce_from sp provider_side (offered provider_side) "100.6.0.0/16");
  Alcotest.(check bool) "first installed" true
    (Speaker.best_route sp (p "100.6.0.0/16") <> None);
  let outs = Speaker.feed sp ~peer:provider_side second in
  Alcotest.(check bool) "gone from the table" true
    (Speaker.best_route sp (p "100.6.0.0/16") = None);
  Alcotest.(check bool) "gone from the Adj-RIB-In" false
    (Speaker.learned_from sp ~peer:provider_side (p "100.6.0.0/16"));
  Alcotest.(check bool) "withdrawn from both sessions it reached" true
    (adverts outs
    = List.sort compare
        [ (collector, p "100.6.0.0/16", None); (core_side, p "100.6.0.0/16", None) ])

let test_treat_as_withdraw impl =
  withdrawn_by impl (Msg.Update { withdrawn = []; attrs = []; nlri = [ p "100.6.0.0/16" ] })

let test_policy_rejected_reannouncement impl =
  withdrawn_by impl
    (Msg.Update
       { withdrawn = [];
         attrs = Route.to_attrs (offered ~med:(Some 500) provider_side);
         nlri = [ p "100.6.0.0/16" ] })

(* Each implementation's image of one fixed seeded table, by MD5: the
   formats are the implementations' own, and whatever code the speakers
   share must leave them byte-identical *)
let image_md5 =
  [ ("bird", "5e7ab76057ee048b0767b0c91f7a6a96");
    ("quagga", "9e3d6e753e83f96165a592e394194d63");
    ("xorp", "4b74bc7ff5b6844bee0c56c6b49e7e64") ]

let test_image_pinned impl () =
  let sp = exporting impl in
  let rng = Random.State.make [| 21 |] in
  let prefix () =
    Prefix.make
      ((100 lsl 24) lor (Random.State.int rng 64 lsl 16) lor (Random.State.int rng 4 lsl 8))
      (16 + (8 * Random.State.int rng 2))
  in
  let peers = [| provider_side; collector; core_side |] in
  let first = function 0 -> 64510 | 1 -> 64701 | _ -> 64801 in
  let held = ref [] in
  for _ = 1 to 60 do
    let i = Random.State.int rng 3 in
    let peer = peers.(i) in
    match Random.State.int rng 6 with
    | 0 when !held <> [] ->
      let q = List.nth !held (Random.State.int rng (List.length !held)) in
      ignore (Speaker.feed sp ~peer (Msg.Update { withdrawn = [ q ]; attrs = []; nlri = [] }))
    | k ->
      let route =
        offered
          ~med:(if k = 1 then Some (Random.State.int rng 200) else None)
          ~communities:(if k = 2 then [ Community.no_export ] else [])
          ~path:(first i :: List.init (Random.State.int rng 4) (fun j -> 65000 + j))
          peer
      in
      let nlri = List.init (1 + Random.State.int rng 3) (fun _ -> prefix ()) in
      held := nlri @ !held;
      let attrs = Route.to_attrs route in
      ignore (Speaker.feed sp ~peer (Msg.Update { withdrawn = []; attrs; nlri }))
  done;
  Alcotest.(check bool) "the static is in the table" true
    (Speaker.best_route sp (p "192.0.2.0/24") <> None);
  Alcotest.(check bool) "the table is not trivial" true
    (Rib.Loc.cardinal (Speaker.loc_rib sp) > 40);
  Alcotest.(check string) "image MD5" (List.assoc impl image_md5)
    (Digest.to_hex (Digest.bytes (Speaker.snapshot sp)))

let conformance impl =
  [ (impl ^ ": registry identity and config", `Quick, test_identity impl);
    (impl ^ ": split horizon", `Quick, test_split_horizon impl);
    (impl ^ ": NO_EXPORT and NO_ADVERTISE", `Quick, test_no_export_no_advertise impl);
    (impl ^ ": eBGP rewrite, iBGP passthrough", `Quick,
      test_ebgp_rewrite_ibgp_passthrough impl);
    (impl ^ ": AS-path loops are rejected", `Quick, test_loop_rejected impl);
    (impl ^ ": malformed attributes withdraw", `Quick, test_treat_as_withdraw impl);
    (impl ^ ": a policy-rejected re-announcement withdraws", `Quick,
      test_policy_rejected_reannouncement impl);
    (impl ^ ": image pinned", `Quick, test_image_pinned impl);
    (impl ^ ": feed installs with session attribution", `Quick,
      test_feed_and_attribution impl);
    (impl ^ ": update-version counter", `Quick, test_version_counter impl);
    (impl ^ ": snapshot/restore roundtrip", `Quick, test_snapshot_restore_roundtrip impl);
    (impl ^ ": restored clones are isolated", `Quick, test_clone_isolation impl);
    (impl ^ ": clones of a restored base are isolated", `Quick,
      test_clone_of_restored_base impl);
    (impl ^ ": truncated images fail with Invalid_argument", `Quick,
      test_truncated_restore impl);
    (impl ^ ": tables past 65,535 routes round-trip", `Quick,
      test_large_table_roundtrip impl);
    (impl ^ ": freeze captures the moment", `Quick, test_clone_captures_the_moment impl);
    (impl ^ ": a clone's patch rebuilds its snapshot", `Quick,
      test_patch_rebuilds_snapshot impl);
    (impl ^ ": serves as the explored live node", `Quick, test_explores_as_live_node impl);
    (impl ^ ": local/remote transport equivalence", `Quick,
      test_local_remote_equivalence impl);
    (impl ^ ": wire tap sees only Probe_wire frames", `Quick,
      test_wire_tap_no_new_frame_types impl)
  ]

let suite =
  List.concat_map conformance Speakers.names
  @ [ QCheck_alcotest.to_alcotest prop_origin_conflict_agreement;
      QCheck_alcotest.to_alcotest prop_tie_free_full_agreement;
      QCheck_alcotest.to_alcotest prop_panel_origin_conflict_agreement
    ]
