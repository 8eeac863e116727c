(* Divergence hunting as a product: the N-way differential panel names
   the outlier implementation, the delta-debugging minimizer shrinks
   the triggering schedule, and the replay artifact re-executes the
   repro bit-identically — against the whole panel or any subset. *)
open Dice_inet
open Dice_bgp
open Dice_core

let p = Prefix.of_string
let provider_side = Ipv4.of_string "10.0.2.1"
let collector = Ipv4.of_string "10.0.3.2"
let panel_addr = Ipv4.of_string "10.0.2.2"

let panel_config_src =
  {|
  router id 10.0.2.2;
  local as 64700;
  protocol bgp provider { neighbor 10.0.2.1 as 64510; import all; export none; }
  protocol bgp collector { neighbor 10.0.3.2 as 64701; import all; export all; }
  |}

let panel_config () = Config_parser.parse panel_config_src

(* The seeded tie-break scenario: an incumbent learned from the
   collector with a *lower* next hop than the probed announcement, equal
   on every decision step before the tie-breaks. Implementations that
   break ties on peer identity (bird: bgp id; quagga: peer address)
   switch to the probe; xorp consults IGP cost (the next-hop proxy)
   first and keeps the incumbent — a 2-vs-1 split naming xorp. *)
let incumbent_update ~path =
  Msg.Update
    {
      Msg.withdrawn = [];
      attrs =
        Route.to_attrs
          (Route.make ~origin:Attr.Igp ~as_path:[ Asn.Path.Seq path ]
             ~next_hop:(Ipv4.of_string "10.0.0.1") ());
      nlri = [ p "203.0.113.0/24" ];
    }

let trigger_update ~path =
  Msg.Update
    {
      Msg.withdrawn = [];
      attrs =
        Route.to_attrs
          (Route.make ~origin:Attr.Igp ~as_path:[ Asn.Path.Seq path ]
             ~next_hop:provider_side ());
      nlri = [ p "203.0.113.0/24" ];
    }

let default_setup = [ (collector, incumbent_update ~path:[ 64701; 64512 ]) ]

let member ?(config = panel_config ()) ~setup name impl =
  let sp = Speakers.create_exn impl (Speaker.Config config) in
  Speaker.establish sp ~peer:provider_side;
  Speaker.establish sp ~peer:collector;
  List.iter (fun (peer, msg) -> ignore (Speaker.feed sp ~peer msg)) setup;
  Distributed.agent ~name ~addr:panel_addr ~explorer_addr:provider_side
    (Distributed.Local sp)

let full_panel ?(setup = default_setup) () =
  List.map (fun impl -> member ~setup impl impl) Speakers.names

(* ---- the registry error path (create_exn) ---- *)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_create_exn_unknown () =
  (match Speakers.create "frr" (Speaker.Config (panel_config ())) with
  | Some _ -> Alcotest.fail "create accepted an unknown name"
  | None -> ());
  match Speakers.create_exn "frr" (Speaker.Config (panel_config ())) with
  | _ -> Alcotest.fail "create_exn accepted an unknown name"
  | exception Invalid_argument msg ->
    List.iter
      (fun known ->
        Alcotest.(check bool)
          (Printf.sprintf "error lists %s" known)
          true (contains msg known))
      Speakers.names;
    Alcotest.(check bool) "error names the offender" true (contains msg "frr")

let test_dialect_registry () =
  List.iter
    (fun name ->
      match Speakers.dialect name with
      | Some (module D : Dialect.S) ->
        Alcotest.(check string) (name ^ " dialect carries its name") name D.name
      | None -> Alcotest.failf "no dialect registered for %s" name)
    Speakers.names;
  Alcotest.(check bool) "no dialect for an unknown name" true
    (Speakers.dialect "frr" = None)

(* ---- outlier naming and classification ---- *)

let test_panel_names_outlier () =
  let agents = full_panel () in
  let ds =
    Panel.probe ~jobs:1 ~agents
      [ (provider_side, trigger_update ~path:[ 64510; 64512 ]) ]
  in
  match ds with
  | [ d ] ->
    Alcotest.(check bool) "tie-break class" true d.Panel.tie_break_only;
    Alcotest.(check (list string)) "xorp is the named outlier" [ "xorp" ]
      d.Panel.outliers;
    Alcotest.(check bool) "majority installed" true
      d.Panel.majority.Verdict.installed;
    Alcotest.(check int) "every member answered" (List.length Speakers.names)
      (List.length (List.filter_map snd d.Panel.answers));
    Alcotest.(check string) "stable signature"
      "203.0.113.0/24|tiebreak|xorp" (Panel.signature d)
  | ds -> Alcotest.failf "expected exactly one divergence, got %d" (List.length ds)

let test_panel_semantic_outlier () =
  (* same implementation three times, one member behind a deny-all
     import policy: it rejects what the others accept — a semantic
     divergence (disagreement on the policy-level facts) naming the
     deviant member *)
  let deny_config =
    Config_parser.parse
      {|
      router id 10.0.2.2;
      local as 64700;
      protocol bgp provider { neighbor 10.0.2.1 as 64510; import none; export none; }
      protocol bgp collector { neighbor 10.0.3.2 as 64701; import all; export all; }
      |}
  in
  let agents =
    [ member ~setup:default_setup "bird-a" "bird";
      member ~setup:default_setup "bird-b" "bird";
      member ~config:deny_config ~setup:default_setup "bird-deny" "bird" ]
  in
  let ds =
    Panel.probe ~jobs:1 ~agents
      [ (provider_side, trigger_update ~path:[ 64510; 64512 ]) ]
  in
  match ds with
  | [ d ] ->
    Alcotest.(check bool) "semantic, not tie-break" false d.Panel.tie_break_only;
    Alcotest.(check (list string)) "the deny member is the outlier"
      [ "bird-deny" ] d.Panel.outliers;
    Alcotest.(check bool) "majority accepted" true d.Panel.majority.Verdict.accepted
  | ds -> Alcotest.failf "expected exactly one divergence, got %d" (List.length ds)

let test_panel_agreement_is_silent () =
  let agents = full_panel () in
  (* longer path than the incumbent: everyone keeps the incumbent *)
  let ds =
    Panel.probe ~jobs:1 ~agents
      [ (provider_side, trigger_update ~path:[ 64510; 64513; 64512 ]) ]
  in
  Alcotest.(check int) "no divergence when the panel agrees" 0 (List.length ds)

(* ---- determinism of divergence reports under parallel probing ---- *)

let noise i =
  Msg.Update
    {
      Msg.withdrawn = [];
      attrs =
        Route.to_attrs
          (Route.make ~origin:Attr.Igp
             ~as_path:[ Asn.Path.Seq [ 64510; 64512 ] ]
             ~next_hop:provider_side ());
      nlri = [ Prefix.make ((100 lsl 24) lor (i lsl 16)) 16 ];
    }

let test_two_member_sorted_deterministic () =
  (* exchanges arrive in descending prefix order; reports must come out
     prefix-sorted and identical whatever the job count *)
  let mk () =
    let setup =
      [ (collector, incumbent_update ~path:[ 64701; 64512 ]);
        ( collector,
          Msg.Update
            {
              Msg.withdrawn = [];
              attrs =
                Route.to_attrs
                  (Route.make ~origin:Attr.Igp
                     ~as_path:[ Asn.Path.Seq [ 64701; 64512 ] ]
                     ~next_hop:(Ipv4.of_string "10.0.0.1") ());
              nlri = [ p "100.1.0.0/16" ];
            } ) ]
    in
    (member ~setup "left" "bird", member ~setup "right" "xorp")
  in
  let exchanges =
    [ (provider_side, trigger_update ~path:[ 64510; 64512 ]);
      (provider_side, noise 9);
      ( provider_side,
        Msg.Update
          {
            Msg.withdrawn = [];
            attrs =
              Route.to_attrs
                (Route.make ~origin:Attr.Igp
                   ~as_path:[ Asn.Path.Seq [ 64510; 64512 ] ]
                   ~next_hop:provider_side ());
            nlri = [ p "100.1.0.0/16" ];
          } ) ]
  in
  let run jobs =
    let left, right = mk () in
    List.map
      (fun (d : Panel.divergence) -> Prefix.to_string d.Panel.prefix)
      (Panel.probe ~jobs ~agents:[ left; right ] exchanges)
  in
  let sequential = run 1 in
  Alcotest.(check (list string))
    "divergences sorted by prefix" [ "100.1.0.0/16"; "203.0.113.0/24" ] sequential;
  Alcotest.(check (list string)) "jobs=4 report identical" sequential (run 4)

(* ---- ddmin ---- *)

let test_ddmin_synthetic () =
  let tests = ref 0 in
  let pred l =
    incr tests;
    List.mem 3 l && List.mem 27 l
  in
  let input = List.init 40 (fun i -> i) in
  let minimal = Minimize.ddmin pred input in
  Alcotest.(check (list int)) "exactly the two relevant elements" [ 3; 27 ] minimal;
  Alcotest.(check bool) "1-minimal: dropping either breaks it" true
    (List.for_all
       (fun x -> not (pred (List.filter (fun y -> y <> x) minimal)))
       minimal)

let test_ddmin_requires_failing_input () =
  match Minimize.ddmin (fun _ -> false) [ 1; 2; 3 ] with
  | _ -> Alcotest.fail "ddmin accepted a predicate that fails on the input"
  | exception Invalid_argument _ -> ()

(* ---- end-to-end minimization of a panel hit ---- *)

let test_minimize_panel_divergence () =
  (* the triggering message hides in 40 messages of noise and carries
     droppable baggage: MED, communities — and a 3-hop path matching
     the (3-hop) incumbent, whose middle hop must NOT be dropped or the
     path-length tie (and with it the divergence) disappears *)
  let setup = [ (collector, incumbent_update ~path:[ 64701; 64800; 64512 ]) ] in
  let agents3 = List.map (fun impl -> member ~setup impl impl) Speakers.names in
  let trigger =
    Msg.Update
      {
        Msg.withdrawn = [];
        attrs =
          Route.to_attrs
            (Route.make ~origin:Attr.Igp ~med:(Some 50)
               ~communities:[ Community.make 64510 77 ]
               ~as_path:[ Asn.Path.Seq [ 64510; 64777; 64512 ] ]
               ~next_hop:provider_side ());
        nlri = [ p "203.0.113.0/24" ];
      }
  in
  let schedule =
    List.init 20 (fun i -> (provider_side, noise i))
    @ [ (provider_side, trigger) ]
    @ List.init 19 (fun i -> (provider_side, noise (20 + i)))
  in
  let ds = Panel.probe ~jobs:1 ~agents:agents3 schedule in
  let d =
    match ds with
    | [ d ] -> d
    | ds -> Alcotest.failf "expected one divergence in the noise, got %d" (List.length ds)
  in
  let minimal, st =
    Minimize.divergence ~jobs:1 ~agents:agents3
      { Panel.schedule; divergence = d }
  in
  Alcotest.(check int) "started from the full schedule" 40 st.Minimize.initial_len;
  Alcotest.(check bool) "ddmin got to at most 3 messages" true
    (st.Minimize.final_len <= 3);
  Alcotest.(check bool) "some attribute shrinking happened" true
    (st.Minimize.shrunk >= 2);
  (match minimal with
  | [ (_, Msg.Update u) ] ->
    let r = Result.get_ok (Route.of_attrs u.Msg.attrs) in
    Alcotest.(check bool) "MED stripped" true (r.Route.med = None);
    Alcotest.(check (list string)) "communities stripped" []
      (List.map Community.to_string r.Route.communities);
    Alcotest.(check int) "load-bearing 3-hop path kept" 3
      (Asn.Path.length r.Route.as_path)
  | _ -> Alcotest.fail "expected a single-update minimal schedule");
  let again = Panel.probe ~jobs:1 ~agents:agents3 minimal in
  Alcotest.(check bool) "minimal schedule still reproduces the signature" true
    (List.exists (fun d' -> Panel.signature d' = Panel.signature d) again)

(* ---- quorum-degraded voting ---- *)

let test_degraded_vote_excludes_down_member () =
  let agents = full_panel () in
  let quagga = List.find (fun a -> Distributed.agent_name a = "quagga") agents in
  Health.note_down (Distributed.agent_health quagga) ~now:1.0;
  (match Panel.quorum_of agents with
  | `Degraded [ "quagga" ] -> ()
  | _ -> Alcotest.fail "expected a degraded quorum naming quagga");
  let ds =
    Panel.probe ~jobs:1 ~agents
      [ (provider_side, trigger_update ~path:[ 64510; 64512 ]) ]
  in
  match ds with
  | [ d ] ->
    Alcotest.(check bool) "tagged degraded" true
      (d.Panel.quorum = Panel.Degraded [ "quagga" ]);
    Alcotest.(check (list string)) "only survivors voted" [ "bird"; "xorp" ]
      (List.map fst d.Panel.answers);
    (* bird and xorp still split on the tie-break, so the divergence
       survives the absence — and its signature must match a capture
       from the full panel (quorum is not part of identity) *)
    Alcotest.(check bool) "tie-break class survives" true d.Panel.tie_break_only;
    (* positive evidence brings quagga back: next vote is full again *)
    Health.note_ok (Distributed.agent_health quagga) ~now:2.0;
    Alcotest.(check bool) "recovered member restores full quorum" true
      (Panel.quorum_of agents = `Full);
    let full =
      Panel.probe ~jobs:1 ~agents
        [ (provider_side, trigger_update ~path:[ 64510; 64512 ]) ]
    in
    Alcotest.(check int) "full vote again" 3
      (List.length (List.hd full).Panel.answers)
  | ds -> Alcotest.failf "expected one degraded divergence, got %d" (List.length ds)

let test_quorum_loss_pauses_hunt () =
  let agents = full_panel () in
  List.iter
    (fun a ->
      if Distributed.agent_name a <> "bird" then
        Health.note_down (Distributed.agent_health a) ~now:1.0)
    agents;
  (match Panel.quorum_of agents with
  | `Lost down -> Alcotest.(check int) "both absentees named" 2 (List.length down)
  | _ -> Alcotest.fail "expected quorum lost with 2 of 3 down");
  let paused = ref [] in
  let hits = ref [] in
  let chk =
    Panel.hunt
      ~on_pause:(fun down -> paused := down :: !paused)
      ~jobs:1 ~agents
      ~sink:(fun h -> hits := h :: !hits)
      ()
  in
  let cctx =
    { Checker.pre_loc_rib = Rib.Loc.empty;
      anycast = [];
      peer = provider_side;
      peer_as = 64510;
    }
  in
  let trigger = trigger_update ~path:[ 64510; 64512 ] in
  let outcome =
    { Speaker.prefix = p "203.0.113.0/24";
      accepted = true;
      installed = true;
      route = None;
      previous_best = None;
      outputs = [ (panel_addr, trigger) ];
    }
  in
  Alcotest.(check int) "no findings while paused" 0
    (List.length (chk.Checker.check cctx outcome));
  Alcotest.(check int) "pause reported once with the down members" 1
    (List.length !paused);
  Alcotest.(check int) "nothing probed, nothing sunk" 0 (List.length !hits);
  (* survivors recover: the same checker resumes on the next outcome *)
  List.iter
    (fun a -> Health.note_ok (Distributed.agent_health a) ~now:2.0)
    agents;
  let findings = chk.Checker.check cctx outcome in
  Alcotest.(check bool) "hunt resumed after recovery" true (findings <> []);
  Alcotest.(check bool) "resumed findings reach the sink" true (!hits <> [])

(* ---- replay artifacts ---- *)

let artifact ~schedule ~signature =
  {
    Panel.Artifact.speakers = Speakers.names;
    source = Panel.Artifact.Config_text panel_config_src;
    setup = default_setup;
    schedule;
    signature;
    absent = [];
  }

let test_artifact_roundtrip () =
  let a =
    artifact
      ~schedule:[ (provider_side, trigger_update ~path:[ 64510; 64512 ]) ]
      ~signature:"203.0.113.0/24|tiebreak|xorp"
  in
  let encoded = Panel.Artifact.encode a in
  let decoded = Panel.Artifact.decode encoded in
  Alcotest.(check bool) "decode inverts encode" true (decoded = a);
  Alcotest.(check bytes) "encoding is canonical" encoded
    (Panel.Artifact.encode decoded);
  let file = Filename.temp_file "dice-panel" ".repro" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Panel.Artifact.save file a;
      Alcotest.(check bool) "save/load roundtrip" true (Panel.Artifact.load file = a))

let test_artifact_rejects_malformed () =
  let a =
    artifact
      ~schedule:[ (provider_side, trigger_update ~path:[ 64510; 64512 ]) ]
      ~signature:"sig"
  in
  let encoded = Panel.Artifact.encode a in
  let raises what b =
    match Panel.Artifact.decode b with
    | _ -> Alcotest.failf "%s decoded" what
    | exception Dice_wire.Rbuf.Truncated _ -> ()
  in
  raises "truncated artifact" (Bytes.sub encoded 0 (Bytes.length encoded - 3));
  raises "foreign magic" (Bytes.of_string "NOTDICE0rest");
  (let wrong_version = Bytes.copy encoded in
   Bytes.set wrong_version 8 '\x63';
   raises "alien version" wrong_version);
  let trailing = Bytes.cat encoded (Bytes.of_string "\x00") in
  raises "trailing bytes" trailing

let test_artifact_v1_and_intent_sources () =
  let a =
    artifact
      ~schedule:[ (provider_side, trigger_update ~path:[ 64510; 64512 ]) ]
      ~signature:"sig"
  in
  (* a version-2 artifact is the same encoding minus the trailing
     absent list; version 1 additionally lacks the source-kind byte and
     must decode as shared config text *)
  let v3 = Panel.Artifact.encode a in
  let kind_pos =
    11 + List.fold_left (fun acc n -> acc + 2 + String.length n) 0 Speakers.names
  in
  let v2 = Bytes.sub v3 0 (Bytes.length v3 - 2) in
  Bytes.set v2 8 '\x02';
  Alcotest.(check bool) "v2 decodes with nobody absent" true
    (Panel.Artifact.decode v2 = a);
  let v1 =
    Bytes.cat (Bytes.sub v2 0 kind_pos)
      (Bytes.sub v2 (kind_pos + 1) (Bytes.length v2 - kind_pos - 1))
  in
  Bytes.set v1 8 '\x01';
  Alcotest.(check bool) "v1 decodes as config text" true
    (Panel.Artifact.decode v1 = a);
  (* an intent-sourced artifact round-trips with its kind intact *)
  let ai = { a with Panel.Artifact.source = Panel.Artifact.Intent_text "intent {}" } in
  Alcotest.(check bool) "intent source round-trips" true
    (Panel.Artifact.decode (Panel.Artifact.encode ai) = ai);
  (* an alien source kind raises loudly *)
  let bad = Panel.Artifact.encode a in
  Bytes.set bad kind_pos '\x07';
  match Panel.Artifact.decode bad with
  | _ -> Alcotest.fail "alien source kind decoded"
  | exception Dice_wire.Rbuf.Truncated _ -> ()

let test_artifact_replay_and_subsets () =
  let a =
    artifact
      ~schedule:[ (provider_side, trigger_update ~path:[ 64510; 64512 ]) ]
      ~signature:"203.0.113.0/24|tiebreak|xorp"
  in
  let full = Panel.Artifact.replay ~jobs:1 a in
  Alcotest.(check bool) "full-panel replay reproduces" true
    (Panel.Artifact.reproduces a full);
  let agree = Panel.Artifact.replay ~speakers:[ "bird"; "quagga" ] ~jobs:1 a in
  Alcotest.(check int) "the two peer-identity tie-breakers agree" 0
    (List.length agree);
  let split = Panel.Artifact.replay ~speakers:[ "quagga"; "xorp" ] ~jobs:1 a in
  Alcotest.(check int) "quagga vs xorp still splits" 1 (List.length split);
  match Panel.Artifact.build ~speakers:[ "frr" ] a with
  | _ -> Alcotest.fail "built a panel member the artifact does not carry"
  | exception Invalid_argument _ -> ()

let test_artifact_degraded_capture () =
  let a =
    { (artifact
         ~schedule:[ (provider_side, trigger_update ~path:[ 64510; 64512 ]) ]
         ~signature:"203.0.113.0/24|tiebreak|xorp")
      with Panel.Artifact.absent = [ "quagga" ]
    }
  in
  Alcotest.(check int) "artifacts are version 3" 3 Panel.Artifact.version;
  let encoded = Panel.Artifact.encode a in
  Alcotest.(check bool) "absent list round-trips" true
    (Panel.Artifact.decode encoded = a);
  (* truncating inside the absent list fails loudly, like every field *)
  (match Panel.Artifact.decode (Bytes.sub encoded 0 (Bytes.length encoded - 1)) with
  | _ -> Alcotest.fail "truncated absent list decoded"
  | exception Dice_wire.Rbuf.Truncated _ -> ());
  (* the default rebuild is the vote that happened: quagga sat out, and
     bird vs xorp still split on the recorded tie-break *)
  let voting = Panel.Artifact.build a in
  Alcotest.(check (list string)) "build defaults to the voting members"
    [ "bird"; "xorp" ]
    (List.map Distributed.agent_name voting);
  let replayed = Panel.Artifact.replay ~jobs:1 a in
  Alcotest.(check bool) "degraded replay reproduces the recorded signature" true
    (Panel.Artifact.reproduces a replayed)

let suite =
  [ ("create_exn: unknown name lists the registry", `Quick, test_create_exn_unknown);
    ("dialect registry: per-implementation, unknown names absent", `Quick,
      test_dialect_registry);
    ("panel: names the outlier on a tie-break split", `Quick, test_panel_names_outlier);
    ("panel: semantic divergence names the deviant", `Quick, test_panel_semantic_outlier);
    ("panel: agreement produces no divergence", `Quick, test_panel_agreement_is_silent);
    ("two-member panel: prefix-sorted, jobs-independent", `Quick,
      test_two_member_sorted_deterministic);
    ("ddmin: 1-minimal on a synthetic predicate", `Quick, test_ddmin_synthetic);
    ("ddmin: rejects a non-failing input", `Quick, test_ddmin_requires_failing_input);
    ("minimize: 40-message hit shrinks to the trigger", `Quick,
      test_minimize_panel_divergence);
    ("artifact: canonical encode/decode/save/load", `Quick, test_artifact_roundtrip);
    ("artifact: malformed inputs raise loudly", `Quick, test_artifact_rejects_malformed);
    ("artifact: v1 compat and intent source kind", `Quick,
      test_artifact_v1_and_intent_sources);
    ("artifact: replays against panel and subsets", `Quick,
      test_artifact_replay_and_subsets);
    ("panel: degraded vote excludes the down member", `Quick,
      test_degraded_vote_excludes_down_member);
    ("panel: quorum loss pauses the hunt, recovery resumes it", `Quick,
      test_quorum_loss_pauses_hunt);
    ("artifact: v3 degraded capture round-trips and replays", `Quick,
      test_artifact_degraded_capture)
  ]
