(* Tests for Path sites/conditions, Coverage and the Engine runtime. *)
open Dice_concolic

(* ---- Path / Site ---- *)

(* An exploration's space interns sites by name, numbering them in
   first-seen order; another space numbers its own sites from 0 again. *)
let test_site_intern () =
  let space = Engine.Space.create () in
  let a = Engine.Space.site space "t:site-a" in
  let b = Engine.Space.site space "t:site-a" in
  Alcotest.(check bool) "same site" true (a == b);
  let c = Engine.Space.site space "t:site-b" in
  Alcotest.(check (list int)) "first-seen ids" [ 0; 1 ] [ Path.Site.id a; Path.Site.id c ];
  Alcotest.(check string) "named" "t:site-b" (Path.Site.name c);
  let other = Engine.Space.create () in
  Alcotest.(check int) "another space starts over" 0
    (Path.Site.id (Engine.Space.site other "t:site-b"))

let test_negate () =
  let c = { Path.expr = Sym.const ~width:1 1L; expected_nonzero = true } in
  Alcotest.(check bool) "flipped" false (Path.negate c).Path.expected_nonzero;
  Alcotest.(check bool) "double negation" true (Path.negate (Path.negate c)).Path.expected_nonzero

let test_constr_holds () =
  let v = Sym.var ~id:0 ~name:"ph" ~width:8 in
  let env : Sym.env = Hashtbl.create 4 in
  Hashtbl.replace env v.Sym.id 7L;
  let c = { Path.expr = Sym.Binop (Sym.Eq, Sym.of_var v, Sym.const ~width:8 7L);
            expected_nonzero = true } in
  Alcotest.(check bool) "holds" true (Path.constr_holds env c);
  Hashtbl.replace env v.Sym.id 8L;
  Alcotest.(check bool) "fails" false (Path.constr_holds env c)

let test_signature () =
  let space = Engine.Space.create () in
  let s1 = Engine.Space.site space "t:sig1" and s2 = Engine.Space.site space "t:sig2" in
  let e site dir = { Path.site; constr = { Path.expr = Sym.const ~width:1 1L; expected_nonzero = dir } } in
  let a = Path.signature [ e s1 true; e s2 false ] in
  let b = Path.signature [ e s1 true; e s2 false ] in
  let c = Path.signature [ e s1 true; e s2 true ] in
  let d = Path.signature [ e s2 false; e s1 true ] in
  Alcotest.(check int64) "stable" a b;
  Alcotest.(check bool) "direction-sensitive" true (a <> c);
  Alcotest.(check bool) "order-sensitive" true (a <> d)

(* ---- Coverage ---- *)

let test_coverage () =
  let cov = Coverage.create () in
  let s = Engine.Space.site (Engine.Space.create ()) "t:cov" in
  Alcotest.(check bool) "new" true (Coverage.record cov s true);
  Alcotest.(check bool) "repeat" false (Coverage.record cov s true);
  Alcotest.(check bool) "other direction open" false (Coverage.covered cov s false);
  ignore (Coverage.record cov s false);
  Alcotest.(check bool) "both directions" true (Coverage.covered cov s false);
  Alcotest.(check int) "hits" 2 (Coverage.hits_id cov (Path.Site.id s, true));
  Alcotest.(check int) "directions" 2 (Coverage.direction_count cov);
  Alcotest.(check int) "sites" 1 (Coverage.site_count cov)

(* ---- Engine ---- *)

let test_null_ctx_concrete () =
  let ctx = Engine.null in
  let v = Engine.input ctx ~name:"n" ~width:32 ~default:42L in
  Alcotest.(check bool) "no shadow" false (Cval.is_symbolic v);
  Alcotest.(check int) "default" 42 (Cval.to_int v);
  ignore (Engine.branchf ctx "t:null-branch" (Cval.of_bool true));
  Alcotest.(check int) "nothing recorded" 0 (Path.length (Engine.path ctx))

let test_recording_input_default () =
  let space = Engine.Space.create () in
  let ctx = Engine.create ~space ~overrides:(Hashtbl.create 0) () in
  let v = Engine.input ctx ~name:"i" ~width:16 ~default:7L in
  Alcotest.(check bool) "symbolic" true (Cval.is_symbolic v);
  Alcotest.(check int) "default used" 7 (Cval.to_int v)

let test_recording_input_override () =
  let space = Engine.Space.create () in
  let var = Engine.Space.var space ~name:"o" ~width:16 in
  let overrides : Sym.env = Hashtbl.create 4 in
  Hashtbl.replace overrides var.Sym.id 99L;
  let ctx = Engine.create ~space ~overrides () in
  let v = Engine.input ctx ~name:"o" ~width:16 ~default:7L in
  Alcotest.(check int) "override wins" 99 (Cval.to_int v)

let test_branch_records_symbolic_only () =
  let space = Engine.Space.create () in
  let ctx = Engine.create ~space ~overrides:(Hashtbl.create 0) () in
  let v = Engine.input ctx ~name:"b" ~width:8 ~default:5L in
  let taken = Engine.branchf ctx "t:sym-branch" (Cval.ugt v (Cval.of_int ~width:8 3)) in
  Alcotest.(check bool) "concretely taken" true taken;
  ignore (Engine.branchf ctx "t:conc-branch" (Cval.of_bool true));
  Alcotest.(check int) "only symbolic recorded" 1 (Path.length (Engine.path ctx))

let test_branch_direction_matches_concrete () =
  let space = Engine.Space.create () in
  let ctx = Engine.create ~space ~overrides:(Hashtbl.create 0) () in
  let v = Engine.input ctx ~name:"d" ~width:8 ~default:1L in
  let taken = Engine.branchf ctx "t:dir" (Cval.ugt v (Cval.of_int ~width:8 3)) in
  Alcotest.(check bool) "not taken" false taken;
  match Engine.path ctx with
  | [ e ] -> Alcotest.(check bool) "recorded as zero" false e.Path.constr.Path.expected_nonzero
  | _ -> Alcotest.fail "expected exactly one entry"

let test_seed_constraints () =
  let space = Engine.Space.create () in
  let ctx = Engine.create ~space ~overrides:(Hashtbl.create 0) () in
  let v = Engine.input ctx ~name:"s" ~width:8 ~default:5L in
  (match Cval.sym v with
  | Some e -> Engine.constrain ctx (Sym.Binop (Sym.Ule, e, Sym.const ~width:8 32L)) ~nonzero:true
  | None -> Alcotest.fail "expected symbolic");
  Alcotest.(check int) "one seed" 1 (List.length (Engine.seed_constraints ctx));
  Alcotest.(check int) "path empty" 0 (Path.length (Engine.path ctx))

let test_space_stability () =
  let space = Engine.Space.create () in
  let a = Engine.Space.var space ~name:"stable" ~width:8 in
  let b = Engine.Space.var space ~name:"stable" ~width:8 in
  Alcotest.(check int) "memoized" a.Sym.id b.Sym.id;
  Alcotest.check_raises "width conflict"
    (Invalid_argument "Engine.Space.var: stable re-used with width 16 (was 8)") (fun () ->
      ignore (Engine.Space.var space ~name:"stable" ~width:16))

let test_assignment () =
  let space = Engine.Space.create () in
  let ctx = Engine.create ~space ~overrides:(Hashtbl.create 0) () in
  ignore (Engine.input ctx ~name:"a1" ~width:8 ~default:1L);
  ignore (Engine.input ctx ~name:"a2" ~width:8 ~default:2L);
  Alcotest.(check (list (pair string int64)))
    "named values" [ ("a1", 1L); ("a2", 2L) ]
    (Engine.assignment ctx ~space)

let test_env_reflects_inputs () =
  let space = Engine.Space.create () in
  let ctx = Engine.create ~space ~overrides:(Hashtbl.create 0) () in
  ignore (Engine.input ctx ~name:"e1" ~width:8 ~default:9L);
  let var = Engine.Space.var space ~name:"e1" ~width:8 in
  Alcotest.(check (option int64)) "env" (Some 9L) (Hashtbl.find_opt (Engine.env ctx) var.Sym.id)

(* The live path runs uninstrumented: a feed under the default null
   context decides the filter's [If] without recording anything, and
   only an exploration run — recording, over a clone — interns its
   branch site, in that exploration's own space. *)
let test_null_feed_interns_no_site () =
  let open Dice_inet in
  let open Dice_bgp in
  let open Dice_core in
  let provider = Ipv4.of_string "10.0.2.1" in
  let cfg =
    Config_parser.parse
      {|
    router id 10.0.2.2;
    local as 64700;
    filter null_feed_site_probe { if bgp_path.len > 5 then reject; accept; }
    protocol bgp provider { neighbor 10.0.2.1 as 64510; import filter null_feed_site_probe; export none; }
    |}
  in
  let site =
    match Config_types.find_filter cfg "null_feed_site_probe" with
    | Some { Filter.body = Filter.If { site; _ } :: _; _ } -> site ^ ":c"
    | _ -> Alcotest.fail "expected the filter to open with an If"
  in
  let sp = Speaker.create (module Speakers.Bird) (Speaker.Config cfg) in
  Speaker.establish sp ~peer:provider;
  let route =
    Route.make ~origin:Attr.Igp ~as_path:[ Asn.Path.Seq [ 64510; 64512 ] ] ~next_hop:provider ()
  in
  let prefix = Prefix.of_string "100.80.0.0/16" in
  let msg = Msg.Update { withdrawn = []; attrs = Route.to_attrs route; nlri = [ prefix ] } in
  ignore (Speaker.feed sp ~peer:provider msg);
  Alcotest.(check bool) "the filter ran and accepted" true
    (Speaker.best_route sp prefix <> None);
  Alcotest.(check bool) "the null context records nothing" true
    (Engine.path Engine.null = [] && Engine.seed_constraints Engine.null = []);
  let report =
    Explorer.explore
      ~config:{ Explorer.default_config with Explorer.max_runs = 1 }
      (fun ctx -> ignore (Speaker.feed ~ctx (Speaker.clone sp) ~peer:provider msg))
  in
  Alcotest.(check int) "one run" 1 report.Explorer.executions;
  (* the path is short, so the condition did not hold *)
  Alcotest.(check bool) "the explored run covered the site in its space" true
    (Coverage.covered report.Explorer.coverage
       (Engine.Space.site report.Explorer.space site)
       false)

let suite =
  [ ("site intern", `Quick, test_site_intern);
    ("negate", `Quick, test_negate);
    ("constr_holds", `Quick, test_constr_holds);
    ("path signature", `Quick, test_signature);
    ("coverage", `Quick, test_coverage);
    ("null ctx concrete", `Quick, test_null_ctx_concrete);
    ("null feed interns no site", `Quick, test_null_feed_interns_no_site);
    ("input default", `Quick, test_recording_input_default);
    ("input override", `Quick, test_recording_input_override);
    ("branch records symbolic only", `Quick, test_branch_records_symbolic_only);
    ("branch direction", `Quick, test_branch_direction_matches_concrete);
    ("seed constraints", `Quick, test_seed_constraints);
    ("space stability", `Quick, test_space_stability);
    ("assignment", `Quick, test_assignment);
    ("env reflects inputs", `Quick, test_env_reflects_inputs)
  ]
