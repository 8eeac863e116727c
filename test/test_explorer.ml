(* Tests for the concolic exploration loop. *)
open Dice_concolic

let explore ?(max_runs = 64) ?(strategy = Strategy.Dfs) program =
  Explorer.explore
    ~config:{ Explorer.default_config with Explorer.max_runs; strategy }
    program

(* a diamond: two independent branches, four paths *)
let diamond hits ctx =
  let x = Engine.input ctx ~name:"dx" ~width:8 ~default:0L in
  let y = Engine.input ctx ~name:"dy" ~width:8 ~default:0L in
  let a = Engine.branchf ctx "d:a" (Cval.ugt x (Cval.of_int ~width:8 10)) in
  let b = Engine.branchf ctx "d:b" (Cval.ugt y (Cval.of_int ~width:8 10)) in
  hits := (a, b) :: !hits

let test_diamond_all_paths () =
  let hits = ref [] in
  let report = explore (diamond hits) in
  let distinct = List.sort_uniq compare !hits in
  Alcotest.(check int) "all four outcomes" 4 (List.length distinct);
  Alcotest.(check int) "four distinct paths" 4 report.Explorer.distinct_paths;
  Alcotest.(check bool) "full coverage" true (Explorer.coverage_ratio report = 1.0)

let test_deep_equality () =
  (* requires solving x == 0xDEAD through a guard: classic concolic win *)
  let found = ref false in
  let program ctx =
    let x = Engine.input ctx ~name:"eq" ~width:32 ~default:0L in
    if Engine.branchf ctx "deep:guard" (Cval.eq x (Cval.of_int ~width:32 0xDEAD)) then
      found := true
  in
  ignore (explore program);
  Alcotest.(check bool) "found the magic value" true !found

let test_nested_guards () =
  (* x > 100, then x < 200, then x == 150: nested path, needs prefix
     preservation *)
  let reached = ref false in
  let program ctx =
    let x = Engine.input ctx ~name:"ng" ~width:32 ~default:0L in
    if Engine.branchf ctx "ng:1" (Cval.ugt x (Cval.of_int ~width:32 100)) then
      if Engine.branchf ctx "ng:2" (Cval.ult x (Cval.of_int ~width:32 200)) then
        if Engine.branchf ctx "ng:3" (Cval.eq x (Cval.of_int ~width:32 150)) then
          reached := true
  in
  ignore (explore program);
  Alcotest.(check bool) "reached depth 3" true !reached

let test_max_runs_respected () =
  let program ctx =
    let x = Engine.input ctx ~name:"mr" ~width:32 ~default:0L in
    (* a long chain: more paths than the budget *)
    for i = 0 to 20 do
      ignore
        (Engine.branchf ctx
           (Printf.sprintf "mr:%d" i)
           (Cval.eq x (Cval.of_int ~width:32 (1000 + i))))
    done
  in
  let report = explore ~max_runs:10 program in
  Alcotest.(check bool) "bounded" true (report.Explorer.executions <= 10)

let test_initial_run_counts () =
  let report = explore ~max_runs:1 (fun ctx -> ignore (Engine.input ctx ~name:"ir" ~width:8 ~default:0L)) in
  Alcotest.(check int) "exactly one" 1 report.Explorer.executions;
  Alcotest.(check int) "no negations" 0 report.Explorer.negations_attempted

let test_program_exception_tolerated () =
  let program ctx =
    let x = Engine.input ctx ~name:"ex" ~width:8 ~default:0L in
    if Engine.branchf ctx "ex:b" (Cval.ugt x (Cval.of_int ~width:8 10)) then
      failwith "boom"
  in
  let report = explore program in
  Alcotest.(check bool) "keeps exploring" true (report.Explorer.executions >= 2)

let test_all_strategies_cover_diamond () =
  List.iter
    (fun strategy ->
      let hits = ref [] in
      let report = explore ~strategy (diamond hits) in
      Alcotest.(check bool)
        (Strategy.to_string strategy ^ " reaches full coverage")
        true
        (Explorer.coverage_ratio report = 1.0))
    [ Strategy.Dfs; Strategy.Generational; Strategy.Cover_new; Strategy.Random_negation 3L ]

let test_deterministic () =
  let run () =
    let report = explore (fun ctx ->
        let x = Engine.input ctx ~name:"det" ~width:16 ~default:0L in
        ignore (Engine.branchf ctx "det:a" (Cval.ugt x (Cval.of_int ~width:16 5)));
        ignore (Engine.branchf ctx "det:b" (Cval.ult x (Cval.of_int ~width:16 100))))
    in
    List.map (fun (r : Explorer.run) -> r.assignment) report.Explorer.runs
  in
  Alcotest.(check bool) "same runs" true (run () = run ())

let test_runs_metadata () =
  let report = explore (fun ctx ->
      let x = Engine.input ctx ~name:"meta" ~width:8 ~default:0L in
      ignore (Engine.branchf ctx "meta:b" (Cval.eq x (Cval.of_int ~width:8 9))))
  in
  match report.Explorer.runs with
  | first :: _ ->
    Alcotest.(check int) "index 0" 0 first.Explorer.index;
    Alcotest.(check int) "path length" 1 first.Explorer.path_length;
    Alcotest.(check (list (pair string int64))) "assignment" [ ("meta", 0L) ]
      first.Explorer.assignment
  | [] -> Alcotest.fail "no runs"

let test_seed_constraints_respected () =
  (* an input constrained to <= 32 must never be explored beyond it *)
  let violations = ref 0 in
  let program ctx =
    let len = Engine.input ctx ~name:"scr" ~width:8 ~default:24L in
    (match Cval.sym len with
    | Some e ->
      Engine.constrain ctx (Sym.Binop (Sym.Ule, e, Sym.const ~width:8 32L)) ~nonzero:true
    | None -> ());
    if Cval.to_int len > 32 then incr violations;
    ignore (Engine.branchf ctx "scr:b" (Cval.ugt len (Cval.of_int ~width:8 16)));
    ignore (Engine.branchf ctx "scr:c" (Cval.eq len (Cval.of_int ~width:8 31)))
  in
  ignore (explore program);
  Alcotest.(check int) "never violated" 0 !violations

let test_program_exns_counted () =
  let program ctx =
    let x = Engine.input ctx ~name:"pxc" ~width:8 ~default:0L in
    if Engine.branchf ctx "pxc:b" (Cval.ugt x (Cval.of_int ~width:8 10)) then
      failwith "boom"
  in
  let report = explore program in
  Alcotest.(check bool) "exceptions tallied" true (report.Explorer.program_exns > 0);
  Alcotest.(check bool) "still explored" true (report.Explorer.executions >= 2)

let test_fatal_exception_reraised () =
  (* Stack_overflow must escape the per-run catch: masking it turns a
     dying explorer into a silent coverage plateau *)
  let program ctx =
    let x = Engine.input ctx ~name:"fat" ~width:8 ~default:0L in
    if Engine.branchf ctx "fat:b" (Cval.ugt x (Cval.of_int ~width:8 10)) then ();
    raise Stack_overflow
  in
  Alcotest.check_raises "re-raised" Stack_overflow (fun () -> ignore (explore program))

let test_generational_deterministic () =
  let run () =
    let report =
      explore ~strategy:Strategy.Generational (fun ctx ->
          let x = Engine.input ctx ~name:"gdet" ~width:16 ~default:0L in
          ignore (Engine.branchf ctx "gdet:a" (Cval.ugt x (Cval.of_int ~width:16 5)));
          ignore (Engine.branchf ctx "gdet:b" (Cval.ult x (Cval.of_int ~width:16 100)));
          ignore (Engine.branchf ctx "gdet:c" (Cval.eq x (Cval.of_int ~width:16 64))))
    in
    List.map (fun (r : Explorer.run) -> r.assignment) report.Explorer.runs
  in
  Alcotest.(check bool) "same runs under heap scheduling" true (run () = run ())

let test_attempt_key_structural () =
  (* Regression for hash-keyed attempt identity. The previous attempt_key
     folded (site id, direction) values through a 64-bit FNV-style hash;
     two distinct prefixes whose folds collided were conflated, and the
     second negation was silently dropped as "already attempted".
     Reproduce the old fold and exhibit such a collision (constructed
     algebraically: with combine(a,v) = ((a*p) xor v) * p, any two first
     values v1a <> v1b collide once v2b = (c1a*p) xor (c1b*p) xor v2a),
     then check the structural key keeps the pair distinct. *)
  let prime = 0x100000001B3L in
  let old_combine a v = Int64.mul (Int64.logxor (Int64.mul a prime) v) prime in
  let old_key vs = List.fold_left old_combine 0xCBF29CE484222325L vs in
  let v1a = 2L and v1b = 4L and v2a = 6L in
  let c1a = old_combine 0xCBF29CE484222325L v1a in
  let c1b = old_combine 0xCBF29CE484222325L v1b in
  let v2b =
    Int64.logxor (Int64.logxor (Int64.mul c1a prime) (Int64.mul c1b prime)) v2a
  in
  let sa = [ v1a; v2a ] and sb = [ v1b; v2b ] in
  Alcotest.(check bool) "streams differ" true (sa <> sb);
  Alcotest.(check int64) "old scheme conflates them" (old_key sa) (old_key sb);
  (* the structural key is the (site id, direction) list itself, so
     distinct value streams can never conflate *)
  Alcotest.(check bool) "structural keys stay distinct" true (sa <> sb);
  (* and on real paths the key is exactly the requested branch-direction
     sequence: distinct requests get distinct keys, while flipping entry 0
     of [t; t] and of [t; f] — which genuinely request the same new path
     [f] — share one *)
  let space = Engine.Space.create () in
  let site name = Engine.Space.site space name in
  let entry name dir =
    { Path.site = site name;
      constr =
        { Path.expr = Sym.const ~width:1 (if dir then 1L else 0L);
          expected_nonzero = dir;
        };
    }
  in
  let path_tt = [| entry "ak:1" true; entry "ak:2" true |] in
  let path_tf = [| entry "ak:1" true; entry "ak:2" false |] in
  let keys =
    [ Explorer.attempt_key path_tt 0;
      Explorer.attempt_key path_tt 1;
      Explorer.attempt_key path_tf 0;
      Explorer.attempt_key path_tf 1
    ]
  in
  Alcotest.(check int) "three distinct requested paths" 3
    (List.length (List.sort_uniq compare keys));
  Alcotest.(check bool) "same requested path shares a key" true
    (Explorer.attempt_key path_tt 0 = Explorer.attempt_key path_tf 0);
  (* flipping entry 0 of [t; t] requests the same path as flipping gives
     [f], and the key reflects exactly the requested branch-direction
     sequence *)
  Alcotest.(check bool) "key is the requested direction sequence" true
    (Explorer.attempt_key path_tt 1
    = [ (Path.Site.id (site "ak:1"), true); (Path.Site.id (site "ak:2"), false) ])

let test_pqueue_order () =
  let q : (int * int) Pqueue.t = Pqueue.create () in
  List.iter
    (fun (p, o) -> Pqueue.push q ~priority:p ~order:o (p, o))
    [ (1, 0); (3, 1); (3, 2); (2, 3); (0, 4) ];
  Alcotest.(check int) "length" 5 (Pqueue.length q);
  let rec drain acc =
    match Pqueue.pop q with None -> List.rev acc | Some v -> drain (v :: acc)
  in
  Alcotest.(check (list (pair int int)))
    "priority desc, order asc on ties"
    [ (3, 1); (3, 2); (2, 3); (1, 0); (0, 4) ]
    (drain []);
  Alcotest.(check bool) "empty after drain" true (Pqueue.is_empty q)

let test_solver_stats_populated () =
  let report = explore (fun ctx ->
      let x = Engine.input ctx ~name:"ss" ~width:8 ~default:0L in
      ignore (Engine.branchf ctx "ss:b" (Cval.ugt x (Cval.of_int ~width:8 3))))
  in
  Alcotest.(check bool) "solver called" true (report.Explorer.solver_stats.Solver.calls > 0);
  Alcotest.(check bool) "some sat" true (report.Explorer.negations_sat > 0)

let suite =
  [ ("diamond covers all paths", `Quick, test_diamond_all_paths);
    ("deep equality found", `Quick, test_deep_equality);
    ("nested guards", `Quick, test_nested_guards);
    ("max_runs respected", `Quick, test_max_runs_respected);
    ("initial run only", `Quick, test_initial_run_counts);
    ("program exception tolerated", `Quick, test_program_exception_tolerated);
    ("all strategies cover diamond", `Quick, test_all_strategies_cover_diamond);
    ("deterministic", `Quick, test_deterministic);
    ("run metadata", `Quick, test_runs_metadata);
    ("seed constraints respected", `Quick, test_seed_constraints_respected);
    ("program exceptions counted", `Quick, test_program_exns_counted);
    ("fatal exceptions re-raised", `Quick, test_fatal_exception_reraised);
    ("generational deterministic", `Quick, test_generational_deterministic);
    ("attempt key is structural", `Quick, test_attempt_key_structural);
    ("pqueue pop order", `Quick, test_pqueue_order);
    ("solver stats populated", `Quick, test_solver_stats_populated)
  ]
