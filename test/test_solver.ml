(* Tests for the constraint solver and interval domain. *)
open Dice_concolic

let mk_env bindings =
  let e : Sym.env = Hashtbl.create 8 in
  List.iter (fun (v, x) -> Hashtbl.replace e v.Sym.id x) bindings;
  e

let nonzero expr = { Path.expr; expected_nonzero = true }
let zero expr = { Path.expr; expected_nonzero = false }

let solve ?(hint = []) cs =
  Solver.solve ~hint:(mk_env hint) cs

let expect_sat ?hint cs =
  match solve ?hint cs with
  | Solver.Sat env ->
    Alcotest.(check bool) "model satisfies all" true (Solver.holds_all env cs);
    env
  | Solver.Unsat -> Alcotest.fail "expected SAT, got UNSAT"
  | Solver.Gave_up -> Alcotest.fail "expected SAT, solver gave up"

let expect_no_model ?hint cs =
  match solve ?hint cs with
  | Solver.Sat env ->
    Alcotest.failf "expected no model, got one (holds=%b)" (Solver.holds_all env cs)
  | Solver.Unsat | Solver.Gave_up -> ()

let c w v = Sym.const ~width:w v
(* each test names its variables apart, and the names' hashes give them
   distinct ids *)
let v32 name = Sym.var ~id:(Hashtbl.hash name) ~name ~width:32
let v8 name = Sym.var ~id:(Hashtbl.hash name) ~name ~width:8

(* ---- Interval ---- *)

let test_interval_basic () =
  let i = Interval.make 3L 10L in
  Alcotest.(check bool) "mem lo" true (Interval.mem 3L i);
  Alcotest.(check bool) "mem hi" true (Interval.mem 10L i);
  Alcotest.(check bool) "not below" false (Interval.mem 2L i);
  Alcotest.(check bool) "not above" false (Interval.mem 11L i)

let test_interval_inter () =
  let a = Interval.make 0L 10L and b = Interval.make 5L 20L in
  (match Interval.inter a b with
  | Some i ->
    Alcotest.(check int64) "lo" 5L i.Interval.lo;
    Alcotest.(check int64) "hi" 10L i.Interval.hi
  | None -> Alcotest.fail "expected overlap");
  Alcotest.(check bool) "disjoint" true
    (Interval.inter (Interval.make 0L 2L) (Interval.make 5L 9L) = None)

let test_interval_unsigned () =
  let i = Interval.full 64 in
  Alcotest.(check bool) "all-ones in full" true (Interval.mem (-1L) i)

let test_interval_seq_clamp () =
  let i = Interval.make 3L 5L in
  Alcotest.(check (list int64)) "enumerate" [ 3L; 4L; 5L ] (List.of_seq (Interval.to_seq i));
  Alcotest.(check int64) "clamp low" 3L (Interval.clamp i 1L);
  Alcotest.(check int64) "clamp in" 4L (Interval.clamp i 4L);
  Alcotest.(check int64) "clamp high" 5L (Interval.clamp i 100L);
  Alcotest.(check bool) "size" true (Interval.size_le i 3);
  Alcotest.(check bool) "size strict" false (Interval.size_le i 2)

(* ---- Solver: single variable, structural inversion ---- *)

let test_solve_eq_const () =
  let x = v32 "x0" in
  let env = expect_sat [ nonzero (Sym.Binop (Sym.Eq, Sym.of_var x, c 32 1234L)) ] in
  Alcotest.(check int64) "x = 1234" 1234L (Hashtbl.find env x.Sym.id)

let test_solve_eq_through_add_xor () =
  let x = v32 "x1" in
  (* (x + 100) ^ 0xFF == 4242 *)
  let expr =
    Sym.Binop
      (Sym.Eq, Sym.Binop (Sym.Xor, Sym.Binop (Sym.Add, Sym.of_var x, c 32 100L), c 32 0xFFL),
       c 32 4242L)
  in
  ignore (expect_sat [ nonzero expr ])

let test_solve_eq_through_mul_odd () =
  let x = v32 "x2" in
  (* 7 * x == 21 -> derivable via modular inverse *)
  let expr = Sym.Binop (Sym.Eq, Sym.Binop (Sym.Mul, c 32 7L, Sym.of_var x), c 32 21L) in
  let env = expect_sat [ nonzero expr ] in
  Alcotest.(check int64) "x = 3" 3L (Hashtbl.find env x.Sym.id)

let test_solve_eq_through_shift () =
  let x = v32 "x3" in
  (* x >> 8 == 0xAB -> x in [0xAB00, 0xABFF] *)
  let expr =
    Sym.Binop (Sym.Eq, Sym.Binop (Sym.Lshr, Sym.of_var x, c 8 8L), c 32 0xABL)
  in
  let env = expect_sat [ nonzero expr ] in
  let x_val = Hashtbl.find env x.Sym.id in
  Alcotest.(check int64) "high byte" 0xABL (Int64.shift_right_logical x_val 8)

let test_solve_eq_through_mask () =
  let x = v8 "x4" in
  (* x & 0xF0 == 0xA0 *)
  let expr =
    Sym.Binop (Sym.Eq, Sym.Binop (Sym.And, Sym.of_var x, c 8 0xF0L), c 8 0xA0L)
  in
  ignore (expect_sat [ nonzero expr ])

let test_solve_inequalities () =
  let x = v8 "x5" in
  let gt = nonzero (Sym.Binop (Sym.Ugt, Sym.of_var x, c 8 200L)) in
  let lt = nonzero (Sym.Binop (Sym.Ult, Sym.of_var x, c 8 250L)) in
  let env = expect_sat [ gt; lt ] in
  let xv = Hashtbl.find env x.Sym.id in
  Alcotest.(check bool) "in (200,250)" true
    (Int64.unsigned_compare xv 200L > 0 && Int64.unsigned_compare xv 250L < 0)

let test_solve_negated_eq () =
  let x = v32 "x6" in
  let hint = [ (x, 5L) ] in
  let env = expect_sat ~hint [ zero (Sym.Binop (Sym.Eq, Sym.of_var x, c 32 5L)) ] in
  Alcotest.(check bool) "x <> 5" true (Hashtbl.find env x.Sym.id <> 5L)

let test_solve_unsat_range () =
  let x = v8 "x7" in
  (* x < 0 unsigned: impossible *)
  expect_no_model [ nonzero (Sym.Binop (Sym.Ult, Sym.of_var x, c 8 0L)) ]

let test_solve_unsat_contradiction () =
  let x = v8 "x8" in
  expect_no_model
    [ nonzero (Sym.Binop (Sym.Eq, Sym.of_var x, c 8 1L));
      nonzero (Sym.Binop (Sym.Eq, Sym.of_var x, c 8 2L))
    ]

let test_solve_varfree_contradiction () =
  match solve [ nonzero (Sym.Binop (Sym.Eq, c 8 1L, c 8 2L)) ] with
  | Solver.Unsat -> ()
  | Solver.Sat _ -> Alcotest.fail "expected UNSAT"
  | Solver.Gave_up -> Alcotest.fail "expected UNSAT, not give-up"

let test_solve_boolean_and () =
  let x = v8 "x9" and y = v8 "y9" in
  (* (x == 3) & (y == 4), width-1 conjunction *)
  let conj =
    Sym.Binop
      (Sym.And, Sym.Binop (Sym.Eq, Sym.of_var x, c 8 3L),
       Sym.Binop (Sym.Eq, Sym.of_var y, c 8 4L))
  in
  let env = expect_sat [ nonzero conj ] in
  Alcotest.(check int64) "x" 3L (Hashtbl.find env x.Sym.id);
  Alcotest.(check int64) "y" 4L (Hashtbl.find env y.Sym.id)

let test_solve_boolean_or_negated () =
  let x = v8 "xa" in
  (* !(x == 1 | x == 2): both disjuncts must fail *)
  let disj =
    Sym.Binop
      (Sym.Or, Sym.Binop (Sym.Eq, Sym.of_var x, c 8 1L),
       Sym.Binop (Sym.Eq, Sym.of_var x, c 8 2L))
  in
  let env = expect_sat ~hint:[ (x, 1L) ] [ zero disj ] in
  let xv = Hashtbl.find env x.Sym.id in
  Alcotest.(check bool) "neither" true (xv <> 1L && xv <> 2L)

let test_solve_respects_prefix () =
  (* classic concolic query: keep the path prefix, flip the last branch *)
  let x = v32 "xb" in
  let p1 = nonzero (Sym.Binop (Sym.Ugt, Sym.of_var x, c 32 100L)) in
  let p2 = nonzero (Sym.Binop (Sym.Ult, Sym.of_var x, c 32 1000L)) in
  let flip = nonzero (Sym.Binop (Sym.Eq, Sym.of_var x, c 32 777L)) in
  let env = expect_sat ~hint:[ (x, 500L) ] [ p1; p2; flip ] in
  Alcotest.(check int64) "pinned" 777L (Hashtbl.find env x.Sym.id)

let test_solve_hint_untouched_vars () =
  let x = v32 "xc" and y = v32 "yc" in
  let cs = [ nonzero (Sym.Binop (Sym.Eq, Sym.of_var x, c 32 9L)) ] in
  let env = expect_sat ~hint:[ (x, 1L); (y, 55L) ] cs in
  Alcotest.(check int64) "unconstrained var keeps hint" 55L (Hashtbl.find env y.Sym.id)

let test_solve_two_var_chain () =
  let x = v8 "xd" and y = v8 "yd" in
  (* x + y == 10 and x == 3 *)
  let cs =
    [ nonzero
        (Sym.Binop
           (Sym.Eq, Sym.Binop (Sym.Add, Sym.of_var x, Sym.of_var y), c 8 10L));
      nonzero (Sym.Binop (Sym.Eq, Sym.of_var x, c 8 3L))
    ]
  in
  let env = expect_sat cs in
  Alcotest.(check int64) "x" 3L (Hashtbl.find env x.Sym.id);
  Alcotest.(check int64) "y" 7L (Hashtbl.find env y.Sym.id)

let test_solver_stats () =
  let stats = Solver.stats_create () in
  let x = v8 "xe" in
  ignore
    (Solver.solve ~stats ~hint:(mk_env [])
       [ nonzero (Sym.Binop (Sym.Eq, Sym.of_var x, c 8 1L)) ]);
  Alcotest.(check int) "calls" 1 stats.Solver.calls;
  Alcotest.(check int) "sat" 1 stats.Solver.sat

let test_prefix_agreement_shape () =
  (* the exact shape the RIB probe emits:
     ((addr ^ base) >> (32-k)) == 0 for nested k, then flip one *)
  let addr = v32 "addr_shape" in
  let base = 0xC6336400L (* 198.51.100.0 *) in
  let agree k =
    nonzero
      (Sym.Binop
         (Sym.Eq,
          Sym.Binop (Sym.Lshr, Sym.Binop (Sym.Xor, Sym.of_var addr, c 32 base), c 8 (Int64.of_int (32 - k))),
          c 32 0L))
  in
  (* agree on /8 and /16 but NOT on /24 *)
  let cs = [ agree 8; agree 16; Path.negate (agree 24) ] in
  let env = expect_sat ~hint:[ (addr, base) ] cs in
  let a = Hashtbl.find env addr.Sym.id in
  Alcotest.(check int64) "first 16 bits match" (Int64.shift_right_logical base 16)
    (Int64.shift_right_logical a 16);
  Alcotest.(check bool) "differs within /24" true
    (Int64.shift_right_logical a 8 <> Int64.shift_right_logical base 8)

(* ---- interval propagation ---- *)

let test_interval_unsat_detected () =
  (* x <= 10 and x >= 20: the domains cannot intersect; the solver must
     prove UNSAT without search *)
  let x = v8 "ivx" in
  match
    solve
      [ nonzero (Sym.Binop (Sym.Ule, Sym.of_var x, c 8 10L));
        nonzero (Sym.Binop (Sym.Uge, Sym.of_var x, c 8 20L))
      ]
  with
  | Solver.Unsat -> ()
  | Solver.Sat _ -> Alcotest.fail "expected UNSAT"
  | Solver.Gave_up -> Alcotest.fail "interval propagation should prove UNSAT"

let test_interval_negated_bound_unsat () =
  (* !(x <= 255) on an 8-bit variable: empty *)
  let x = v8 "ivy" in
  match solve [ zero (Sym.Binop (Sym.Ule, Sym.of_var x, c 8 255L)) ] with
  | Solver.Unsat -> ()
  | Solver.Sat _ -> Alcotest.fail "expected UNSAT"
  | Solver.Gave_up -> Alcotest.fail "expected UNSAT via intervals"

let test_interval_tiny_domain_enumerated () =
  (* x in [100, 102] and (x ^ 3) % 2 == 1 — the xor breaks structural
     inversion, but the 3-value domain is enumerated exhaustively *)
  let x = v8 "ivz" in
  let odd_xor =
    nonzero
      (Sym.Binop
         (Sym.Eq,
          Sym.Binop (Sym.Urem, Sym.Binop (Sym.Xor, Sym.of_var x, c 8 3L), c 8 2L),
          c 8 1L))
  in
  let cs =
    [ nonzero (Sym.Binop (Sym.Uge, Sym.of_var x, c 8 100L));
      nonzero (Sym.Binop (Sym.Ule, Sym.of_var x, c 8 102L));
      odd_xor
    ]
  in
  let env = expect_sat cs in
  let xv = Hashtbl.find env x.Sym.id in
  Alcotest.(check bool) "in the tiny domain" true
    (Int64.unsigned_compare xv 100L >= 0 && Int64.unsigned_compare xv 102L <= 0)

let test_interval_point_domain () =
  (* x >= 7 and x <= 7 pins x even when the violated constraint is opaque *)
  let x = v8 "ivp" in
  let cs =
    [ nonzero (Sym.Binop (Sym.Uge, Sym.of_var x, c 8 7L));
      nonzero (Sym.Binop (Sym.Ule, Sym.of_var x, c 8 7L));
      nonzero (Sym.Binop (Sym.Eq, Sym.Binop (Sym.And, Sym.of_var x, c 8 0xFFL), c 8 7L))
    ]
  in
  let env = expect_sat cs in
  Alcotest.(check int64) "pinned" 7L (Hashtbl.find env x.Sym.id)

let test_linear_doubled_var () =
  (* x + x == 24: needs the linear normal form (single-occurrence
     structural inversion cannot see through the doubled variable) *)
  let x = v32 "ivd" in
  let cs =
    [ nonzero
        (Sym.Binop
           (Sym.Eq, Sym.Binop (Sym.Add, Sym.of_var x, Sym.of_var x), c 32 24L))
    ]
  in
  let env = expect_sat cs in
  let xv = Hashtbl.find env x.Sym.id in
  Alcotest.(check bool) "2x = 24" true
    (Int64.equal (Sym.wrap 32 (Int64.mul 2L xv)) 24L)

(* ---- Unsat soundness: incomplete search must not claim refutation ---- *)

let test_opaque_single_var_not_unsat () =
  (* x * x == 1521 (= 39^2) over 32 bits is satisfiable, but squaring is
     opaque to structural inversion and the domain is far too large to
     enumerate. Giving up is acceptable; claiming UNSAT is the bug this
     guards against (a cached UNSAT would then poison every later query). *)
  let x = v32 "sqx" in
  let stats = Solver.stats_create () in
  let cs =
    [ nonzero
        (Sym.Binop (Sym.Eq, Sym.Binop (Sym.Mul, Sym.of_var x, Sym.of_var x), c 32 1521L))
    ]
  in
  (match Solver.solve ~stats ~hint:(mk_env []) cs with
  | Solver.Unsat -> Alcotest.fail "UNSAT claimed for a satisfiable opaque constraint"
  | Solver.Sat env -> Alcotest.(check bool) "model holds" true (Solver.holds_all env cs)
  | Solver.Gave_up -> ());
  Alcotest.(check bool) "fallback duplicates were deduped" true
    (stats.Solver.candidates_deduped > 0)

let test_tiny_domain_exhaustion_still_unsat () =
  (* x <= 3 and x * x == 5: all four domain values are enumerated and
     refuted, so this must remain a proven UNSAT, not a give-up *)
  let x = v8 "sqy" in
  match
    solve
      [ nonzero (Sym.Binop (Sym.Ule, Sym.of_var x, c 8 3L));
        nonzero
          (Sym.Binop (Sym.Eq, Sym.Binop (Sym.Mul, Sym.of_var x, Sym.of_var x), c 8 5L))
      ]
  with
  | Solver.Unsat -> ()
  | Solver.Sat _ -> Alcotest.fail "expected UNSAT"
  | Solver.Gave_up -> Alcotest.fail "exhaustive enumeration should prove UNSAT"

(* ---- implied-literal simplification ---- *)

let test_simplification_counted () =
  let x = v8 "simx" in
  let stats = Solver.stats_create () in
  let cs =
    [ nonzero (Sym.Binop (Sym.Uge, Sym.of_var x, c 8 7L));
      nonzero (Sym.Binop (Sym.Ule, Sym.of_var x, c 8 7L));
      nonzero (Sym.Binop (Sym.Eq, Sym.Binop (Sym.And, Sym.of_var x, c 8 0xFFL), c 8 7L))
    ]
  in
  (match Solver.solve ~stats ~hint:(mk_env []) cs with
  | Solver.Sat env -> Alcotest.(check int64) "pinned" 7L (Hashtbl.find env x.Sym.id)
  | _ -> Alcotest.fail "expected SAT");
  Alcotest.(check bool) "substitution discharged constraints" true
    (stats.Solver.simplifications > 0)

let test_implied_literal_linear_eq () =
  (* 3*x + 5 == 20 (mod 2^8) pins x by modular inversion before search;
     the opaque second constraint is then satisfied by substitution *)
  let x = v8 "limx" in
  let lin =
    nonzero
      (Sym.Binop
         (Sym.Eq, Sym.Binop (Sym.Add, Sym.Binop (Sym.Mul, c 8 3L, Sym.of_var x), c 8 5L),
          c 8 20L))
  in
  let opaque =
    nonzero
      (Sym.Binop
         (Sym.Eq, Sym.Binop (Sym.Urem, Sym.Binop (Sym.Mul, Sym.of_var x, Sym.of_var x), c 8 7L),
          c 8 4L))
  in
  (* x = 5: 3*5+5 = 20; 25 mod 7 = 4 *)
  let env = expect_sat [ lin; opaque ] in
  Alcotest.(check int64) "x = 5" 5L (Hashtbl.find env x.Sym.id)

(* ---- incremental solving ---- *)

let test_inc_solve_reuses_prefix () =
  let x = v32 "incx" in
  let p1 = nonzero (Sym.Binop (Sym.Ugt, Sym.of_var x, c 32 100L)) in
  let p2 = nonzero (Sym.Binop (Sym.Ult, Sym.of_var x, c 32 1000L)) in
  let flipped = zero (Sym.Binop (Sym.Eq, Sym.of_var x, c 32 500L)) in
  let parent = mk_env [ (x, 500L) ] in
  let stats = Solver.stats_create () in
  (match Solver.Inc.solve ~stats ~parent ~prefix:[ p1; p2 ] [ flipped ] with
  | Solver.Sat env ->
    Alcotest.(check bool) "model holds" true
      (Solver.holds_all env [ p1; p2; flipped ]);
    Alcotest.(check int64) "parent untouched" 500L (Hashtbl.find parent x.Sym.id)
  | _ -> Alcotest.fail "expected SAT");
  Alcotest.(check bool) "prefix reused" true (stats.Solver.prefix_reuses > 0);
  Alcotest.(check bool) "scan skipped prefix constraints" true
    (stats.Solver.first_violated_skips > 0)

let test_inc_solve_unsat () =
  let x = v8 "incy" in
  let p1 = nonzero (Sym.Binop (Sym.Ule, Sym.of_var x, c 8 10L)) in
  let parent = mk_env [ (x, 5L) ] in
  match
    Solver.Inc.solve ~parent ~prefix:[ p1 ]
      [ nonzero (Sym.Binop (Sym.Uge, Sym.of_var x, c 8 20L)) ]
  with
  | Solver.Unsat -> ()
  | Solver.Sat _ -> Alcotest.fail "expected UNSAT"
  | Solver.Gave_up -> Alcotest.fail "intervals should prove UNSAT incrementally"

(* ---- properties ---- *)

let prop_satisfiable_never_unsat =
  (* single-variable sets constructed around a known solution [m] must
     never be refuted: UNSAT here is always a soundness bug. *)
  QCheck.Test.make ~name:"constructed-satisfiable sets never UNSAT" ~count:1000
    QCheck.(triple (int_bound 0xFFFF) (int_bound 0xFFFF) (list_of_size Gen.(1 -- 4) (int_bound 7)))
    (fun (m, k, shapes) ->
      let m64 = Int64.of_int m and k64 = Int64.of_int k in
      let x = Sym.var ~id:0 ~name:(Printf.sprintf "pn%d_%d" m k) ~width:16 in
      let xe = Sym.of_var x in
      let shape_constr s =
        match s with
        | 0 -> nonzero (Sym.Binop (Sym.Eq, xe, c 16 m64))
        | 1 ->
          if Int64.equal k64 m64 then nonzero (Sym.Binop (Sym.Eq, xe, c 16 m64))
          else zero (Sym.Binop (Sym.Eq, xe, c 16 k64))
        | 2 ->
          nonzero
            (Sym.Binop
               (Sym.Eq, Sym.Binop (Sym.Xor, xe, c 16 k64),
                c 16 (Int64.logxor m64 k64)))
        | 3 ->
          nonzero
            (Sym.Binop
               (Sym.Eq, Sym.Binop (Sym.Add, xe, c 16 k64),
                c 16 (Sym.wrap 16 (Int64.add m64 k64))))
        | 4 ->
          nonzero
            (Sym.Binop
               (Sym.Eq, Sym.Binop (Sym.And, xe, c 16 k64),
                c 16 (Int64.logand m64 k64)))
        | 5 -> nonzero (Sym.Binop (Sym.Ule, xe, c 16 (Int64.max m64 k64)))
        | 6 -> nonzero (Sym.Binop (Sym.Uge, xe, c 16 (Int64.min m64 k64)))
        | _ ->
          if Int64.unsigned_compare m64 k64 < 0 then
            nonzero (Sym.Binop (Sym.Ult, xe, c 16 k64))
          else nonzero (Sym.Binop (Sym.Uge, xe, c 16 k64))
      in
      let cs = List.map shape_constr shapes in
      match solve cs with
      | Solver.Unsat -> false (* m itself satisfies every constraint *)
      | Solver.Sat env -> Solver.holds_all env cs
      | Solver.Gave_up -> true)

let prop_inc_agrees_with_scratch =
  (* incremental and from-scratch solving may differ in models and in
     giving up, but must never disagree SAT-vs-UNSAT; SAT models must
     verify. The prefix is generated the way the explorer records paths:
     each constraint's direction is whatever the parent value [v] actually
     takes, so [v] satisfies the prefix by construction. *)
  QCheck.Test.make ~name:"incremental agrees with from-scratch" ~count:1000
    QCheck.(
      triple (int_bound 0xFFFF)
        (list_of_size Gen.(0 -- 5) (pair (int_bound 0xFFFF) (int_bound 2)))
        (pair (int_bound 0xFFFF) (int_bound 3)))
    (fun (v, prefix_spec, (k, neg_shape)) ->
      let v64 = Int64.of_int v in
      let x = Sym.var ~id:0 ~name:(Printf.sprintf "pi%d_%d" v k) ~width:16 in
      let xe = Sym.of_var x in
      let record expr =
        (* direction = the branch the concrete parent value takes *)
        if Sym.eval (mk_env [ (x, v64) ]) expr <> 0L then nonzero expr else zero expr
      in
      let prefix =
        List.map
          (fun (kp, shape) ->
            let kp64 = Int64.of_int kp in
            record
              (match shape with
              | 0 -> Sym.Binop (Sym.Ule, xe, c 16 kp64)
              | 1 -> Sym.Binop (Sym.Eq, Sym.Binop (Sym.Xor, xe, c 16 kp64), c 16 0x1234L)
              | _ -> Sym.Binop (Sym.Ugt, Sym.Binop (Sym.Add, xe, c 16 kp64), c 16 100L)))
          prefix_spec
      in
      let k64 = Int64.of_int k in
      let last =
        match neg_shape with
        | 0 -> Sym.Binop (Sym.Eq, xe, c 16 k64)
        | 1 -> Sym.Binop (Sym.Ult, xe, c 16 k64)
        | 2 -> Sym.Binop (Sym.Eq, Sym.Binop (Sym.And, xe, c 16 0xF0FL), c 16 k64)
        | _ -> Sym.Binop (Sym.Uge, Sym.Binop (Sym.Xor, xe, c 16 0xFFL), c 16 k64)
      in
      let negated = Path.negate (record last) in
      let parent = mk_env [ (x, v64) ] in
      let all = prefix @ [ negated ] in
      let inc = Solver.Inc.solve ~parent ~prefix [ negated ] in
      let scratch = Solver.solve ~hint:(mk_env []) all in
      let ok_model = function
        | Solver.Sat env -> Solver.holds_all env all
        | Solver.Unsat | Solver.Gave_up -> true
      in
      let agree =
        match (inc, scratch) with
        | Solver.Sat _, Solver.Unsat | Solver.Unsat, Solver.Sat _ -> false
        | _ -> true
      in
      agree && ok_model inc && ok_model scratch)

let prop_solver_sound =
  (* whatever the solver returns as Sat must actually satisfy the input *)
  QCheck.Test.make ~name:"solver models are sound" ~count:300
    QCheck.(pair (int_bound 0xFFFF) (int_bound 3))
    (fun (k, shape) ->
      let x = Sym.var ~id:0 ~name:(Printf.sprintf "ps%d_%d" k shape) ~width:16 in
      let kc = c 16 (Int64.of_int k) in
      let expr =
        match shape with
        | 0 -> Sym.Binop (Sym.Eq, Sym.Binop (Sym.Add, Sym.of_var x, c 16 17L), kc)
        | 1 -> Sym.Binop (Sym.Ult, Sym.of_var x, kc)
        | 2 -> Sym.Binop (Sym.Eq, Sym.Binop (Sym.And, Sym.of_var x, c 16 0xFF0L), kc)
        | _ -> Sym.Binop (Sym.Ne, Sym.Binop (Sym.Xor, Sym.of_var x, c 16 0xAAL), kc)
      in
      let cs = [ nonzero expr ] in
      match solve cs with
      | Solver.Sat env -> Solver.holds_all env cs
      | Solver.Unsat | Solver.Gave_up -> true)

let suite =
  [ ("interval basics", `Quick, test_interval_basic);
    ("interval intersection", `Quick, test_interval_inter);
    ("interval unsigned", `Quick, test_interval_unsigned);
    ("interval seq/clamp", `Quick, test_interval_seq_clamp);
    ("solve x = const", `Quick, test_solve_eq_const);
    ("solve through add/xor", `Quick, test_solve_eq_through_add_xor);
    ("solve through odd mul", `Quick, test_solve_eq_through_mul_odd);
    ("solve through shift", `Quick, test_solve_eq_through_shift);
    ("solve through mask", `Quick, test_solve_eq_through_mask);
    ("solve inequalities", `Quick, test_solve_inequalities);
    ("solve negated equality", `Quick, test_solve_negated_eq);
    ("unsat: empty range", `Quick, test_solve_unsat_range);
    ("unsat: contradiction", `Quick, test_solve_unsat_contradiction);
    ("unsat: variable-free", `Quick, test_solve_varfree_contradiction);
    ("boolean conjunction", `Quick, test_solve_boolean_and);
    ("negated disjunction", `Quick, test_solve_boolean_or_negated);
    ("respects path prefix", `Quick, test_solve_respects_prefix);
    ("hint preserved for free vars", `Quick, test_solve_hint_untouched_vars);
    ("two-variable chain", `Quick, test_solve_two_var_chain);
    ("stats counters", `Quick, test_solver_stats);
    ("prefix-agreement shape", `Quick, test_prefix_agreement_shape);
    ("interval UNSAT detection", `Quick, test_interval_unsat_detected);
    ("interval negated bound UNSAT", `Quick, test_interval_negated_bound_unsat);
    ("interval tiny-domain enumeration", `Quick, test_interval_tiny_domain_enumerated);
    ("interval point domain", `Quick, test_interval_point_domain);
    ("linear doubled variable", `Quick, test_linear_doubled_var);
    ("opaque single-var is not UNSAT", `Quick, test_opaque_single_var_not_unsat);
    ("tiny-domain exhaustion stays UNSAT", `Quick, test_tiny_domain_exhaustion_still_unsat);
    ("simplification discharges pinned constraints", `Quick, test_simplification_counted);
    ("implied literal via linear equality", `Quick, test_implied_literal_linear_eq);
    ("incremental solve reuses prefix", `Quick, test_inc_solve_reuses_prefix);
    ("incremental solve proves UNSAT", `Quick, test_inc_solve_unsat);
    QCheck_alcotest.to_alcotest prop_solver_sound;
    QCheck_alcotest.to_alcotest prop_satisfiable_never_unsat;
    QCheck_alcotest.to_alcotest prop_inc_agrees_with_scratch
  ]
