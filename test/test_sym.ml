(* Tests for the symbolic expression language and concolic values. *)
open Dice_concolic

let env_of bindings =
  let e : Sym.env = Hashtbl.create 8 in
  List.iter (fun (v, x) -> Hashtbl.replace e v.Sym.id x) bindings;
  e

let c32 v = Sym.const ~width:32 v

let test_const_wraps () =
  match Sym.const ~width:8 0x1FFL with
  | Sym.Const { value; width } ->
    Alcotest.(check int64) "wrapped" 0xFFL value;
    Alcotest.(check int) "width" 8 width
  | _ -> Alcotest.fail "expected Const"

(* an exploration's space numbers its inputs by position *)
let test_var_ids_unique () =
  let space = Engine.Space.create () in
  let a = Engine.Space.var space ~name:"a" ~width:8 in
  let b = Engine.Space.var space ~name:"b" ~width:8 in
  Alcotest.(check (pair int int)) "positional ids" (0, 1) (a.Sym.id, b.Sym.id);
  let again = Engine.Space.var (Engine.Space.create ()) ~name:"b" ~width:8 in
  Alcotest.(check int) "another space starts over" 0 again.Sym.id

let test_bad_width () =
  Alcotest.check_raises "width 0" (Invalid_argument "Sym.var: width must be in [1, 64]")
    (fun () -> ignore (Sym.var ~id:0 ~name:"x" ~width:0))

let test_eval_arith () =
  let v = Sym.var ~id:0 ~name:"x" ~width:32 in
  let e = env_of [ (v, 10L) ] in
  let check name expect expr = Alcotest.(check int64) name expect (Sym.eval e expr) in
  check "add" 15L (Sym.Binop (Sym.Add, Sym.of_var v, c32 5L));
  check "sub wrap" 0xFFFFFFFBL (Sym.Binop (Sym.Sub, c32 5L, Sym.of_var v));
  check "mul" 30L (Sym.Binop (Sym.Mul, Sym.of_var v, c32 3L));
  check "udiv" 3L (Sym.Binop (Sym.Udiv, Sym.of_var v, c32 3L));
  check "urem" 1L (Sym.Binop (Sym.Urem, Sym.of_var v, c32 3L))

let test_eval_div_by_zero_total () =
  let e = Hashtbl.create 0 in
  Alcotest.(check int64) "div by zero is all-ones" 0xFFL
    (Sym.eval e (Sym.Binop (Sym.Udiv, Sym.const ~width:8 7L, Sym.const ~width:8 0L)));
  Alcotest.(check int64) "rem by zero is lhs" 7L
    (Sym.eval e (Sym.Binop (Sym.Urem, Sym.const ~width:8 7L, Sym.const ~width:8 0L)))

let test_eval_bitops () =
  let e = Hashtbl.create 0 in
  let b8 v = Sym.const ~width:8 v in
  let check name expect expr = Alcotest.(check int64) name expect (Sym.eval e expr) in
  check "and" 0x0CL (Sym.Binop (Sym.And, b8 0x0FL, b8 0xCCL));
  check "or" 0xCFL (Sym.Binop (Sym.Or, b8 0x0FL, b8 0xCCL));
  check "xor" 0xC3L (Sym.Binop (Sym.Xor, b8 0x0FL, b8 0xCCL));
  check "shl wraps" 0xF0L (Sym.Binop (Sym.Shl, b8 0xFFL, b8 4L));
  check "lshr" 0x0FL (Sym.Binop (Sym.Lshr, b8 0xFFL, b8 4L));
  check "bnot" 0xF0L (Sym.Unop (Sym.Bnot, b8 0x0FL));
  check "neg" 0xFFL (Sym.Unop (Sym.Neg, b8 1L))

let test_eval_cmp_unsigned () =
  let e = Hashtbl.create 0 in
  let check name expect expr = Alcotest.(check int64) name expect (Sym.eval e expr) in
  (* 0xFFFFFFFF must compare as large, not as -1 *)
  check "ult unsigned" 1L (Sym.Binop (Sym.Ult, c32 5L, c32 0xFFFFFFFFL));
  check "ugt unsigned" 1L (Sym.Binop (Sym.Ugt, c32 0xFFFFFFFFL, c32 5L));
  check "eq" 1L (Sym.Binop (Sym.Eq, c32 5L, c32 5L));
  check "ne" 0L (Sym.Binop (Sym.Ne, c32 5L, c32 5L));
  check "ule eq" 1L (Sym.Binop (Sym.Ule, c32 5L, c32 5L));
  check "uge eq" 1L (Sym.Binop (Sym.Uge, c32 5L, c32 5L))

let test_eval_lnot () =
  let e = Hashtbl.create 0 in
  Alcotest.(check int64) "lnot 0" 1L (Sym.eval e (Sym.Unop (Sym.Lnot, c32 0L)));
  Alcotest.(check int64) "lnot nonzero" 0L (Sym.eval e (Sym.Unop (Sym.Lnot, c32 7L)))

let test_unbound_var_is_zero () =
  let v = Sym.var ~id:0 ~name:"u" ~width:16 in
  Alcotest.(check int64) "zero" 0L (Sym.eval (Hashtbl.create 0) (Sym.of_var v))

let test_width_rules () =
  let v8 = Sym.var ~id:0 ~name:"w8" ~width:8 and v32 = Sym.var ~id:1 ~name:"w32" ~width:32 in
  Alcotest.(check int) "cmp width 1" 1
    (Sym.width (Sym.Binop (Sym.Eq, Sym.of_var v8, Sym.of_var v32)));
  Alcotest.(check int) "arith width max" 32
    (Sym.width (Sym.Binop (Sym.Add, Sym.of_var v8, Sym.of_var v32)));
  Alcotest.(check int) "lnot width 1" 1 (Sym.width (Sym.Unop (Sym.Lnot, Sym.of_var v32)))

let test_vars_dedup_order () =
  let a = Sym.var ~id:0 ~name:"va" ~width:8 and b = Sym.var ~id:1 ~name:"vb" ~width:8 in
  let expr =
    Sym.Binop (Sym.Add, Sym.Binop (Sym.Add, Sym.of_var b, Sym.of_var a), Sym.of_var b)
  in
  Alcotest.(check (list string)) "first-occurrence order" [ "vb"; "va" ]
    (List.map (fun v -> v.Sym.name) (Sym.vars expr))

let test_subst_eval_except () =
  let a = Sym.var ~id:0 ~name:"sa" ~width:32 and b = Sym.var ~id:1 ~name:"sb" ~width:32 in
  let e = env_of [ (a, 3L); (b, 4L) ] in
  let expr = Sym.Binop (Sym.Add, Sym.of_var a, Sym.of_var b) in
  match Sym.subst_eval_except e ~keep:a.Sym.id expr with
  | Sym.Binop (Sym.Add, Sym.Var v, Sym.Const c) ->
    Alcotest.(check string) "kept var" "sa" v.Sym.name;
    Alcotest.(check int64) "substituted" 4L c.value
  | other -> Alcotest.failf "unexpected shape: %s" (Sym.to_string other)

let test_subst_folds_constants () =
  let a = Sym.var ~id:0 ~name:"fa" ~width:32 and b = Sym.var ~id:1 ~name:"fb" ~width:32 in
  let e = env_of [ (b, 4L) ] in
  let expr =
    Sym.Binop (Sym.Add, Sym.of_var a, Sym.Binop (Sym.Mul, Sym.of_var b, c32 10L))
  in
  match Sym.subst_eval_except e ~keep:a.Sym.id expr with
  | Sym.Binop (Sym.Add, Sym.Var _, Sym.Const c) ->
    Alcotest.(check int64) "folded" 40L c.value
  | other -> Alcotest.failf "unexpected shape: %s" (Sym.to_string other)

let test_equal_compare () =
  let a = Sym.var ~id:0 ~name:"ea" ~width:8 in
  let e1 = Sym.Binop (Sym.Add, Sym.of_var a, Sym.const ~width:8 1L) in
  let e2 = Sym.Binop (Sym.Add, Sym.of_var a, Sym.const ~width:8 1L) in
  Alcotest.(check bool) "structural equal" true (Sym.equal e1 e2);
  Alcotest.(check int) "hash agrees" (Sym.hash e1) (Sym.hash e2);
  Alcotest.(check bool) "different" false
    (Sym.equal e1 (Sym.Binop (Sym.Add, Sym.of_var a, Sym.const ~width:8 2L)))

let test_to_string () =
  let a = Sym.var ~id:0 ~name:"ts" ~width:8 in
  Alcotest.(check string) "render" "(ts + 1)"
    (Sym.to_string (Sym.Binop (Sym.Add, Sym.of_var a, Sym.const ~width:8 1L)))

(* ---- Cval ---- *)

let test_cval_concrete_fast_path () =
  let a = Cval.of_int ~width:32 5 and b = Cval.of_int ~width:32 7 in
  let r = Cval.add a b in
  Alcotest.(check int) "value" 12 (Cval.to_int r);
  Alcotest.(check bool) "no shadow" false (Cval.is_symbolic r)

let test_cval_symbolic_propagates () =
  let v = Sym.var ~id:0 ~name:"cv" ~width:32 in
  let a = Cval.symbolic v 5L and b = Cval.of_int ~width:32 7 in
  let r = Cval.add a b in
  Alcotest.(check int) "concrete part" 12 (Cval.to_int r);
  Alcotest.(check bool) "shadow present" true (Cval.is_symbolic r)

let test_cval_shadow_consistent () =
  (* the symbolic shadow, evaluated under the inputs' concrete values,
     must equal the eagerly computed concrete part *)
  let v = Sym.var ~id:0 ~name:"cc" ~width:32 in
  let e = env_of [ (v, 5L) ] in
  let a = Cval.symbolic v 5L in
  let exprs =
    [ Cval.add a (Cval.of_int ~width:32 7);
      Cval.mul a a;
      Cval.logxor a (Cval.of_int ~width:32 0xFF);
      Cval.shift_right a 2;
      Cval.eq a (Cval.of_int ~width:32 5);
      Cval.ult a (Cval.of_int ~width:32 4)
    ]
  in
  List.iter
    (fun cv ->
      match Cval.sym cv with
      | Some s -> Alcotest.(check int64) "shadow = concrete" (Cval.conc cv) (Sym.eval e s)
      | None -> Alcotest.fail "expected shadow")
    exprs

let test_cval_bool () =
  Alcotest.(check bool) "of_bool true" true (Cval.bool_of (Cval.of_bool true));
  Alcotest.(check bool) "of_bool false" false (Cval.bool_of (Cval.of_bool false));
  Alcotest.(check bool) "not" false (Cval.bool_of (Cval.not_ (Cval.of_bool true)));
  Alcotest.(check bool) "and" true
    (Cval.bool_of (Cval.and_ (Cval.of_bool true) (Cval.of_bool true)));
  Alcotest.(check bool) "or" true
    (Cval.bool_of (Cval.or_ (Cval.of_bool false) (Cval.of_bool true)))

let test_cval_zext () =
  let v = Cval.of_int ~width:8 0xAB in
  let z = Cval.zext ~width:16 v in
  Alcotest.(check int) "value preserved" 0xAB (Cval.to_int z);
  Alcotest.(check int) "wider" 16 (Cval.width z);
  Alcotest.(check int) "shift works after zext" 0xAB00
    (Cval.to_int (Cval.shift_left z 8))

let prop_cval_matches_int64 =
  QCheck.Test.make ~name:"cval ops match int64 reference on 32-bit values" ~count:500
    QCheck.(pair (int_bound 0xFFFFFF) (int_bound 0xFFFFFF))
    (fun (x, y) ->
      let a = Cval.of_int ~width:32 x and b = Cval.of_int ~width:32 y in
      Cval.to_int (Cval.add a b) = (x + y) land 0xFFFFFFFF
      && Cval.to_int (Cval.logand a b) = x land y
      && Cval.to_int (Cval.logor a b) = x lor y
      && Cval.to_int (Cval.logxor a b) = x lxor y
      && Cval.bool_of (Cval.ult a b) = (x < y)
      && Cval.bool_of (Cval.eq a b) = (x = y))

let suite =
  [ ("const wraps", `Quick, test_const_wraps);
    ("var ids unique", `Quick, test_var_ids_unique);
    ("bad width", `Quick, test_bad_width);
    ("eval arith", `Quick, test_eval_arith);
    ("div by zero total", `Quick, test_eval_div_by_zero_total);
    ("eval bitops", `Quick, test_eval_bitops);
    ("eval unsigned cmp", `Quick, test_eval_cmp_unsigned);
    ("eval lnot", `Quick, test_eval_lnot);
    ("unbound var", `Quick, test_unbound_var_is_zero);
    ("width rules", `Quick, test_width_rules);
    ("vars dedup/order", `Quick, test_vars_dedup_order);
    ("subst_eval_except", `Quick, test_subst_eval_except);
    ("subst folds", `Quick, test_subst_folds_constants);
    ("equal/compare/hash", `Quick, test_equal_compare);
    ("to_string", `Quick, test_to_string);
    ("cval concrete fast path", `Quick, test_cval_concrete_fast_path);
    ("cval symbolic propagates", `Quick, test_cval_symbolic_propagates);
    ("cval shadow consistent", `Quick, test_cval_shadow_consistent);
    ("cval bool ops", `Quick, test_cval_bool);
    ("cval zext", `Quick, test_cval_zext);
    QCheck_alcotest.to_alcotest prop_cval_matches_int64
  ]
