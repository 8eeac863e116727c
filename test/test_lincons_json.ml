(* Tests for the linear-constraint normal form and the JSON encoder. *)
open Dice_concolic
module Json = Dice_util.Json

let v32 name = Sym.var ~id:(Hashtbl.hash name) ~name ~width:32
let c32 v = Sym.const ~width:32 v

let env_of bindings =
  let e : Sym.env = Hashtbl.create 8 in
  List.iter (fun (v, x) -> Hashtbl.replace e v.Sym.id x) bindings;
  e

(* ---- Lincons ---- *)

let test_linear_of_const () =
  match Lincons.of_sym (c32 42L) with
  | Some lin ->
    Alcotest.(check bool) "constant" true (Lincons.is_constant lin);
    Alcotest.(check int64) "value" 42L (Lincons.eval (Hashtbl.create 0) lin)
  | None -> Alcotest.fail "constant is linear"

let test_linear_collects_terms () =
  let x = v32 "lcx" and y = v32 "lcy" in
  (* 3*x + x - y + 7 => 4*x - y + 7 *)
  let expr =
    Sym.Binop
      ( Sym.Add,
        Sym.Binop
          ( Sym.Sub,
            Sym.Binop (Sym.Add, Sym.Binop (Sym.Mul, c32 3L, Sym.of_var x), Sym.of_var x),
            Sym.of_var y ),
        c32 7L )
  in
  match Lincons.of_sym expr with
  | Some lin ->
    Alcotest.(check (list int)) "vars" [ x.Sym.id; y.Sym.id ] (Lincons.vars lin);
    let e = env_of [ (x, 10L); (y, 5L) ] in
    Alcotest.(check int64) "agrees with Sym.eval" (Sym.eval e expr) (Lincons.eval e lin)
  | None -> Alcotest.fail "expected linear"

let test_linear_cancellation () =
  let x = v32 "lcz" in
  (* x - x collapses to the constant 0 *)
  let expr = Sym.Binop (Sym.Sub, Sym.of_var x, Sym.of_var x) in
  match Lincons.of_sym expr with
  | Some lin -> Alcotest.(check bool) "cancelled" true (Lincons.is_constant lin)
  | None -> Alcotest.fail "expected linear"

let test_linear_shl_is_scaling () =
  let x = v32 "lshl" in
  let expr = Sym.Binop (Sym.Shl, Sym.of_var x, Sym.const ~width:8 4L) in
  match Lincons.of_sym expr with
  | Some lin ->
    let e = env_of [ (x, 3L) ] in
    Alcotest.(check int64) "16*x" 48L (Lincons.eval e lin)
  | None -> Alcotest.fail "shift by constant is linear"

let test_nonlinear_rejected () =
  let x = v32 "lnl" in
  List.iter
    (fun expr ->
      Alcotest.(check bool) "not linear" true (Lincons.of_sym expr = None))
    [ Sym.Binop (Sym.Mul, Sym.of_var x, Sym.of_var x);
      Sym.Binop (Sym.And, Sym.of_var x, c32 0xFFL);
      Sym.Binop (Sym.Lshr, Sym.of_var x, Sym.const ~width:8 2L);
      Sym.Unop (Sym.Bnot, Sym.of_var x)
    ]

let test_solve_odd_coefficient () =
  let x = v32 "lso" in
  (* 7*x + 11 = punched through modular inverse *)
  let expr =
    Sym.Binop (Sym.Add, Sym.Binop (Sym.Mul, c32 7L, Sym.of_var x), c32 11L)
  in
  match Lincons.of_sym expr with
  | Some lin -> begin
    match Lincons.solve_for lin ~var_id:x.Sym.id ~target:53L ~env:(Hashtbl.create 0) with
    | [ sol ] ->
      Alcotest.(check int64) "7*6+11 = 53" 6L sol
    | other -> Alcotest.failf "expected one solution, got %d" (List.length other)
  end
  | None -> Alcotest.fail "expected linear"

let test_solve_even_coefficient () =
  let x = v32 "lse" in
  let expr = Sym.Binop (Sym.Mul, c32 12L, Sym.of_var x) in
  match Lincons.of_sym expr with
  | Some lin -> begin
    (* 12*x = 36 -> x = 3; 12*x = 37 -> impossible (odd residual) *)
    (match Lincons.solve_for lin ~var_id:x.Sym.id ~target:36L ~env:(Hashtbl.create 0) with
    | [ sol ] ->
      let e = env_of [] in
      Hashtbl.replace e x.Sym.id sol;
      Alcotest.(check int64) "verifies" 36L (Sym.eval e expr)
    | _ -> Alcotest.fail "expected a solution for 36");
    match Lincons.solve_for lin ~var_id:x.Sym.id ~target:37L ~env:(Hashtbl.create 0) with
    | [] -> ()
    | _ -> Alcotest.fail "37 is not divisible"
  end
  | None -> Alcotest.fail "expected linear"

let test_solve_with_other_vars_fixed () =
  let x = v32 "lsx" and y = v32 "lsy" in
  (* x + 2*y = 100 with y = 30 -> x = 40 *)
  let expr =
    Sym.Binop (Sym.Add, Sym.of_var x, Sym.Binop (Sym.Mul, c32 2L, Sym.of_var y))
  in
  match Lincons.of_sym expr with
  | Some lin -> begin
    match Lincons.solve_for lin ~var_id:x.Sym.id ~target:100L ~env:(env_of [ (y, 30L) ]) with
    | [ sol ] -> Alcotest.(check int64) "x" 40L sol
    | _ -> Alcotest.fail "expected one solution"
  end
  | None -> Alcotest.fail "expected linear"

let prop_lincons_agrees_with_eval =
  QCheck.Test.make ~name:"lincons eval agrees with Sym.eval on linear terms" ~count:300
    QCheck.(triple (int_bound 1000) (int_bound 1000) (int_bound 50))
    (fun (a, b, k) ->
      let x = v32 "plx" and y = v32 "ply" in
      let expr =
        Sym.Binop
          ( Sym.Sub,
            Sym.Binop
              (Sym.Add, Sym.Binop (Sym.Mul, c32 (Int64.of_int k), Sym.of_var x), Sym.of_var y),
            c32 (Int64.of_int b) )
      in
      let e = env_of [ (x, Int64.of_int a); (y, Int64.of_int b) ] in
      match Lincons.of_sym expr with
      | Some lin -> Lincons.eval e lin = Sym.eval e expr
      | None -> false)

let prop_solver_handles_linear_chains =
  (* end-to-end: the solver now solves x + x + 2 == k exactly when k is even *)
  QCheck.Test.make ~name:"solver solves doubled-variable equalities" ~count:100
    QCheck.(int_bound 10000)
    (fun k ->
      let x = Sym.var ~id:0 ~name:(Printf.sprintf "dsx%d" k) ~width:32 in
      let expr =
        Sym.Binop
          (Sym.Eq,
           Sym.Binop (Sym.Add, Sym.Binop (Sym.Add, Sym.of_var x, Sym.of_var x), c32 2L),
           c32 (Int64.of_int (2 * k)))
      in
      let cs = [ { Path.expr; expected_nonzero = true } ] in
      match Solver.solve ~hint:(Hashtbl.create 0) cs with
      | Solver.Sat env -> Solver.holds_all env cs
      | Solver.Unsat | Solver.Gave_up -> k = 0 && false)

(* ---- Json ---- *)

let test_json_scalars () =
  Alcotest.(check string) "null" "null" (Json.to_string Json.Null);
  Alcotest.(check string) "true" "true" (Json.to_string (Json.bool true));
  Alcotest.(check string) "int" "42" (Json.to_string (Json.int 42));
  Alcotest.(check string) "float" "1.5" (Json.to_string (Json.float 1.5));
  Alcotest.(check string) "nan is null" "null" (Json.to_string (Json.float Float.nan));
  Alcotest.(check string) "string" "\"hi\"" (Json.to_string (Json.string "hi"))

let test_json_escaping () =
  Alcotest.(check string) "quotes and backslash" "\\\"a\\\\b\\\"" (Json.escape "\"a\\b\"");
  Alcotest.(check string) "newline" "line\\nbreak" (Json.escape "line\nbreak");
  Alcotest.(check string) "control" "\\u0001" (Json.escape "\001")

let test_json_compound () =
  let v =
    Json.obj
      [ ("xs", Json.list Json.int [ 1; 2 ]); ("empty", Json.List []); ("o", Json.obj []) ]
  in
  Alcotest.(check string) "compact" "{\"xs\":[1,2],\"empty\":[],\"o\":{}}" (Json.to_string v)

let test_json_indent_parses_back_structurally () =
  let v = Json.obj [ ("a", Json.int 1); ("b", Json.list Json.string [ "x" ]) ] in
  let s = Json.to_string ~indent:true v in
  (* structural smoke: the indented form contains the same tokens *)
  Alcotest.(check bool) "has key" true (String.length s > 10);
  Alcotest.(check bool) "multi-line" true (String.contains s '\n')

let test_report_json_shape () =
  (* a fault renders with the expected fields *)
  let f =
    { Dice_core.Checker.checker = "origin-hijack";
      severity = Dice_core.Checker.Critical;
      prefix = Dice_inet.Prefix.of_string "10.0.0.0/8";
      description = "d";
      details = [ ("k", "v") ];
    }
  in
  match Dice_core.Report.fault_json f with
  | Json.Obj fields ->
    Alcotest.(check (list string)) "fields"
      [ "checker"; "severity"; "prefix"; "description"; "details" ]
      (List.map fst fields)
  | _ -> Alcotest.fail "expected an object"

let suite =
  [ ("lincons of const", `Quick, test_linear_of_const);
    ("lincons collects terms", `Quick, test_linear_collects_terms);
    ("lincons cancellation", `Quick, test_linear_cancellation);
    ("lincons shl scaling", `Quick, test_linear_shl_is_scaling);
    ("lincons rejects nonlinear", `Quick, test_nonlinear_rejected);
    ("lincons solve odd coeff", `Quick, test_solve_odd_coefficient);
    ("lincons solve even coeff", `Quick, test_solve_even_coefficient);
    ("lincons solve with fixed vars", `Quick, test_solve_with_other_vars_fixed);
    QCheck_alcotest.to_alcotest prop_lincons_agrees_with_eval;
    QCheck_alcotest.to_alcotest prop_solver_handles_linear_chains;
    ("json scalars", `Quick, test_json_scalars);
    ("json escaping", `Quick, test_json_escaping);
    ("json compound", `Quick, test_json_compound);
    ("json indent", `Quick, test_json_indent_parses_back_structurally);
    ("report json shape", `Quick, test_report_json_shape)
  ]
