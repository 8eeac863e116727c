type outcome =
  | Sat of Sym.env
  | Unsat
  | Gave_up

type stats = {
  mutable calls : int;
  mutable sat : int;
  mutable unsat : int;
  mutable gave_up : int;
  mutable candidates_tried : int;
  mutable candidates_deduped : int;
  mutable prefix_reuses : int;
  mutable simplifications : int;
  mutable first_violated_skips : int;
}

let stats_create () =
  {
    calls = 0;
    sat = 0;
    unsat = 0;
    gave_up = 0;
    candidates_tried = 0;
    candidates_deduped = 0;
    prefix_reuses = 0;
    simplifications = 0;
    first_violated_skips = 0;
  }

let holds_all env cs = List.for_all (Path.constr_holds env) cs

(* ------------------------------------------------------------------ *)
(* Structural inversion                                                *)
(* ------------------------------------------------------------------ *)

(* Multiplicative inverse of an odd [a] modulo 2^w (Newton iteration). *)
let odd_inverse a w =
  let x = ref a in
  (* x := x * (2 - a*x) doubles correct bits; 6 rounds cover 64 bits *)
  for _ = 1 to 6 do
    x := Int64.mul !x (Int64.sub 2L (Int64.mul a !x))
  done;
  Sym.wrap w !x

let is_odd v = Int64.logand v 1L = 1L

(* Candidate values of the single free variable making [expr] (in which
   every other variable is already a constant) equal [target]. Sound but
   incomplete: all returned values are verified by the caller anyway.
   Linear terms are solved exactly first (modular inversion via
   {!Lincons}); the structural cases handle the non-linear operators. *)
let rec invert_eq expr target =
  let w = Sym.width expr in
  let target = Sym.wrap w target in
  match linear_solution expr target with
  | Some candidates -> candidates
  | None -> invert_eq_structural w expr target

and linear_solution expr target =
  match Lincons.of_sym expr with
  | Some lin when not (Lincons.is_constant lin) -> begin
    match Lincons.vars lin with
    | [ var_id ] -> Some (Lincons.solve_for lin ~var_id ~target ~env:(Hashtbl.create 0))
    | [] | _ :: _ :: _ -> None
  end
  | Some _ | None -> None

and invert_eq_structural w expr target =
  match expr with
  | Sym.Var _ -> [ target ]
  | Sym.Const c -> if Int64.equal c.value target then [ 0L ] else []
  | Sym.Unop (Sym.Neg, e) -> invert_eq e (Int64.neg target)
  | Sym.Unop (Sym.Bnot, e) -> invert_eq e (Int64.lognot target)
  | Sym.Unop (Sym.Lnot, e) ->
    (* Lnot e = target: target is 0 or 1 *)
    if Int64.equal target 1L then invert_eq e 0L
    else if Int64.equal target 0L then invert_nonzero e
    else []
  | Sym.Binop (op, a, b) -> invert_eq_binop w op a b target

and invert_eq_binop w op a b target =
  let const_side, expr_side, const_on_left =
    match (a, b) with
    | Sym.Const c, e -> (Some c.value, e, true)
    | e, Sym.Const c -> (Some c.value, e, false)
    | _, _ -> (None, a, false)
  in
  match (op, const_side) with
  | Sym.Add, Some c -> invert_eq expr_side (Int64.sub target c)
  | Sym.Sub, Some c ->
    if const_on_left then invert_eq expr_side (Int64.sub c target)
    else invert_eq expr_side (Int64.add target c)
  | Sym.Xor, Some c -> invert_eq expr_side (Int64.logxor target c)
  | Sym.Mul, Some c ->
    if is_odd c then invert_eq expr_side (Int64.mul target (odd_inverse c w))
    else if Int64.equal c 0L then if Int64.equal target 0L then [ 0L ] else []
    else begin
      (* factor out the power of two: c = c' * 2^t with c' odd *)
      let rec split c t = if is_odd c then (c, t) else split (Int64.shift_right_logical c 1) (t + 1) in
      let c', t = split c 0 in
      let low = Int64.logand target (Int64.sub (Int64.shift_left 1L t) 1L) in
      if not (Int64.equal low 0L) then []
      else
        invert_eq expr_side
          (Int64.mul (Int64.shift_right_logical target t) (odd_inverse c' w))
    end
  | Sym.Shl, Some c when not const_on_left ->
    let s = Int64.to_int c in
    if s < 0 || s >= 64 then if Int64.equal target 0L then [ 0L ] else []
    else begin
      let low_mask = Int64.sub (Int64.shift_left 1L s) 1L in
      if not (Int64.equal (Int64.logand target low_mask) 0L) then []
      else invert_eq expr_side (Int64.shift_right_logical target s)
    end
  | Sym.Lshr, Some c when not const_on_left ->
    let s = Int64.to_int c in
    if s < 0 || s >= 64 then if Int64.equal target 0L then [ 0L ] else []
    else begin
      let base = Int64.shift_left target s in
      let ones = Int64.sub (Int64.shift_left 1L s) 1L in
      invert_eq expr_side base @ invert_eq expr_side (Int64.logor base ones)
    end
  | Sym.And, Some m ->
    if not (Int64.equal (Int64.logand target (Int64.lognot m)) 0L) then []
    else begin
      let wm = Sym.wrap (Sym.width expr_side) (Int64.lognot m) in
      invert_eq expr_side target @ invert_eq expr_side (Int64.logor target wm)
    end
  | Sym.Or, Some m ->
    if not (Int64.equal (Int64.logand target m) m) then []
    else
      invert_eq expr_side (Int64.logand target (Int64.lognot m))
      @ invert_eq expr_side target
  | Sym.Eq, _ | Sym.Ne, _ | Sym.Ult, _ | Sym.Ule, _ | Sym.Ugt, _ | Sym.Uge, _ ->
    (* comparison produces 0/1; recurse as boolean *)
    if Int64.equal target 1L then invert_cmp op a b true
    else if Int64.equal target 0L then invert_cmp op a b false
    else []
  | _, _ -> []

(* Candidates making comparison [a op b] have the given truth value, where
   one side is constant. *)
and invert_cmp op a b want =
  let flip = function
    | Sym.Eq -> Sym.Ne
    | Sym.Ne -> Sym.Eq
    | Sym.Ult -> Sym.Uge
    | Sym.Ule -> Sym.Ugt
    | Sym.Ugt -> Sym.Ule
    | Sym.Uge -> Sym.Ult
    | op -> op
  in
  let op = if want then op else flip op in
  match (a, b) with
  | e, Sym.Const c -> invert_cmp_const e op c.value
  | Sym.Const c, e ->
    let mirror = function
      | Sym.Ult -> Sym.Ugt
      | Sym.Ule -> Sym.Uge
      | Sym.Ugt -> Sym.Ult
      | Sym.Uge -> Sym.Ule
      | op -> op
    in
    invert_cmp_const e (mirror op) c.value
  | _, _ -> []

(* Candidates for [e op k] (k constant on the right). *)
and invert_cmp_const e op k =
  let w = Sym.width e in
  let maxv = Sym.wrap w (-1L) in
  let u = Int64.unsigned_compare in
  match op with
  | Sym.Eq -> invert_eq e k
  | Sym.Ne ->
    List.concat_map (invert_eq e)
      [ Int64.add k 1L; Int64.sub k 1L; 0L; maxv; Int64.logxor k 1L ]
  | Sym.Ult ->
    if Int64.equal k 0L then []
    else List.concat_map (invert_eq e) [ Int64.sub k 1L; 0L; Int64.shift_right_logical k 1 ]
  | Sym.Ule -> List.concat_map (invert_eq e) [ k; 0L; Int64.sub k 1L ]
  | Sym.Ugt ->
    if u k maxv >= 0 then []
    else List.concat_map (invert_eq e) [ Int64.add k 1L; maxv ]
  | Sym.Uge -> List.concat_map (invert_eq e) [ k; maxv; Int64.add k 1L ]
  | _ -> []

(* Candidates making [expr] non-zero (boolean truth). *)
and invert_nonzero expr =
  match expr with
  | Sym.Binop (((Sym.Eq | Sym.Ne | Sym.Ult | Sym.Ule | Sym.Ugt | Sym.Uge) as op), a, b) ->
    invert_cmp op a b true
  | Sym.Binop (Sym.And, a, b) when Sym.width expr = 1 ->
    (* both conjuncts must hold; solve for whichever mentions the var *)
    invert_both a b true
  | Sym.Binop (Sym.Or, a, b) when Sym.width expr = 1 ->
    invert_nonzero_pick a b
  | Sym.Unop (Sym.Lnot, e) -> invert_eq e 0L
  | _ -> invert_cmp_const expr Sym.Ne 0L

and invert_zero expr =
  match expr with
  | Sym.Binop (((Sym.Eq | Sym.Ne | Sym.Ult | Sym.Ule | Sym.Ugt | Sym.Uge) as op), a, b) ->
    invert_cmp op a b false
  | Sym.Binop (Sym.Or, a, b) when Sym.width expr = 1 -> invert_both a b false
  | Sym.Binop (Sym.And, a, b) when Sym.width expr = 1 ->
    (* either conjunct zero suffices *)
    invert_zero_pick a b
  | Sym.Unop (Sym.Lnot, e) -> invert_nonzero e
  | _ -> invert_eq expr 0L

and invert_both a b want =
  (* conjunction (or joint falsity for Or): at most one side still mentions
     the variable (the other was substituted to a constant) *)
  let has_var e = Sym.vars e <> [] in
  let solve e = if want then invert_nonzero e else invert_zero e in
  match (has_var a, has_var b) with
  | true, false -> solve a
  | false, true -> solve b
  | true, true -> solve a @ solve b
  | false, false -> []

and invert_nonzero_pick a b = invert_both a b true @ []

and invert_zero_pick a b =
  let has_var e = Sym.vars e <> [] in
  (match has_var a with true -> invert_zero a | false -> [])
  @ (match has_var b with true -> invert_zero b | false -> [])

(* ------------------------------------------------------------------ *)
(* Fallback candidates                                                 *)
(* ------------------------------------------------------------------ *)

let constants_of expr =
  let acc = ref [] in
  let rec go = function
    | Sym.Const c -> acc := c.value :: !acc
    | Sym.Var _ -> ()
    | Sym.Unop (_, e) -> go e
    | Sym.Binop (_, a, b) ->
      go a;
      go b
  in
  go expr;
  !acc

(* The 48 deterministic samples depend only on the variable's width, so
   they are drawn once per width instead of once per candidate query (the
   old per-call [Rng.create 0x5EEDL] re-derived the identical block
   millions of times on big explorations). Drawn eagerly at module
   initialization: solvers run concurrently on several domains, and a
   plain immutable array needs no synchronization. *)
let sample_raw =
  let rng = Dice_util.Rng.create 0x5EEDL in
  Array.init 48 (fun _ -> Dice_util.Rng.int64 rng)

let sample_pool var_width = Array.to_list (Array.map (Sym.wrap var_width) sample_raw)

let fallback_candidates expr var_width hint_value =
  let maxv = Sym.wrap var_width (-1L) in
  let base =
    [ 0L; 1L; 2L; maxv; Int64.sub maxv 1L; hint_value; Int64.add hint_value 1L;
      Int64.sub hint_value 1L ]
  in
  let from_consts =
    List.concat_map
      (fun k -> [ k; Int64.add k 1L; Int64.sub k 1L ])
      (constants_of expr)
  in
  let powers =
    List.init (min var_width 32) (fun i -> Int64.shift_left 1L i)
  in
  base @ from_consts @ powers @ sample_pool var_width

(* ------------------------------------------------------------------ *)
(* Repair loop                                                         *)
(* ------------------------------------------------------------------ *)

(* Split width-1 conjunctions into separate constraints: "And(a,b) must be
   non-zero" is "a non-zero" and "b non-zero" (dually for a zero Or).
   The repair loop fixes one variable at a time, so conjuncts mentioning
   different variables must be separate constraints to be solvable. *)
let rec flatten (c : Path.constr) =
  match (c.Path.expr, c.Path.expected_nonzero) with
  | Sym.Binop (Sym.And, a, b), true when Sym.width c.Path.expr = 1 ->
    flatten { Path.expr = a; expected_nonzero = true }
    @ flatten { Path.expr = b; expected_nonzero = true }
  | Sym.Binop (Sym.Or, a, b), false when Sym.width c.Path.expr = 1 ->
    flatten { Path.expr = a; expected_nonzero = false }
    @ flatten { Path.expr = b; expected_nonzero = false }
  | Sym.Unop (Sym.Lnot, e), want -> flatten { Path.expr = e; expected_nonzero = not want }
  | _, _ -> [ c ]

(* ------------------------------------------------------------------ *)
(* Interval propagation                                                *)
(* ------------------------------------------------------------------ *)

(* Derive per-variable unsigned intervals from single-variable atoms of
   the form [v cmp k]. Used to prune candidate values, to enumerate tiny
   domains exhaustively, and to detect empty domains (UNSAT) without
   search. *)
let is_cmp_op = function
  | Sym.Eq | Sym.Ne | Sym.Ult | Sym.Ule | Sym.Ugt | Sym.Uge -> true
  | Sym.Add | Sym.Sub | Sym.Mul | Sym.Udiv | Sym.Urem | Sym.And | Sym.Or | Sym.Xor
  | Sym.Shl | Sym.Lshr ->
    false

let var_interval (c : Path.constr) =
  let interval_of op k width want =
    let maxv = Sym.wrap width (-1L) in
    let flip = function
      | Sym.Eq -> Sym.Ne
      | Sym.Ne -> Sym.Eq
      | Sym.Ult -> Sym.Uge
      | Sym.Ule -> Sym.Ugt
      | Sym.Ugt -> Sym.Ule
      | Sym.Uge -> Sym.Ult
      | op -> op
    in
    let op = if want then op else flip op in
    match op with
    | Sym.Eq -> Some (Interval.point k)
    | Sym.Ule -> Some (Interval.make 0L k)
    | Sym.Ult ->
      if Int64.equal k 0L then None (* empty; caller treats as contradiction *)
      else Some (Interval.make 0L (Int64.sub k 1L))
    | Sym.Uge -> Some (Interval.make k maxv)
    | Sym.Ugt ->
      if Int64.unsigned_compare k maxv >= 0 then None
      else Some (Interval.make (Int64.add k 1L) maxv)
    | Sym.Ne | Sym.Add | Sym.Sub | Sym.Mul | Sym.Udiv | Sym.Urem | Sym.And | Sym.Or
    | Sym.Xor | Sym.Shl | Sym.Lshr ->
      Some (Interval.full width)
  in
  (* Implied literal from a linear equality: [lin == k] with a single
     odd-coefficient variable pins it to the unique solution (a point
     interval), or proves a contradiction when the solution cannot fit the
     variable's width. *)
  let linear_point e k =
    match Lincons.of_sym e with
    | None -> None
    | Some lin ->
      let w = Sym.width e in
      let contradiction () =
        match Sym.vars e with
        | v :: _ -> Some (v, None)
        | [] -> None (* variable-free: the repair loop reports it *)
      in
      if not (Int64.equal (Sym.wrap w k) k) then
        (* the constant exceeds the term's domain: never equal *)
        contradiction ()
      else begin
        match Lincons.point_solution lin ~target:k with
        | None -> None
        | Some (var_id, value) -> begin
          match
            List.find_opt (fun (v : Sym.var) -> v.Sym.id = var_id) (Sym.vars e)
          with
          | None -> None
          | Some v ->
            (* unique mod 2^w; if it exceeds the variable's own domain the
               equality is unsatisfiable *)
            if Int64.equal (Sym.wrap v.Sym.width value) value then
              Some (v, Some (Interval.point value))
            else contradiction ()
        end
      end
  in
  match c.Path.expr with
  | Sym.Binop (op, Sym.Var v, Sym.Const k) when is_cmp_op op ->
    Some (v, interval_of op (Sym.wrap v.Sym.width k.value) v.Sym.width c.Path.expected_nonzero)
  | Sym.Binop (op, Sym.Const k, Sym.Var v) when is_cmp_op op ->
    let mirror = function
      | Sym.Ult -> Sym.Ugt
      | Sym.Ule -> Sym.Uge
      | Sym.Ugt -> Sym.Ult
      | Sym.Uge -> Sym.Ule
      | op -> op
    in
    Some
      (v, interval_of (mirror op) (Sym.wrap v.Sym.width k.value) v.Sym.width
           c.Path.expected_nonzero)
  | (Sym.Binop (Sym.Eq, e, Sym.Const k) | Sym.Binop (Sym.Eq, Sym.Const k, e))
    when c.Path.expected_nonzero ->
    linear_point e k.value
  | (Sym.Binop (Sym.Ne, e, Sym.Const k) | Sym.Binop (Sym.Ne, Sym.Const k, e))
    when not c.Path.expected_nonzero ->
    linear_point e k.value
  | _ -> None

(* [Ok bounds] with a table of per-variable intervals, or [Error ()] when
   some variable's domain is provably empty. *)
let propagate_intervals cs =
  let bounds : (int, Interval.t) Hashtbl.t = Hashtbl.create 8 in
  let contradiction = ref false in
  List.iter
    (fun c ->
      match var_interval c with
      | Some (v, Some ivl) -> begin
        match Hashtbl.find_opt bounds v.Sym.id with
        | None -> Hashtbl.replace bounds v.Sym.id ivl
        | Some existing -> begin
          match Interval.inter existing ivl with
          | Some merged -> Hashtbl.replace bounds v.Sym.id merged
          | None -> contradiction := true
        end
      end
      | Some (_, None) -> contradiction := true
      | None -> ())
    cs;
  if !contradiction then Error () else Ok bounds

(* ------------------------------------------------------------------ *)
(* Implied-literal propagation / constant substitution                  *)
(* ------------------------------------------------------------------ *)

(* Variables whose interval collapsed to a single value are implied
   literals: every occurrence can be substituted by the value. *)
let pinned_of_bounds bounds =
  let pinned : Sym.env = Hashtbl.create 8 in
  Hashtbl.iter
    (fun id ivl -> if Interval.is_point ivl then Hashtbl.replace pinned id ivl.Interval.lo)
    bounds;
  pinned

(* Substitute the pinned variables through [cs] and fold constants.
   Constraints that fold to a satisfied constant are dropped; one that
   folds to a violated constant proves the conjunction unsatisfiable
   ([Error ()]) — the pins are forced, so this is a real contradiction,
   not a search failure. Returns the simplified list and the index of the
   first constraint that changed ([None] when none did): a caller reusing
   a verified prefix must re-verify from that index, because substitution
   can only be trusted once the pinned values are installed in the env. *)
let simplify stats pinned cs =
  if Hashtbl.length pinned = 0 then Ok (cs, None)
  else begin
    let contradiction = ref false in
    let first_changed = ref None in
    let out = ref [] in
    let n = ref 0 in
    let changed_at i =
      stats.simplifications <- stats.simplifications + 1;
      match !first_changed with
      | None -> first_changed := Some i
      | Some _ -> ()
    in
    List.iter
      (fun (c : Path.constr) ->
        let reduced = Sym.subst_partial pinned c.Path.expr in
        if reduced == c.Path.expr then begin
          out := c :: !out;
          incr n
        end
        else begin
          match reduced with
          | Sym.Const k ->
            let truth = not (Int64.equal k.value 0L) in
            if truth = c.Path.expected_nonzero then changed_at !n
              (* constant-true under the forced pins: dropped *)
            else contradiction := true
          | reduced ->
            changed_at !n;
            out := { c with Path.expr = reduced } :: !out;
            incr n
        end)
      cs;
    if !contradiction then Error () else Ok (List.rev !out, !first_changed)
  end

(* ------------------------------------------------------------------ *)
(* Repair loop                                                         *)
(* ------------------------------------------------------------------ *)

(* The search core shared by {!solve} and {!Inc.solve}.

   [fprefix] are flattened constraints the caller asserts [env] already
   satisfies (the parent path's solved prefix); [frest] is the rest
   (typically the one negated branch predicate). The first-violated scan
   starts after the prefix and a per-variable dirty bound tracks how far
   back a repair can invalidate it: whenever the env binding of a
   variable changes, the scan start drops to the earliest constraint
   mentioning that variable, so constraints before the scan start always
   hold by construction and need no re-evaluation. *)
let solve_flat ~stats ~max_repairs ~env fprefix frest =
  match propagate_intervals (fprefix @ frest) with
  | Error () ->
    stats.unsat <- stats.unsat + 1;
    Unsat
  | Ok bounds -> begin
    let pinned = pinned_of_bounds bounds in
    match (simplify stats pinned fprefix, simplify stats pinned frest) with
    | Error (), _ | _, Error () ->
      stats.unsat <- stats.unsat + 1;
      Unsat
    | Ok (sprefix, prefix_changed), Ok (srest, _) ->
      let prefix_len = List.length sprefix in
      let arr = Array.of_list (sprefix @ srest) in
      let n = Array.length arr in
      (* earliest constraint index mentioning each variable *)
      let earliest : (int, int) Hashtbl.t = Hashtbl.create 16 in
      Array.iteri
        (fun i c ->
          List.iter
            (fun (v : Sym.var) ->
              if not (Hashtbl.mem earliest v.Sym.id) then
                Hashtbl.add earliest v.Sym.id i)
            (Sym.vars c.Path.expr))
        arr;
      let earliest_of id = Option.value (Hashtbl.find_opt earliest id) ~default:n in
      let start =
        match prefix_changed with
        | Some i -> min i prefix_len
        | None -> prefix_len
      in
      let scan_from = ref start in
      if start > 0 then stats.prefix_reuses <- stats.prefix_reuses + 1;
      let set_var id value =
        match Hashtbl.find_opt env id with
        | Some old when Int64.equal old value -> ()
        | _ ->
          Hashtbl.replace env id value;
          scan_from := min !scan_from (earliest_of id)
      in
      (* install the implied literals: the model must include them, and
         any prefix constraint they could affect was already counted by
         [prefix_changed] (substitution removed every occurrence) *)
      Hashtbl.iter set_var pinned;
      let first_violated () =
        stats.first_violated_skips <- stats.first_violated_skips + !scan_from;
        let rec go i =
          if i >= n then None
          else if Path.constr_holds env arr.(i) then go (i + 1)
          else Some i
        in
        go !scan_from
      in
      let tried : (int * int * int64, unit) Hashtbl.t = Hashtbl.create 64 in
      let seen_cand : (int64, unit) Hashtbl.t = Hashtbl.create 64 in
      let rec repair budget =
        if budget = 0 then begin
          stats.gave_up <- stats.gave_up + 1;
          Gave_up
        end
        else begin
          match first_violated () with
          | None ->
            stats.sat <- stats.sat + 1;
            Sat env
          | Some ci -> begin
            (* constraints before [ci] hold under the current env *)
            scan_from := ci;
            let c = arr.(ci) in
            let vs = Sym.vars c.Path.expr in
            if vs = [] then begin
              (* variable-free and violated: genuine contradiction *)
              stats.unsat <- stats.unsat + 1;
              Unsat
            end
            else begin
              (* Try to fix this constraint by adjusting one variable.

                 Strict phase: a candidate is accepted only if every
                 constraint up to and including [ci] holds afterwards —
                 plain coordinate descent would otherwise thrash between
                 this constraint and an earlier one over the same
                 variable. Relaxed phase (only if strict fails): accept a
                 candidate that satisfies just this constraint and let
                 later rounds repair the damage. *)
              let interval_for v =
                match Hashtbl.find_opt bounds v.Sym.id with
                | Some ivl -> ivl
                | None -> Interval.full v.Sym.width
              in
              let candidates_for v =
                let reduced = Sym.subst_eval_except env ~keep:v.Sym.id c.Path.expr in
                let derived =
                  if c.Path.expected_nonzero then invert_nonzero reduced
                  else invert_zero reduced
                in
                let hint_value =
                  match Hashtbl.find_opt env v.Sym.id with
                  | Some x -> x
                  | None -> 0L
                in
                let fall = fallback_candidates reduced v.Sym.width hint_value in
                let all = List.map (Sym.wrap v.Sym.width) (derived @ fall) in
                (* interval pruning: drop candidates outside the variable's
                   domain, seed the bounds themselves, and enumerate tiny
                   domains exhaustively *)
                let ivl = interval_for v in
                let enumerated =
                  if Interval.size_le ivl 48 then List.of_seq (Interval.to_seq ivl)
                  else []
                in
                let kept = List.filter (fun x -> Interval.mem x ivl) all in
                let cands =
                  (Interval.clamp ivl hint_value :: ivl.Interval.lo :: ivl.Interval.hi
                 :: kept)
                  @ enumerated
                in
                (* dedupe before the try-loop: the fallback block alone
                   repeats boundary values several times over *)
                Hashtbl.reset seen_cand;
                List.filter
                  (fun cand ->
                    if Hashtbl.mem seen_cand cand then begin
                      stats.candidates_deduped <- stats.candidates_deduped + 1;
                      false
                    end
                    else begin
                      Hashtbl.add seen_cand cand ();
                      true
                    end)
                  cands
              in
              let prefix_holds ~from upto =
                let rec go i = i > upto || (Path.constr_holds env arr.(i) && go (i + 1)) in
                go from
              in
              let try_candidate ~strict v ok cand =
                if ok then true
                else begin
                  let key = (ci + if strict then 0 else 1000000), v.Sym.id, cand in
                  if Hashtbl.mem tried key then false
                  else begin
                    Hashtbl.add tried key ();
                    stats.candidates_tried <- stats.candidates_tried + 1;
                    let saved = Hashtbl.find_opt env v.Sym.id in
                    Hashtbl.replace env v.Sym.id cand;
                    let ok_now =
                      if strict then
                        (* constraints below the dirty bound cannot be
                           affected: they held before and do not mention
                           [v] *)
                        prefix_holds
                          ~from:(min !scan_from (earliest_of v.Sym.id))
                          ci
                      else Path.constr_holds env c
                    in
                    if ok_now then begin
                      if strict then scan_from := ci + 1
                      else scan_from := min !scan_from (earliest_of v.Sym.id);
                      true
                    end
                    else begin
                      (match saved with
                      | Some x -> Hashtbl.replace env v.Sym.id x
                      | None -> Hashtbl.remove env v.Sym.id);
                      false
                    end
                  end
                end
              in
              let phase ~strict =
                List.fold_left
                  (fun fixed v ->
                    if fixed then true
                    else List.fold_left (try_candidate ~strict v) false (candidates_for v))
                  false vs
              in
              if phase ~strict:true || phase ~strict:false then repair (budget - 1)
              else begin
                (* No candidate for any variable even under the relaxed
                   rule. Only when the constraint has a single variable
                   whose interval domain was exhaustively enumerated is
                   this a proof of unsatisfiability; structural inversion
                   plus fallback candidates are incomplete, so anything
                   else is a search failure, not a refutation. *)
                let exhausted =
                  match vs with
                  | [ v ] -> Interval.size_le (interval_for v) 48
                  | [] | _ :: _ :: _ -> false
                in
                if exhausted then begin
                  stats.unsat <- stats.unsat + 1;
                  Unsat
                end
                else begin
                  stats.gave_up <- stats.gave_up + 1;
                  Gave_up
                end
              end
            end
          end
        end
      in
      repair max_repairs
  end

let solve ?(stats = stats_create ()) ?(max_repairs = 256) ~hint cs =
  stats.calls <- stats.calls + 1;
  let env : Sym.env = Hashtbl.copy hint in
  solve_flat ~stats ~max_repairs ~env [] (List.concat_map flatten cs)

module Inc = struct
  let solve ?(stats = stats_create ()) ?(max_repairs = 256) ~parent ~prefix rest =
    stats.calls <- stats.calls + 1;
    let env : Sym.env = Hashtbl.copy parent in
    solve_flat ~stats ~max_repairs ~env
      (List.concat_map flatten prefix)
      (List.concat_map flatten rest)
end
