type var = { id : int; name : string; width : int }

let check_width width =
  if width < 1 || width > 64 then invalid_arg "Sym.var: width must be in [1, 64]"

let var ~id ~name ~width =
  check_width width;
  { id; name; width }

type unop = Neg | Bnot | Lnot

type binop =
  | Add | Sub | Mul | Udiv | Urem
  | And | Or | Xor | Shl | Lshr
  | Eq | Ne | Ult | Ule | Ugt | Uge

type t =
  | Const of { value : int64; width : int }
  | Var of var
  | Unop of unop * t
  | Binop of binop * t * t

let wrap w v =
  if w >= 64 then v else Int64.logand v (Int64.sub (Int64.shift_left 1L w) 1L)

let const ~width value =
  check_width width;
  Const { value = wrap width value; width }

let of_var v = Var v

let is_cmp = function
  | Eq | Ne | Ult | Ule | Ugt | Uge -> true
  | Add | Sub | Mul | Udiv | Urem | And | Or | Xor | Shl | Lshr -> false

let rec width = function
  | Const c -> c.width
  | Var v -> v.width
  | Unop (Lnot, _) -> 1
  | Unop ((Neg | Bnot), e) -> width e
  | Binop (op, a, b) -> if is_cmp op then 1 else max (width a) (width b)

type env = (int, int64) Hashtbl.t

let all_ones w = wrap w (-1L)

let apply_unop op w v =
  match op with
  | Neg -> wrap w (Int64.neg v)
  | Bnot -> wrap w (Int64.lognot v)
  | Lnot -> if v = 0L then 1L else 0L

let bool_val b = if b then 1L else 0L

let apply_binop op w a b =
  match op with
  | Add -> wrap w (Int64.add a b)
  | Sub -> wrap w (Int64.sub a b)
  | Mul -> wrap w (Int64.mul a b)
  | Udiv -> if b = 0L then all_ones w else Int64.unsigned_div a b
  | Urem -> if b = 0L then a else Int64.unsigned_rem a b
  | And -> Int64.logand a b
  | Or -> Int64.logor a b
  | Xor -> Int64.logxor a b
  | Shl ->
    let s = Int64.to_int b in
    if s < 0 || s >= 64 then 0L else wrap w (Int64.shift_left a s)
  | Lshr ->
    let s = Int64.to_int b in
    if s < 0 || s >= 64 then 0L else Int64.shift_right_logical a s
  | Eq -> bool_val (Int64.equal a b)
  | Ne -> bool_val (not (Int64.equal a b))
  | Ult -> bool_val (Int64.unsigned_compare a b < 0)
  | Ule -> bool_val (Int64.unsigned_compare a b <= 0)
  | Ugt -> bool_val (Int64.unsigned_compare a b > 0)
  | Uge -> bool_val (Int64.unsigned_compare a b >= 0)

let rec eval env t =
  match t with
  | Const c -> c.value
  | Var v -> begin
    match Hashtbl.find_opt env v.id with
    | Some x -> wrap v.width x
    | None -> 0L
  end
  | Unop (op, e) -> apply_unop op (width t) (eval env e)
  | Binop (op, a, b) -> apply_binop op (width t) (eval env a) (eval env b)

let vars t =
  let seen = Hashtbl.create 8 in
  let acc = ref [] in
  let rec go = function
    | Const _ -> ()
    | Var v ->
      if not (Hashtbl.mem seen v.id) then begin
        Hashtbl.add seen v.id ();
        acc := v :: !acc
      end
    | Unop (_, e) -> go e
    | Binop (_, a, b) ->
      go a;
      go b
  in
  go t;
  List.rev !acc

let rec subst_eval_except env ~keep t =
  match t with
  | Const _ -> t
  | Var v -> if v.id = keep then t else Const { value = wrap v.width (eval env t); width = v.width }
  | Unop (op, e) -> begin
    match subst_eval_except env ~keep e with
    | Const c -> Const { value = apply_unop op (width t) c.value; width = width t }
    | e' -> Unop (op, e')
  end
  | Binop (op, a, b) -> begin
    match (subst_eval_except env ~keep a, subst_eval_except env ~keep b) with
    | Const ca, Const cb ->
      Const { value = apply_binop op (width t) ca.value cb.value; width = width t }
    | a', b' -> Binop (op, a', b')
  end

let rec subst_partial env t =
  match t with
  | Const _ -> t
  | Var v -> begin
    match Hashtbl.find_opt env v.id with
    | Some x -> Const { value = wrap v.width x; width = v.width }
    | None -> t
  end
  | Unop (op, e) -> begin
    match subst_partial env e with
    | Const c -> Const { value = apply_unop op (width t) c.value; width = width t }
    | e' -> if e' == e then t else Unop (op, e')
  end
  | Binop (op, a, b) -> begin
    match (subst_partial env a, subst_partial env b) with
    | Const ca, Const cb ->
      Const { value = apply_binop op (width t) ca.value cb.value; width = width t }
    | a', b' -> if a' == a && b' == b then t else Binop (op, a', b')
  end

let rec compare a b =
  match (a, b) with
  | Const x, Const y -> Stdlib.compare (x.value, x.width) (y.value, y.width)
  | Const _, _ -> -1
  | _, Const _ -> 1
  | Var x, Var y -> Int.compare x.id y.id
  | Var _, _ -> -1
  | _, Var _ -> 1
  | Unop (o1, e1), Unop (o2, e2) ->
    let c = Stdlib.compare o1 o2 in
    if c <> 0 then c else compare e1 e2
  | Unop _, _ -> -1
  | _, Unop _ -> 1
  | Binop (o1, a1, b1), Binop (o2, a2, b2) ->
    let c = Stdlib.compare o1 o2 in
    if c <> 0 then c
    else begin
      let c = compare a1 a2 in
      if c <> 0 then c else compare b1 b2
    end

let equal a b = compare a b = 0

let rec hash = function
  | Const c -> Hashtbl.hash (0, c.value, c.width)
  | Var v -> Hashtbl.hash (1, v.id)
  | Unop (op, e) -> Hashtbl.hash (2, op, hash e)
  | Binop (op, a, b) -> Hashtbl.hash (3, op, hash a, hash b)

let unop_str = function
  | Neg -> "-"
  | Bnot -> "~"
  | Lnot -> "!"

let binop_str = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Udiv -> "/u"
  | Urem -> "%u"
  | And -> "&"
  | Or -> "|"
  | Xor -> "^"
  | Shl -> "<<"
  | Lshr -> ">>u"
  | Eq -> "=="
  | Ne -> "!="
  | Ult -> "<u"
  | Ule -> "<=u"
  | Ugt -> ">u"
  | Uge -> ">=u"

let rec pp ppf = function
  | Const c -> Format.fprintf ppf "%Lu" c.value
  | Var v -> Format.fprintf ppf "%s" v.name
  | Unop (op, e) -> Format.fprintf ppf "%s(%a)" (unop_str op) pp e
  | Binop (op, a, b) -> Format.fprintf ppf "(%a %s %a)" pp a (binop_str op) pp b

let to_string t = Format.asprintf "%a" pp t
