type t = { conc : int64; sym : Sym.t option; width : int }

let concrete ~width conc = { conc = Sym.wrap width conc; sym = None; width }

let of_int ~width i = concrete ~width (Int64.of_int i)

let symbolic v conc =
  { conc = Sym.wrap v.Sym.width conc; sym = Some (Sym.of_var v); width = v.Sym.width }

let make ~width conc sym = { conc = Sym.wrap width conc; sym; width }

let conc t = t.conc
let to_int t = Int64.to_int t.conc
let sym t = t.sym
let width t = t.width
let is_symbolic t = t.sym <> None

let bool_of t = t.conc <> 0L

let of_bool b = { conc = (if b then 1L else 0L); sym = None; width = 1 }

(* The symbolic term for an operand: its shadow if present, else its
   concrete value as a constant. Only called when building a mixed term. *)
let term t =
  match t.sym with
  | Some s -> s
  | None -> Sym.const ~width:t.width t.conc

let unop op a =
  let w =
    match op with
    | Sym.Lnot -> 1
    | Sym.Neg | Sym.Bnot -> a.width
  in
  let conc = Sym.apply_unop op w a.conc in
  match a.sym with
  | None -> { conc; sym = None; width = w }
  | Some _ -> { conc; sym = Some (Sym.Unop (op, term a)); width = w }

let binop op a b =
  let w =
    match op with
    | Sym.Eq | Sym.Ne | Sym.Ult | Sym.Ule | Sym.Ugt | Sym.Uge -> 1
    | Sym.Add | Sym.Sub | Sym.Mul | Sym.Udiv | Sym.Urem | Sym.And | Sym.Or | Sym.Xor
    | Sym.Shl | Sym.Lshr ->
      max a.width b.width
  in
  let conc = Sym.apply_binop op w a.conc b.conc in
  match (a.sym, b.sym) with
  | None, None -> { conc; sym = None; width = w }
  | _, _ -> { conc; sym = Some (Sym.Binop (op, term a, term b)); width = w }

let add = binop Sym.Add
let sub = binop Sym.Sub
let mul = binop Sym.Mul
let logand = binop Sym.And
let logor = binop Sym.Or
let logxor = binop Sym.Xor

let shift_left a n = binop Sym.Shl a (concrete ~width:8 (Int64.of_int n))
let shift_right a n = binop Sym.Lshr a (concrete ~width:8 (Int64.of_int n))

let eq = binop Sym.Eq
let ne = binop Sym.Ne
let ult = binop Sym.Ult
let ule = binop Sym.Ule
let ugt = binop Sym.Ugt
let uge = binop Sym.Uge

let zext ~width v =
  assert (width >= v.width);
  binop Sym.Or (concrete ~width 0L) v

let not_ = unop Sym.Lnot
let and_ = binop Sym.And
let or_ = binop Sym.Or

let pp ppf t =
  match t.sym with
  | None -> Format.fprintf ppf "%Lu" t.conc
  | Some s -> Format.fprintf ppf "%Lu{%a}" t.conc Sym.pp s
