(** Symbolic expressions.

    Fixed-width unsigned bitvector terms over named input variables. These
    are the "shadow" values a concolic execution accumulates alongside the
    concrete run; branch predicates over them become path constraints.

    Widths are in bits, [1..64]; evaluation wraps results to the expression
    width (two's-complement / unsigned semantics, like machine integers).
    Comparison operators produce width-1 values (0 or 1). *)

type var = private { id : int; name : string; width : int }
(** A symbolic input. The id identifies it in environments and terms;
    the name is for reporting and for mapping solver models back to
    program inputs. *)

val var : id:int -> name:string -> width:int -> var
(** A variable with the given id. Ids must be distinct among the
    variables one query mentions; {!Engine.Space.var} numbers an
    exploration's inputs by position.
    @raise Invalid_argument on bad width. *)

type unop =
  | Neg   (** two's-complement negation *)
  | Bnot  (** bitwise complement *)
  | Lnot  (** logical not: 1 if operand is 0, else 0; width 1 *)

type binop =
  | Add | Sub | Mul | Udiv | Urem
  | And | Or | Xor | Shl | Lshr
  | Eq | Ne | Ult | Ule | Ugt | Uge  (** unsigned comparisons, width 1 *)

type t =
  | Const of { value : int64; width : int }
  | Var of var
  | Unop of unop * t
  | Binop of binop * t * t

val const : width:int -> int64 -> t
(** Constant, wrapped to [width]. *)

val of_var : var -> t

val width : t -> int
(** Result width: comparisons and [Lnot] are 1; other operators take the
    max of their operand widths. *)

val wrap : int -> int64 -> int64
(** [wrap w v] truncates [v] to its low [w] bits (unsigned). *)

type env = (int, int64) Hashtbl.t
(** Assignment from variable id to (unsigned, already wrapped) value. *)

val apply_unop : unop -> int -> int64 -> int64
(** [apply_unop op w v] is the value of [op] at result width [w] on an
    operand already wrapped to its width — one step of {!eval}. *)

val apply_binop : binop -> int -> int64 -> int64 -> int64
(** [apply_binop op w a b]: as {!apply_unop}, for a binary operator. *)

val eval : env -> t -> int64
(** Evaluate under an assignment. Unbound variables evaluate to 0.
    Division or remainder by zero yields all-ones (hardware-ish total
    semantics; the program under test guards real divisions). *)

val vars : t -> var list
(** Variables occurring in the term, deduplicated, in first-occurrence
    order. *)

val subst_eval_except : env -> keep:int -> t -> t
(** Partially evaluate: replace every variable except the one with id
    [keep] by its value in [env], folding constants. Used by the solver to
    reduce a constraint to a single-variable term. *)

val subst_partial : env -> t -> t
(** Substitute only the variables bound in [env] by their (width-wrapped)
    values, folding operators whose operands become constant; unbound
    variables stay symbolic. Returns the term physically unchanged when no
    bound variable occurs — callers detect "was simplified" with [==].
    Used by the solver's implied-literal propagation pass. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string
