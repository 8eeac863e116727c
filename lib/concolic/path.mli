(** Branch sites and path conditions.

    A {e branch site} identifies one static conditional in the program under
    test (what CIL instrumentation gives the paper's engine). A {e path
    condition} is the sequence of symbolic branch outcomes one execution
    recorded; negating its [i]-th entry and solving the prefix up to [i]
    yields an input that steers execution down the other side of that
    branch (paper Figure 1). *)

module Site : sig
  type t = { id : int; name : string }
  (** A site as one exploration sees it: its name, and the id that
      exploration's {!Engine.Space.site} gave it (first-seen order).
      Ids mean nothing across explorations; names do. *)

  val id : t -> int
  val name : t -> string
  val pp : Format.formatter -> t -> unit
end

type constr = { expr : Sym.t; expected_nonzero : bool }
(** The constraint "[expr] evaluates non-zero" (or zero). *)

val negate : constr -> constr

val constr_holds : Sym.env -> constr -> bool

val pp_constr : Format.formatter -> constr -> unit

type entry = { site : Site.t; constr : constr }
(** One recorded symbolic branch: at [site], the execution went the way
    [constr] describes. *)

type t = entry list
(** A path condition, in execution order. *)

val length : t -> int
val pp : Format.formatter -> t -> unit

val signature : t -> int64
(** Order-sensitive hash of (site, direction) pairs — identifies the
    execution path for deduplication. *)
