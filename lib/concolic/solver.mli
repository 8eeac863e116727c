(** Constraint solver for path conditions.

    Plays the role the STP-style solver plays for Oasis/Crest: given the
    conjunction of constraints recorded along a path prefix plus one negated
    branch predicate, find concrete input values that satisfy them.

    The implementation is a repair-loop search seeded by the hint
    assignment (the inputs of the run that produced the path — which
    already satisfy every constraint except the negated one):

    - constraints are checked by evaluation;
    - a violated constraint is reduced to a single candidate variable by
      substituting the current values of all others, then {e structurally
      inverted} (addition, xor, masks, shifts, odd multiplication, boolean
      structure over comparisons) to enumerate candidate values;
    - deterministic boundary and sampled candidates back the cases
      inversion cannot reach;
    - the loop repairs violated constraints until all hold or a budget is
      exhausted.

    The explorer tolerates incompleteness: a wrong model merely produces a
    divergent execution whose {e actual} path is recorded and explored. *)

type outcome =
  | Sat of Sym.env  (** a model: every constraint evaluates as required *)
  | Unsat
      (** proven contradiction: a variable-free constraint failed, interval
          propagation derived an empty domain, or a single-variable
          constraint was refuted by exhaustive enumeration of its (small)
          interval domain. Never returned merely because the candidate
          search ran dry — that is {!Gave_up}. *)
  | Gave_up  (** budget or candidates exhausted without a model or a proof *)

type stats = {
  mutable calls : int;
  mutable sat : int;
  mutable unsat : int;
  mutable gave_up : int;
  mutable candidates_tried : int;
  mutable candidates_deduped : int;
      (** duplicate candidate values dropped before evaluation *)
  mutable prefix_reuses : int;
      (** solves that started from a non-empty already-satisfied prefix *)
  mutable simplifications : int;
      (** constraints rewritten or discharged by implied-literal
          substitution *)
  mutable first_violated_skips : int;
      (** constraint evaluations avoided by the incremental
          first-violated scan (summed over repair rounds) *)
}

val stats_create : unit -> stats

val solve :
  ?stats:stats -> ?max_repairs:int -> hint:Sym.env -> Path.constr list -> outcome
(** [solve ~hint cs] searches for an assignment satisfying all of [cs],
    starting from [hint] (unmentioned variables default to 0).
    [max_repairs] bounds the repair iterations (default 256). Counters
    accumulate into [stats] (default: a fresh record the caller never
    sees), so a record shared across domains is the caller's to
    synchronise. The returned
    environment is fresh (callers may mutate it). *)

val holds_all : Sym.env -> Path.constr list -> bool
(** Check a model (exposed for property tests). *)

(** Incremental, prefix-reusing solving.

    During exploration, consecutive solver queries share long prefixes: the
    query for flipping branch [i] is [seeds @ prefix(i) @ [¬b(i)]], and the
    parent run's solved environment already satisfies everything but the
    negation. [Inc.solve] exploits this: the repair starts from the parent
    model, the first-violated scan begins after the trusted prefix, and a
    per-variable dirty bound re-verifies only the prefix constraints a
    repair could actually invalidate. *)
module Inc : sig
  val solve :
    ?stats:stats ->
    ?max_repairs:int ->
    parent:Sym.env ->
    prefix:Path.constr list ->
    Path.constr list ->
    outcome
  (** [solve ~parent ~prefix rest] searches for a model of
      [prefix @ rest] starting from a copy of [parent], which the caller
      asserts satisfies every constraint in [prefix]. The assertion is
      trusted (not re-verified up front); a wrong assertion can only
      produce a wrong [Sat] model, which the explorer already tolerates as
      a divergence — [Unsat] answers remain sound because they never
      depend on it. Implied-literal substitution may still force a
      re-check of the prefix suffix it rewrites. *)
end
