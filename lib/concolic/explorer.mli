(** The concolic exploration loop (paper Figure 1).

    Runs the program under test with concrete inputs, records the symbolic
    path condition, then repeatedly picks a recorded branch, negates its
    predicate, asks the solver for inputs reaching the other side, and
    re-executes — accumulating branch coverage and an aggregate set of
    discovered paths until the input space is exhausted or the budget runs
    out. *)

type program = Engine.ctx -> unit
(** The instrumented entry point — in DiCE terms, a message handler invoked
    over a cloned checkpoint. Exceptions escaping the program abort that run
    only (the path recorded so far still counts) and are tallied in
    [report.program_exns] — except [Stack_overflow] and [Out_of_memory],
    which indicate explorer-level resource exhaustion and are re-raised. *)

type config = {
  strategy : Strategy.t;
  max_runs : int;  (** total program executions, initial run included *)
  max_depth : int;  (** only the first [max_depth] branches are negated *)
  solver_max_repairs : int;
      (** each negation is solved incrementally from the parent run's
          environment ({!Solver.Inc}), with this repair budget *)
}

val default_config : config
(** DFS, 512 runs, depth 128, 256 solver repairs. *)

type run = {
  index : int;
  assignment : (string * int64) list;  (** inputs by name *)
  path_length : int;
  new_directions : int;  (** branch directions first covered by this run *)
  diverged : bool;
      (** the run did not follow the path the solver's model predicted *)
}

type report = {
  runs : run list;  (** chronological *)
  executions : int;
  distinct_paths : int;
  negations_attempted : int;
  negations_sat : int;
  negations_unsat : int;
  negations_gave_up : int;
  divergences : int;
  program_exns : int;  (** exceptions the program under test raised *)
  coverage : Coverage.t;
  solver_stats : Solver.stats;
  space : Engine.Space.t;
  elapsed_s : float;
}

val explore : ?config:config -> program -> report
(** Explore from scratch: the initial run uses every input's default
    value. *)

val attempt_key : Path.entry array -> int -> (int * bool) list
(** Identity of a negation attempt: the (site id, direction) sequence of
    the path prefix up to index [idx], with entry [idx]'s direction
    flipped. Structural, not hashed — two attempts have equal keys iff
    they request the same negated path, so distinct negations can never be
    dropped by a key collision. Exposed so tests can check that
    identity. *)

val coverage_ratio : report -> float
(** Covered (site, direction) pairs over [2 * sites seen] — a progress
    measure for the coverage experiments. *)

val pp_report : Format.formatter -> report -> unit
