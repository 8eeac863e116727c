type program = Engine.ctx -> unit

type config = {
  strategy : Strategy.t;
  max_runs : int;
  max_depth : int;
  solver_max_repairs : int;
}

let default_config =
  {
    strategy = Strategy.Dfs;
    max_runs = 512;
    max_depth = 128;
    solver_max_repairs = 256;
  }

type run = {
  index : int;
  assignment : (string * int64) list;
  path_length : int;
  new_directions : int;
  diverged : bool;
}

type report = {
  runs : run list;
  executions : int;
  distinct_paths : int;
  negations_attempted : int;
  negations_sat : int;
  negations_unsat : int;
  negations_gave_up : int;
  divergences : int;
  program_exns : int;
  coverage : Coverage.t;
  solver_stats : Solver.stats;
  space : Engine.Space.t;
  elapsed_s : float;
}

(* A pending negation: flip branch [idx] of [parent_path] and solve for
   inputs that reach the other side. *)
type item = {
  parent_path : Path.entry array;
  parent_seeds : Path.constr list;
  hint : Sym.env;
  idx : int;
  bound : int;  (* generational search: children expand indices >= bound *)
  priority : int;
  order : int;  (* tie-break / FIFO ordering *)
  expected : (int * bool) option;  (* (site id, direction) the model should produce *)
}

(* Identity of a negation attempt: the branch-direction prefix plus the
   flipped branch, as the literal (site id, direction) sequence the
   requested path would take. Structural — two attempts compare equal iff
   they request the same path, so a table keyed on this can never drop a
   distinct negation the way a folded-hash key could on collision. *)
let attempt_key parent_path idx =
  let rec go i acc =
    if i < 0 then acc
    else begin
      let e = parent_path.(i) in
      let dir = e.Path.constr.expected_nonzero in
      let dir = if i = idx then not dir else dir in
      go (i - 1) ((Path.Site.id e.Path.site, dir) :: acc)
    end
  in
  go idx []

let explore ?(config = default_config) program =
  let t0 = Unix.gettimeofday () in
  let space = Engine.Space.create () in
  let coverage = Coverage.create () in
  let solver_stats = Solver.stats_create () in
  let attempted : ((int * bool) list, unit) Hashtbl.t = Hashtbl.create 256 in
  let distinct : (int64, unit) Hashtbl.t = Hashtbl.create 256 in
  let rev_runs = ref [] in
  let executions = ref 0 in
  let negations_attempted = ref 0 in
  let negations_sat = ref 0 in
  let negations_unsat = ref 0 in
  let negations_gave_up = ref 0 in
  let divergences = ref 0 in
  let program_exns = ref 0 in
  let next_order = ref 0 in
  (* DFS and Cover_new pop newest-first: a list stack is already O(1) and
     preserves the classic dive-deep order. The prioritized strategies use
     a binary heap — the old fold-for-max + filter-to-remove list made
     every pop O(n) and every generational enqueue O(n) via append. *)
  let stack : item list ref = ref [] in
  let heap : item Pqueue.t = Pqueue.create () in
  let use_heap =
    match config.strategy with
    | Strategy.Generational | Strategy.Random_negation _ -> true
    | Strategy.Dfs | Strategy.Cover_new -> false
  in
  let rng =
    match config.strategy with
    | Strategy.Random_negation seed -> Dice_util.Rng.create seed
    | Strategy.Dfs | Strategy.Generational | Strategy.Cover_new ->
      Dice_util.Rng.create 0L
  in

  (* Execute the program once; returns the info children need. *)
  let execute ~overrides ~expected =
    let ctx = Engine.create ~coverage ~space ~overrides () in
    let before = Coverage.direction_count coverage in
    (try program ctx with
    | (Stack_overflow | Out_of_memory) as fatal ->
      (* resource exhaustion is not a program-under-test outcome; masking
         it would turn a dying explorer into a silent coverage plateau *)
      raise fatal
    | _exn -> incr program_exns);
    let after = Coverage.direction_count coverage in
    let path = Array.of_list (Engine.path ctx) in
    Hashtbl.replace distinct (Path.signature (Array.to_list path)) ();
    let diverged =
      match expected with
      | None -> false
      | Some (site_id, dir) -> begin
        (* the model predicted some prefix; minimal faithful check: the
           flipped branch must appear with the predicted direction at its
           position or the run is a divergence *)
        let found = ref false in
        Array.iter
          (fun e ->
            if
              Path.Site.id e.Path.site = site_id
              && e.Path.constr.expected_nonzero = dir
            then found := true)
          path;
        not !found
      end
    in
    if diverged then incr divergences;
    incr executions;
    let r =
      {
        index = !executions - 1;
        assignment = Engine.assignment ctx ~space;
        path_length = Array.length path;
        new_directions = after - before;
        diverged;
      }
    in
    rev_runs := r :: !rev_runs;
    (path, Engine.seed_constraints ctx, Engine.env ctx, r)
  in

  let enqueue_children ~path ~seeds ~hint ~bound ~priority =
    let n = min (Array.length path) config.max_depth in
    let items = ref [] in
    for idx = n - 1 downto bound do
      let key = attempt_key path idx in
      if not (Hashtbl.mem attempted key) then begin
        let e = path.(idx) in
        let item_priority =
          match config.strategy with
          | Strategy.Generational ->
            (* coverage-guided score: the parent's contribution plus a
               bonus when the flipped direction is unseen or still rare *)
            let flipped = (Path.Site.id e.Path.site, not e.Path.constr.expected_nonzero) in
            priority + Strategy.coverage_bonus ~hits:(Coverage.hits_id coverage flipped)
          | Strategy.Random_negation _ ->
            (* uniform random priorities make heap pops a uniformly random
               draw from the pending set, deterministic per seed *)
            Dice_util.Rng.int rng 0x40000000
          | Strategy.Dfs | Strategy.Cover_new -> priority
        in
        let it =
          {
            parent_path = path;
            parent_seeds = seeds;
            hint;
            idx;
            bound;
            priority = item_priority;
            order = !next_order;
            expected = None;
          }
        in
        incr next_order;
        if use_heap then Pqueue.push heap ~priority:item_priority ~order:it.order it
        else items := it :: !items
      end
    done;
    (* [items] ends up in increasing idx order; for DFS we want the deepest
       first, so prepend reversed *)
    if not use_heap then stack := List.rev_append !items !stack
  in

  let pop () =
    if use_heap then Pqueue.pop heap
    else begin
      match !stack with
      | [] -> None
      | it :: rest ->
        stack := rest;
        Some it
    end
  in

  (* initial run: all defaults *)
  let path0, seeds0, hint0, _r0 = execute ~overrides:(Hashtbl.create 0) ~expected:None in
  enqueue_children ~path:path0 ~seeds:seeds0 ~hint:hint0 ~bound:0 ~priority:0;

  let rec loop () =
    if !executions >= config.max_runs then ()
    else begin
      match pop () with
      | None -> ()
      | Some it -> begin
        let e = it.parent_path.(it.idx) in
        let skip =
          match config.strategy with
          | Strategy.Cover_new ->
            (* only negate if the opposite direction is still uncovered *)
            Coverage.covered coverage e.Path.site (not e.Path.constr.expected_nonzero)
          | Strategy.Dfs | Strategy.Generational | Strategy.Random_negation _ -> false
        in
        if skip then loop ()
        else begin
          let key = attempt_key it.parent_path it.idx in
          if Hashtbl.mem attempted key then loop ()
          else begin
            Hashtbl.add attempted key ();
            incr negations_attempted;
            let prefix = Array.to_list (Array.sub it.parent_path 0 it.idx) in
            let prefix_cs =
              it.parent_seeds @ List.map (fun en -> en.Path.constr) prefix
            in
            let negated = Path.negate e.Path.constr in
            (* the parent's env satisfied the prefix when the parent ran
               it, so the incremental solver can start repairing at the
               negation instead of re-verifying the whole prefix *)
            let outcome =
              Solver.Inc.solve ~stats:solver_stats ~max_repairs:config.solver_max_repairs
                ~parent:it.hint ~prefix:prefix_cs [ negated ]
            in
            match outcome with
            | Solver.Unsat ->
              incr negations_unsat;
              loop ()
            | Solver.Gave_up ->
              incr negations_gave_up;
              loop ()
            | Solver.Sat model ->
              incr negations_sat;
              let expected =
                Some (Path.Site.id e.Path.site, not e.Path.constr.expected_nonzero)
              in
              let path, seeds, hint, r = execute ~overrides:model ~expected in
              let bound =
                match config.strategy with
                | Strategy.Generational -> it.idx + 1
                | Strategy.Dfs | Strategy.Cover_new | Strategy.Random_negation _ -> 0
              in
              enqueue_children ~path ~seeds ~hint ~bound ~priority:r.new_directions;
              loop ()
          end
        end
      end
    end
  in
  loop ();
  {
    runs = List.rev !rev_runs;
    executions = !executions;
    distinct_paths = Hashtbl.length distinct;
    negations_attempted = !negations_attempted;
    negations_sat = !negations_sat;
    negations_unsat = !negations_unsat;
    negations_gave_up = !negations_gave_up;
    divergences = !divergences;
    program_exns = !program_exns;
    coverage;
    solver_stats;
    space;
    elapsed_s = Unix.gettimeofday () -. t0;
  }

let coverage_ratio report =
  let sites = Coverage.site_count report.coverage in
  if sites = 0 then 1.0
  else float_of_int (Coverage.direction_count report.coverage) /. float_of_int (2 * sites)

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>executions: %d@,distinct paths: %d@,negations: %d attempted, %d sat, %d unsat, %d \
     gave up@,divergences: %d@,program exceptions: %d@,coverage: %d directions over %d sites \
     (%.1f%%)@,solver: %d prefix reuses, %d simplifications, %d scan skips, %d candidates \
     deduped@,elapsed: %.3f s@]"
    r.executions r.distinct_paths r.negations_attempted r.negations_sat r.negations_unsat
    r.negations_gave_up r.divergences r.program_exns
    (Coverage.direction_count r.coverage)
    (Coverage.site_count r.coverage)
    (100.0 *. coverage_ratio r)
    r.solver_stats.Solver.prefix_reuses r.solver_stats.Solver.simplifications
    r.solver_stats.Solver.first_violated_skips r.solver_stats.Solver.candidates_deduped
    r.elapsed_s
