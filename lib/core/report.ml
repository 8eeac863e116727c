open Dice_inet
module Json = Dice_util.Json
module Explorer = Dice_concolic.Explorer
module Coverage = Dice_concolic.Coverage
module Solver = Dice_concolic.Solver

let severity_string = function
  | Checker.Warning -> "warning"
  | Checker.Critical -> "critical"

let fault_json (f : Checker.fault) =
  Json.obj
    [ ("checker", Json.string f.Checker.checker);
      ("severity", Json.string (severity_string f.Checker.severity));
      ("prefix", Json.string (Prefix.to_string f.Checker.prefix));
      ("description", Json.string f.Checker.description);
      ("details", Json.obj (List.map (fun (k, v) -> (k, Json.string v)) f.Checker.details))
    ]

let explorer_json (r : Explorer.report) =
  Json.obj
    [ ("executions", Json.int r.Explorer.executions);
      ("distinct_paths", Json.int r.Explorer.distinct_paths);
      ("negations_attempted", Json.int r.Explorer.negations_attempted);
      ("negations_sat", Json.int r.Explorer.negations_sat);
      ("negations_unsat", Json.int r.Explorer.negations_unsat);
      ("negations_gave_up", Json.int r.Explorer.negations_gave_up);
      ("divergences", Json.int r.Explorer.divergences);
      ("program_exns", Json.int r.Explorer.program_exns);
      ("covered_directions", Json.int (Coverage.direction_count r.Explorer.coverage));
      ("covered_sites", Json.int (Coverage.site_count r.Explorer.coverage));
      ("coverage_ratio", Json.float (Explorer.coverage_ratio r));
      ("solver_calls", Json.int r.Explorer.solver_stats.Solver.calls);
      ("solver_candidates_tried", Json.int r.Explorer.solver_stats.Solver.candidates_tried);
      ( "solver_candidates_deduped",
        Json.int r.Explorer.solver_stats.Solver.candidates_deduped );
      ("solver_prefix_reuses", Json.int r.Explorer.solver_stats.Solver.prefix_reuses);
      ("solver_simplifications", Json.int r.Explorer.solver_stats.Solver.simplifications);
      ( "solver_first_violated_skips",
        Json.int r.Explorer.solver_stats.Solver.first_violated_skips );
      ("elapsed_s", Json.float r.Explorer.elapsed_s)
    ]

let seed_report_json (sr : Orchestrator.seed_report) =
  Json.obj
    [ ("tag", Json.string sr.Orchestrator.seed.Orchestrator.tag);
      ("peer", Json.string (Ipv4.to_string sr.Orchestrator.seed.Orchestrator.peer));
      ("prefix", Json.string (Prefix.to_string sr.Orchestrator.seed.Orchestrator.prefix));
      ("exploration", explorer_json sr.Orchestrator.explorer);
      ("runs_accepted", Json.int sr.Orchestrator.runs_accepted);
      ("runs_rejected", Json.int sr.Orchestrator.runs_rejected);
      ("observed_accepted", Json.bool sr.Orchestrator.observed_accepted);
      ("intercepted_messages", Json.int sr.Orchestrator.intercepted);
      ( "parser_depths",
        Json.obj (List.map (fun (k, v) -> (k, Json.int v)) sr.Orchestrator.depth_counts) );
      ("faults", Json.list fault_json sr.Orchestrator.faults)
    ]

let leakable_json faults =
  Json.list
    (fun (prefix, count) ->
      Json.obj
        [ ("range", Json.string (Prefix.to_string prefix)); ("findings", Json.int count) ])
    (Hijack.leakable_summary faults)

let report_json (r : Orchestrator.report) =
  Json.obj
    [ ("seeds", Json.list seed_report_json r.Orchestrator.seed_reports);
      ("faults", Json.list fault_json r.Orchestrator.faults);
      ("leakable_ranges", leakable_json r.Orchestrator.faults);
      ("live_image_bytes", Json.int r.Orchestrator.live_image_bytes);
      ("checkpoint_pages", Json.int r.Orchestrator.checkpoint_pages);
      ("checkpoint_seconds", Json.float r.Orchestrator.checkpoint_seconds);
      ("wall_seconds", Json.float r.Orchestrator.wall_seconds)
    ]

let comparison_json (c : Validate.comparison) =
  let verdict =
    match Validate.verdict c with
    | `Safe -> "safe"
    | `Ineffective -> "ineffective"
    | `Harmful -> "harmful"
  in
  Json.obj
    [ ("verdict", Json.string verdict);
      ("fixed", Json.list fault_json c.Validate.fixed);
      ("introduced", Json.list fault_json c.Validate.introduced);
      ("persisting", Json.list fault_json c.Validate.persisting);
      ( "regressions",
        Json.list
          (fun (s : Orchestrator.seed) ->
            Json.obj
              [ ("prefix", Json.string (Prefix.to_string s.Orchestrator.prefix));
                ("peer", Json.string (Ipv4.to_string s.Orchestrator.peer)) ])
          c.Validate.regressions );
      ("current", report_json c.Validate.current_report);
      ("proposed", report_json c.Validate.proposed_report)
    ]

let to_text r =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Format.asprintf "%a@." Orchestrator.pp_report r);
  (match Hijack.leakable_summary r.Orchestrator.faults with
  | [] -> Buffer.add_string buf "no leakable prefix ranges.\n"
  | ranges ->
    Buffer.add_string buf "leakable prefix ranges:\n";
    List.iter
      (fun (prefix, n) ->
        Buffer.add_string buf
          (Printf.sprintf "  %-20s %d finding(s)\n" (Prefix.to_string prefix) n))
      ranges);
  Buffer.contents buf
