(** Operator-facing report rendering.

    The paper's value proposition for the network operator is a concrete
    artifact: "DiCE clearly states which prefix ranges can be leaked"
    (§4.2). This module turns exploration results into that artifact —
    human-readable text or machine-readable JSON for pipelines (the CLI's
    [--json] flag). *)

val fault_json : Checker.fault -> Dice_util.Json.t

val seed_report_json : Orchestrator.seed_report -> Dice_util.Json.t
(** Exploration statistics per seed: executions, distinct paths,
    coverage, accept/reject counts, solver counters, per-seed faults. *)

val report_json : Orchestrator.report -> Dice_util.Json.t
(** The whole episode: seeds, deduplicated faults, leakable ranges (from
    {!Hijack.leakable_summary}), checkpoint metrics, timing. *)

val comparison_json : Validate.comparison -> Dice_util.Json.t
(** A config-change validation result, verdict included. *)

val to_text : Orchestrator.report -> string
(** The same content as {!Orchestrator.pp_report}, plus the leakable-range
    summary — the paragraph an operator reads. *)
