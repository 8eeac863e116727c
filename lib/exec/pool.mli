(** A domain-based worker pool for batches of independent items.

    Its callers hand it a list and take back the results in order: the
    orchestrator's exploration seeds, a batch of cross-domain probes, a
    fleet's wave of per-domain update batches. Each {!map} is
    spawn–work–join: it starts its worker domains, they claim items until
    none are left, and the call returns once every domain has joined. *)

val available_parallelism : unit -> int
(** What the runtime recommends for this machine
    ({!Domain.recommended_domain_count}), never below 1. The CLI default
    for [--jobs]. *)

val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f items] applies [f] to every item, distributing items
    across [min jobs (List.length items)] worker domains, and returns the
    results in input order. Items are claimed dynamically (an atomic
    cursor), so uneven item costs balance across workers. With one
    worker, [f] runs on the calling domain without a spawn. [f] must be
    safe to call from concurrent domains. If [f] raises, the first failure (by worker
    index) is re-raised after all workers have joined, with the worker's
    original backtrace attached. *)
