(* Tests for the worker pool and the verdict cache (Dice_exec). *)
module Pool = Dice_exec.Pool
module Vcache = Dice_exec.Vcache

(* ---- Pool ---- *)

let test_pool_map_order () =
  let items = List.init 100 Fun.id in
  Alcotest.(check (list int))
    "input order preserved" (List.map (fun x -> x * x) items)
    (Pool.map ~jobs:4 (fun x -> x * x) items)

(* Four items at four jobs must run on four workers at once: each item
   waits until all four have started, which only happens if [map] really
   spawned one domain per item. The deadline turns a missing worker into
   a failure rather than a hang. *)
let test_pool_run_all_workers () =
  let started = Atomic.make 0 in
  let deadline = Unix.gettimeofday () +. 10.0 in
  let met =
    Pool.map ~jobs:4
      (fun _ ->
        Atomic.incr started;
        while Atomic.get started < 4 && Unix.gettimeofday () < deadline do
          Domain.cpu_relax ()
        done;
        (Atomic.get started = 4, (Domain.self () :> int)))
      (List.init 4 Fun.id)
  in
  Alcotest.(check (list bool)) "all four ran together" [ true; true; true; true ]
    (List.map fst met);
  Alcotest.(check int) "on four distinct domains" 4
    (List.length (List.sort_uniq compare (List.map snd met)))

let test_pool_exception_propagates () =
  Alcotest.check_raises "failure re-raised after the join" (Failure "item 0") (fun () ->
      ignore (Pool.map ~jobs:3 (fun i -> if i = 0 then failwith "item 0") [ 0; 1; 2 ]))

(* 500 items under 4-way contention on the claim cursor: every item is
   applied exactly once. *)
let test_pool_map_exactly_once () =
  let n = 500 in
  let counts = Array.init n (fun _ -> Atomic.make 0) in
  ignore (Pool.map ~jobs:4 (fun i -> Atomic.incr counts.(i)) (List.init n Fun.id));
  Array.iteri
    (fun i c ->
      Alcotest.(check int) (Printf.sprintf "item %d exactly once" i) 1 (Atomic.get c))
    counts

(* ---- Vcache ---- *)

let test_vcache_hit_and_version_invalidation () =
  let v : (string, int) Vcache.t = Vcache.create () in
  Alcotest.(check (option int)) "cold" None (Vcache.find v ~version:0 "k");
  Vcache.store v ~version:0 "k" 42;
  Alcotest.(check (option int)) "same-version hit" (Some 42) (Vcache.find v ~version:0 "k");
  (* the authoritative state moved: the entry is stale, evicted on sight *)
  Alcotest.(check (option int)) "new version misses" None (Vcache.find v ~version:1 "k");
  Alcotest.(check int) "stale entry evicted" 0 (Vcache.size v);
  Vcache.store v ~version:1 "k" 7;
  Alcotest.(check (option int)) "restored at the new version" (Some 7)
    (Vcache.find v ~version:1 "k");
  Alcotest.(check int) "hits" 2 (Vcache.hits v);
  Alcotest.(check int) "misses" 2 (Vcache.misses v);
  Alcotest.(check (float 1e-9)) "hit rate" 0.5 (Vcache.hit_rate v)

let test_vcache_first_writer_wins_same_version () =
  let v : (int, string) Vcache.t = Vcache.create ~shards:1 () in
  Vcache.store v ~version:3 1 "first";
  Vcache.store v ~version:3 1 "second";
  Alcotest.(check (option string)) "first writer kept" (Some "first")
    (Vcache.find v ~version:3 1);
  (* a newer version replaces, not ties *)
  Vcache.store v ~version:4 1 "fresh";
  Alcotest.(check (option string)) "stale replaced" (Some "fresh")
    (Vcache.find v ~version:4 1)

let test_vcache_concurrent_store_find () =
  let v : (int, int) Vcache.t = Vcache.create () in
  let keys = 100 in
  (* workers only count bad reads: Alcotest's reporter is not domain-safe,
     so every check runs on the calling domain after the join *)
  let unstable = Atomic.make 0 in
  ignore
    (Pool.map ~jobs:4
       (fun _worker ->
         for k = 0 to keys - 1 do
           match Vcache.find v ~version:0 k with
           | Some cached -> if cached <> k * 2 then Atomic.incr unstable
           | None -> Vcache.store v ~version:0 k (k * 2)
         done)
       (List.init 4 Fun.id));
  Alcotest.(check int) "every cached read is the stored value" 0 (Atomic.get unstable);
  Alcotest.(check int) "all keys resident" keys (Vcache.size v);
  for k = 0 to keys - 1 do
    Alcotest.(check (option int)) "value intact" (Some (k * 2)) (Vcache.find v ~version:0 k)
  done

let test_vcache_bounded_by_one_version () =
  (* fleet probe keys almost never recur: a key looked up once and
     never again must not outlive its version *)
  let v : (int, int) Vcache.t = Vcache.create () in
  let per_version = 5 in
  for version = 1 to 1000 do
    for i = 0 to per_version - 1 do
      let key = (version * per_version) + i in
      ignore (Vcache.find v ~version key);
      Vcache.store v ~version key i
    done
  done;
  Alcotest.(check int) "one version's entries" per_version (Vcache.size v);
  Alcotest.(check int) "every probe missed" 5000 (Vcache.misses v);
  Alcotest.(check (option int)) "the newest still hit" (Some 4)
    (Vcache.find v ~version:1000 ((1000 * per_version) + 4));
  (* a new epoch drops them too, once anything presents it *)
  Vcache.invalidate v;
  Alcotest.(check (option int)) "the epoch moved" None (Vcache.find v ~version:1000 5000);
  Alcotest.(check int) "and the cache emptied" 0 (Vcache.size v)

let suite =
  [ ("pool map preserves order", `Quick, test_pool_map_order);
    ("pool runs every worker", `Quick, test_pool_run_all_workers);
    ("pool propagates exceptions", `Quick, test_pool_exception_propagates);
    ("pool map: items run exactly once", `Quick, test_pool_map_exactly_once);
    ("vcache hit + version invalidation", `Quick, test_vcache_hit_and_version_invalidation);
    ("vcache first writer wins per version", `Quick,
      test_vcache_first_writer_wins_same_version);
    ("vcache concurrent store/find", `Quick, test_vcache_concurrent_store_find);
    ("vcache bounded by one version", `Quick, test_vcache_bounded_by_one_version)
  ]
