(* Entries carry the version of the authoritative state they were
   computed against. A lookup presents the *current* version; an entry
   stored under any other version is stale — the remote router has
   processed updates since, so the memoized verdict may no longer hold —
   and is evicted on sight rather than left to shadow the slot. *)

type ('k, 'v) shard = { lock : Mutex.t; tbl : ('k, int * int * 'v) Hashtbl.t }
(* entries are (epoch, version, value) *)

type ('k, 'v) t = {
  shards : ('k, 'v) shard array;
  hit_count : int Atomic.t;
  miss_count : int Atomic.t;
  epoch : int Atomic.t;
}

let create ?(shards = 8) () =
  if shards < 1 then invalid_arg "Vcache.create: shards must be >= 1";
  {
    shards =
      Array.init shards (fun _ ->
          { lock = Mutex.create (); tbl = Hashtbl.create 64 });
    hit_count = Atomic.make 0;
    miss_count = Atomic.make 0;
    epoch = Atomic.make 0;
  }

let shard_of t key =
  t.shards.((Hashtbl.hash key land max_int) mod Array.length t.shards)

let find t ~version key =
  let s = shard_of t key in
  let epoch = Atomic.get t.epoch in
  Mutex.lock s.lock;
  let r =
    match Hashtbl.find_opt s.tbl key with
    | Some (e, v, value) when e = epoch && v = version -> Some value
    | Some _ ->
      Hashtbl.remove s.tbl key;
      None
    | None -> None
  in
  Mutex.unlock s.lock;
  (match r with
  | Some _ -> Atomic.incr t.hit_count
  | None -> Atomic.incr t.miss_count);
  r

let store t ~version key value =
  let s = shard_of t key in
  let epoch = Atomic.get t.epoch in
  Mutex.lock s.lock;
  (* Replace stale entries; at the same (epoch, version) the first
     writer wins — concurrent computations of the same key produce
     equal values, so dropping the loser is fine. *)
  (match Hashtbl.find_opt s.tbl key with
  | Some (e, v, _) when e = epoch && v = version -> ()
  | Some _ | None -> Hashtbl.replace s.tbl key (epoch, version, value));
  Mutex.unlock s.lock

let invalidate t = Atomic.incr t.epoch

let hits t = Atomic.get t.hit_count
let misses t = Atomic.get t.miss_count

let hit_rate t =
  let h = hits t and m = misses t in
  if h + m = 0 then 0. else float_of_int h /. float_of_int (h + m)

let size t =
  Array.fold_left
    (fun acc s ->
      Mutex.lock s.lock;
      let n = Hashtbl.length s.tbl in
      Mutex.unlock s.lock;
      acc + n)
    0 t.shards
