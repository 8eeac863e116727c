(* Entries carry the stamp — (epoch, version) — of the authoritative
   state they were computed against. Stamps only move forward: the
   version is a monotone update counter and the epoch a monotone restart
   counter. Once a newer stamp is presented, no entry under an older one
   can hit again, so each shard keeps only the entries of the newest
   stamp it has seen, and the first find or store presenting a newer
   stamp than any before sweeps every shard. *)

type stamp = int * int  (* (epoch, version), ordered lexicographically *)

type ('k, 'v) shard = {
  lock : Mutex.t;
  tbl : ('k, 'v) Hashtbl.t;
  mutable stamp : stamp;  (* every entry of [tbl] was stored under it *)
}

type ('k, 'v) t = {
  shards : ('k, 'v) shard array;
  hit_count : int Atomic.t;
  miss_count : int Atomic.t;
  epoch : int Atomic.t;
  newest : stamp Atomic.t;
}

let create ?(shards = 8) () =
  if shards < 1 then invalid_arg "Vcache.create: shards must be >= 1";
  {
    shards =
      Array.init shards (fun _ ->
          { lock = Mutex.create (); tbl = Hashtbl.create 64; stamp = (0, min_int) });
    hit_count = Atomic.make 0;
    miss_count = Atomic.make 0;
    epoch = Atomic.make 0;
    newest = Atomic.make (0, min_int);
  }

let shard_of t key =
  t.shards.((Hashtbl.hash key land max_int) mod Array.length t.shards)

let newer ((e, v) : stamp) ((e', v') : stamp) = e > e' || (e = e' && v > v')

(* With [s] locked: bring the shard up to [stamp] if that is newer,
   dropping its entries; whether [stamp] is the shard's now. *)
let catch_up s stamp =
  if newer stamp s.stamp then begin
    Hashtbl.reset s.tbl;
    s.stamp <- stamp
  end;
  not (newer s.stamp stamp)

let locked s f =
  Mutex.lock s.lock;
  let r = f () in
  Mutex.unlock s.lock;
  r

(* The stamp of a find or store at [version]; the first to present one
   newer than any before sweeps every shard. *)
let rec stamp_of t ~version =
  let stamp = (Atomic.get t.epoch, version) in
  let newest = Atomic.get t.newest in
  if not (newer stamp newest) then stamp
  else if Atomic.compare_and_set t.newest newest stamp then begin
    Array.iter (fun s -> locked s (fun () -> ignore (catch_up s stamp))) t.shards;
    stamp
  end
  else stamp_of t ~version

let find t ~version key =
  let stamp = stamp_of t ~version in
  let s = shard_of t key in
  let r = locked s (fun () -> if catch_up s stamp then Hashtbl.find_opt s.tbl key else None) in
  (match r with
  | Some _ -> Atomic.incr t.hit_count
  | None -> Atomic.incr t.miss_count);
  r

let store t ~version key value =
  let stamp = stamp_of t ~version in
  let s = shard_of t key in
  (* at the same stamp the first writer wins — concurrent computations
     of the same key produce equal values, so dropping the loser is
     fine; under an older stamp the value could never hit *)
  locked s (fun () ->
      if catch_up s stamp && not (Hashtbl.mem s.tbl key) then Hashtbl.replace s.tbl key value)

let invalidate t = Atomic.incr t.epoch

let hits t = Atomic.get t.hit_count
let misses t = Atomic.get t.miss_count

let hit_rate t =
  let h = hits t and m = misses t in
  if h + m = 0 then 0. else float_of_int h /. float_of_int (h + m)

let size t = Array.fold_left (fun acc s -> acc + locked s (fun () -> Hashtbl.length s.tbl)) 0 t.shards
