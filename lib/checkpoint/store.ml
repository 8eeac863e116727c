type key = int64 * int

type t = {
  page_size : int;
  lock : Mutex.t;
      (* one store backs a checkpoint and every clone footprint counted
         against it; parallel seed explorations capture/release from
         separate domains *)
  pages : (key, int) Hashtbl.t;  (* resident page -> reference count *)
  mutable live : int;
  (* dedup accounting across every capture this store ever served — how
     the fleet measures that checkpoint pages are shared across explorer
     clones (and across domains) instead of duplicated *)
  mutable captures : int;
  mutable page_hits : int;  (* captured pages found already resident *)
  mutable page_inserts : int;  (* captured pages stored fresh *)
}

type snapshot = {
  store : t;
  table : Page.id array;  (* page ids in address order *)
  mutable released : bool;
}

let create ?(page_size = Page.default_size) () =
  if page_size <= 0 then invalid_arg "Store.create: page_size must be positive";
  {
    page_size;
    lock = Mutex.create ();
    pages = Hashtbl.create 1024;
    live = 0;
    captures = 0;
    page_hits = 0;
    page_inserts = 0;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let page_size t = t.page_size

let key_of (id : Page.id) : key = (id.hash, id.len)

let capture_pages t ids =
  locked t (fun () ->
      Array.iter
        (fun id ->
          let k = key_of id in
          match Hashtbl.find_opt t.pages k with
          | Some refs ->
            Hashtbl.replace t.pages k (refs + 1);
            t.page_hits <- t.page_hits + 1
          | None ->
            Hashtbl.add t.pages k 1;
            t.page_inserts <- t.page_inserts + 1)
        ids;
      t.captures <- t.captures + 1;
      t.live <- t.live + 1;
      { store = t; table = ids; released = false })

let capture t state =
  capture_pages t (Array.of_list (Page.split ~page_size:t.page_size state))

let release s =
  locked s.store (fun () ->
      if s.released then invalid_arg "Store.release: already released";
      s.released <- true;
      s.store.live <- s.store.live - 1;
      Array.iter
        (fun id ->
          let k = key_of id in
          let refs = Hashtbl.find s.store.pages k - 1 in
          if refs = 0 then Hashtbl.remove s.store.pages k
          else Hashtbl.replace s.store.pages k refs)
        s.table)

let snapshot_pages s = Array.length s.table

(* Multiset of page keys. *)
let key_counts s =
  let h = Hashtbl.create (Array.length s.table) in
  Array.iter
    (fun id ->
      let k = key_of id in
      let c = match Hashtbl.find_opt h k with Some c -> c | None -> 0 in
      Hashtbl.replace h k (c + 1))
    s.table;
  h

let shared_pages a b =
  let ca = key_counts a and cb = key_counts b in
  Hashtbl.fold
    (fun k n acc ->
      match Hashtbl.find_opt cb k with
      | Some m -> acc + min n m
      | None -> acc)
    ca 0

let unique_pages s ~relative_to = snapshot_pages s - shared_pages s relative_to

let unique_fraction s ~relative_to =
  let n = snapshot_pages s in
  if n = 0 then 0.0 else float_of_int (unique_pages s ~relative_to) /. float_of_int n

let stored_pages t = locked t (fun () -> Hashtbl.length t.pages)

let resident_bytes t =
  locked t (fun () -> Hashtbl.fold (fun (_, len) _ acc -> acc + len) t.pages 0)

let live_snapshots t = locked t (fun () -> t.live)

let captures t = locked t (fun () -> t.captures)
let page_hits t = locked t (fun () -> t.page_hits)
let page_inserts t = locked t (fun () -> t.page_inserts)

let dedup_ratio t =
  locked t (fun () ->
      let total = t.page_hits + t.page_inserts in
      if total = 0 then 0.0 else float_of_int t.page_hits /. float_of_int total)
