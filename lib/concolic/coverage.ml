(* Coverage tables are shared by every run of an exploration, and a
   report's table may be read from another domain than the worker that
   explored it, so all access is serialized on a per-table mutex. *)

type t = { lock : Mutex.t; tbl : (int * bool, int) Hashtbl.t }

let create () = { lock = Mutex.create (); tbl = Hashtbl.create 128 }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let record t site dir =
  let key = (Path.Site.id site, dir) in
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | Some c ->
        Hashtbl.replace t.tbl key (c + 1);
        false
      | None ->
        Hashtbl.add t.tbl key 1;
        true)

let covered t site dir = locked t (fun () -> Hashtbl.mem t.tbl (Path.Site.id site, dir))

let fully_covered t site = covered t site true && covered t site false

let hits t site dir =
  locked t (fun () ->
      Option.value (Hashtbl.find_opt t.tbl (Path.Site.id site, dir)) ~default:0)

let hits_id t key = locked t (fun () -> Option.value (Hashtbl.find_opt t.tbl key) ~default:0)

let site_count t =
  locked t (fun () ->
      let sites = Hashtbl.create 64 in
      Hashtbl.iter (fun (id, _) _ -> Hashtbl.replace sites id ()) t.tbl;
      Hashtbl.length sites)

let direction_count t = locked t (fun () -> Hashtbl.length t.tbl)

let snapshot t =
  locked t (fun () -> Hashtbl.fold (fun k _ acc -> k :: acc) t.tbl [])
  |> List.sort compare
