type t = (int * bool, int) Hashtbl.t

let create () : t = Hashtbl.create 128

let record t site dir =
  let key = (Path.Site.id site, dir) in
  match Hashtbl.find_opt t key with
  | Some c ->
    Hashtbl.replace t key (c + 1);
    false
  | None ->
    Hashtbl.add t key 1;
    true

let covered t site dir = Hashtbl.mem t (Path.Site.id site, dir)

let hits_id t key = Option.value (Hashtbl.find_opt t key) ~default:0

let site_count t =
  let sites = Hashtbl.create 64 in
  Hashtbl.iter (fun (id, _) _ -> Hashtbl.replace sites id ()) t;
  Hashtbl.length sites

let direction_count t = Hashtbl.length t

let snapshot t = Hashtbl.fold (fun k _ acc -> k :: acc) t [] |> List.sort compare
