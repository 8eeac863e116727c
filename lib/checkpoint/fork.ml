type manager = Store.t

let create ?page_size ?store () =
  match store with
  | Some st ->
    (match page_size with
    | Some ps when ps <> Store.page_size st ->
      invalid_arg "Fork.create: page_size conflicts with the shared store's"
    | Some _ | None -> ());
    st
  | None -> Store.create ?page_size ()

let store m = m

type checkpoint = {
  st : Store.t;
  snap : Store.snapshot;
  image : bytes;  (* what clone footprints are patches on *)
  ids : Page.id array;  (* its pages, in address order *)
}

let checkpoint st ~live_image =
  let ids = Array.of_list (Page.split ~page_size:(Store.page_size st) live_image) in
  { st; snap = Store.capture_pages st ids; image = live_image; ids }

let checkpoint_stats cp ~live_image =
  let live = Store.capture cp.st live_image in
  let unique = Store.unique_pages cp.snap ~relative_to:live in
  let frac = Store.unique_fraction cp.snap ~relative_to:live in
  Store.release live;
  (unique, frac)

let drop_checkpoint cp = Store.release cp.snap

type clone_stats = {
  pages : int;
  unique : int;
  unique_fraction : float;
  extra_fraction : float;
}

(* The clone's image is the checkpoint's, cut or zero-extended to [len],
   with [writes] laid over it in order and [metadata] appended. A page no
   write touches that the checkpoint holds whole keeps the checkpoint's
   id, as fork() leaves a clean page shared; a page one write covers is
   hashed where it lies; any other page is rebuilt, then hashed. *)
let footprint cp ~patch:(len, writes) ~metadata =
  let ps = Store.page_size cp.st in
  let base = cp.image in
  let blen = Bytes.length base in
  let total = len + Bytes.length metadata in
  let n = Page.count ~page_size:ps total in
  let touching = Array.make n [] in
  List.iter
    (fun ((off, b) as w) ->
      let stop = min total (off + Bytes.length b) in
      if stop > off then
        for p = off / ps to (stop - 1) / ps do
          touching.(p) <- w :: touching.(p)
        done)
    (writes @ [ (len, metadata) ]);
  let page_id p =
    let off = p * ps in
    let plen = min ps (total - off) in
    match touching.(p) with
    | [] when off < blen && plen = min ps (blen - off) -> cp.ids.(p)
    | [ (woff, b) ] when woff <= off && off + plen <= woff + Bytes.length b ->
      Page.id_of b (off - woff) plen
    | ws ->
      let buf = Bytes.make plen '\000' in
      if off < blen then Bytes.blit base off buf 0 (min plen (blen - off));
      List.iter
        (fun (woff, b) ->
          let lo = max off woff and hi = min (off + plen) (woff + Bytes.length b) in
          if hi > lo then Bytes.blit b (lo - woff) buf (lo - off) (hi - lo))
        (List.rev ws);
      Page.id_of buf 0 plen
  in
  let final = Store.capture_pages cp.st (Array.init n page_id) in
  let pages = Store.snapshot_pages final in
  let unique = Store.unique_pages final ~relative_to:cp.snap in
  let unique_fraction = Store.unique_fraction final ~relative_to:cp.snap in
  let base = Store.snapshot_pages cp.snap in
  let extra_fraction = if base = 0 then 0.0 else float_of_int unique /. float_of_int base in
  Store.release final;
  { pages; unique; unique_fraction; extra_fraction }
