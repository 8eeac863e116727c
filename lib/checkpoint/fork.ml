type manager = Store.t

let create ?page_size () = Store.create ?page_size ()

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
let image cp = cp.image

type clone_stats = {
  pages : int;
  unique : int;
  unique_fraction : float;
  extra_fraction : float;
}

(* The page ids of [cp]'s image cut or zero-extended to [len], with
   [writes] laid over it: a page no write touches that [cp] holds whole
   keeps [cp]'s id, as fork() leaves a clean page shared; [touched]
   hashes every other page, given its offset, its length and the writes
   over it (latest first). *)
let patched_ids cp ~len writes ~touched =
  let ps = Store.page_size cp.st in
  let blen = Bytes.length cp.image in
  let n = Page.count ~page_size:ps len in
  let touching = Array.make n [] in
  List.iter
    (fun ((off, b) as w) ->
      let stop = min len (off + Bytes.length b) in
      if stop > off then
        for p = off / ps to (stop - 1) / ps do
          touching.(p) <- w :: touching.(p)
        done)
    writes;
  Array.init n (fun p ->
      let off = p * ps in
      let plen = min ps (len - off) in
      match touching.(p) with
      | [] when off < blen && plen = min ps (blen - off) -> cp.ids.(p)
      | ws -> touched off plen ws)

let checkpoint_patch cp ~patch:(len, writes) =
  let image = Bytes.make len '\000' in
  Bytes.blit cp.image 0 image 0 (min len (Bytes.length cp.image));
  List.iter
    (fun (off, b) ->
      let n = min (Bytes.length b) (len - off) in
      if n > 0 then Bytes.blit b 0 image off n)
    writes;
  let ids = patched_ids cp ~len writes ~touched:(fun off plen _ -> Page.id_of image off plen) in
  { st = cp.st; snap = Store.capture_pages cp.st ids; image; ids }

(* The clone's image is the checkpoint's patched with [writes], and
   [metadata] appended. A page one write covers is hashed where it lies;
   any other touched page is rebuilt, then hashed. *)
let footprint cp ~patch:(len, writes) ~metadata =
  let base = cp.image in
  let blen = Bytes.length base in
  let total = len + Bytes.length metadata in
  let touched off plen = function
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
  let final =
    Store.capture_pages cp.st
      (patched_ids cp ~len:total (writes @ [ (len, metadata) ]) ~touched)
  in
  let pages = Store.snapshot_pages final in
  let unique = Store.unique_pages final ~relative_to:cp.snap in
  let unique_fraction = Store.unique_fraction final ~relative_to:cp.snap in
  let base = Store.snapshot_pages cp.snap in
  let extra_fraction = if base = 0 then 0.0 else float_of_int unique /. float_of_int base in
  Store.release final;
  { pages; unique; unique_fraction; extra_fraction }
