(* Tests for the copy-on-write page store and checkpoint accounting. *)
module Page = Dice_checkpoint.Page
module Store = Dice_checkpoint.Store
module Fork = Dice_checkpoint.Fork

let bytes_of n f = Bytes.init n (fun i -> Char.chr (f i land 0xFF))

(* ---- Page ---- *)

let test_page_split_sizes () =
  let b = bytes_of 10000 Fun.id in
  let pages = Page.split ~page_size:4096 b in
  Alcotest.(check int) "page count" 3 (List.length pages);
  Alcotest.(check (list int)) "sizes" [ 4096; 4096; 1808 ]
    (List.map (fun (id : Page.id) -> id.Page.len) pages)

let test_page_split_empty () =
  Alcotest.(check int) "no pages" 0 (List.length (Page.split ~page_size:4096 Bytes.empty))

let test_page_count () =
  Alcotest.(check int) "exact" 2 (Page.count ~page_size:100 200);
  Alcotest.(check int) "round up" 3 (Page.count ~page_size:100 201);
  Alcotest.(check int) "zero" 0 (Page.count ~page_size:100 0)

let test_page_id_content_based () =
  let a = Bytes.of_string "hello world" in
  let b = Bytes.of_string "hello world" in
  Alcotest.(check bool) "same content same id" true
    (Page.equal_id (Page.id_of a 0 11) (Page.id_of b 0 11));
  Bytes.set b 0 'H';
  Alcotest.(check bool) "differs" false (Page.equal_id (Page.id_of a 0 11) (Page.id_of b 0 11))

(* ---- Store ---- *)

let test_dedup () =
  let st = Store.create ~page_size:64 () in
  let img = Bytes.make 640 'x' in
  let snap = Store.capture st img in
  (* ten identical pages stored once *)
  Alcotest.(check int) "snapshot pages" 10 (Store.snapshot_pages snap);
  Alcotest.(check int) "stored once" 1 (Store.stored_pages st)

let test_sharing_between_snapshots () =
  let st = Store.create ~page_size:64 () in
  let a = bytes_of 640 Fun.id in
  let b = Bytes.copy a in
  Bytes.set b 0 '\xFF';  (* dirty the first page only *)
  let sa = Store.capture st a and sb = Store.capture st b in
  Alcotest.(check int) "9 shared" 9 (Store.shared_pages sa sb);
  Alcotest.(check int) "1 unique" 1 (Store.unique_pages sb ~relative_to:sa);
  Alcotest.(check (float 1e-9)) "fraction" 0.1 (Store.unique_fraction sb ~relative_to:sa)

let test_refcount_eviction () =
  let st = Store.create ~page_size:64 () in
  let a = Store.capture st (Bytes.make 64 'a') in
  let b = Store.capture st (Bytes.make 64 'b') in
  Alcotest.(check int) "two pages" 2 (Store.stored_pages st);
  Store.release a;
  Alcotest.(check int) "one evicted" 1 (Store.stored_pages st);
  Store.release b;
  Alcotest.(check int) "empty" 0 (Store.stored_pages st)

let test_double_release_rejected () =
  let st = Store.create ~page_size:64 () in
  let a = Store.capture st (Bytes.make 64 'a') in
  Store.release a;
  Alcotest.check_raises "double release" (Invalid_argument "Store.release: already released")
    (fun () -> Store.release a)

let test_empty_image () =
  let st = Store.create ~page_size:64 () in
  let s = Store.capture st Bytes.empty in
  Alcotest.(check int) "no pages" 0 (Store.snapshot_pages s);
  Alcotest.(check (float 0.0)) "fraction 0" 0.0 (Store.unique_fraction s ~relative_to:s)

let test_live_snapshots () =
  let st = Store.create () in
  Alcotest.(check int) "none" 0 (Store.live_snapshots st);
  let a = Store.capture st (Bytes.make 10 'a') in
  let b = Store.capture st (Bytes.make 10 'a') in
  Alcotest.(check int) "two" 2 (Store.live_snapshots st);
  Store.release a;
  Store.release b;
  Alcotest.(check int) "zero" 0 (Store.live_snapshots st)

(* ---- Fork ---- *)

(* a clone image given whole: one write over the checkpoint's *)
let whole img = (Bytes.length img, [ (0, img) ])

let test_fork_lifecycle () =
  let mgr = Fork.create ~page_size:64 () in
  let live = bytes_of 1024 Fun.id in
  let cp = Fork.checkpoint mgr ~live_image:live in
  (* the clone mutates one page *)
  let final = Bytes.copy live in
  Bytes.set final 0 '\xEE';
  let stats = Fork.footprint cp ~patch:(whole final) ~metadata:Bytes.empty in
  Alcotest.(check int) "pages" 16 stats.Fork.pages;
  Alcotest.(check int) "one unique" 1 stats.Fork.unique;
  (* counting a footprint holds no pages: only the checkpoint's remain *)
  Alcotest.(check int) "one live snapshot" 1 (Store.live_snapshots (Fork.store mgr));
  Fork.drop_checkpoint cp;
  Alcotest.(check int) "nothing resident" 0 (Store.stored_pages (Fork.store mgr))

let test_fork_unchanged_clone () =
  let mgr = Fork.create ~page_size:64 () in
  let live = bytes_of 640 Fun.id in
  let cp = Fork.checkpoint mgr ~live_image:live in
  let stats = Fork.footprint cp ~patch:(whole live) ~metadata:Bytes.empty in
  Alcotest.(check int) "zero unique" 0 stats.Fork.unique;
  Alcotest.(check (float 0.0)) "zero extra" 0.0 stats.Fork.extra_fraction

let test_fork_grown_clone () =
  let mgr = Fork.create ~page_size:64 () in
  let live = bytes_of 640 Fun.id in
  let cp = Fork.checkpoint mgr ~live_image:live in
  (* the clone's image grows (exploration metadata): extra pages counted
     against the checkpoint's page count *)
  let final = Bytes.cat live (Bytes.make 320 'm') in
  let stats = Fork.footprint cp ~patch:(whole final) ~metadata:Bytes.empty in
  Alcotest.(check int) "five extra pages" 5 stats.Fork.unique;
  Alcotest.(check (float 1e-9)) "50% extra" 0.5 stats.Fork.extra_fraction

(* a patch counts the pages of the image it yields, whatever its shape:
   writes straddling pages, overlapping, growing or cutting the image,
   metadata starting mid-page. The checkpoint repeats page contents and
   writes often put back the bytes already there or zero a range, so a
   page rebuilt wrong changes which pages the checkpoint shares. *)
let prop_patch_matches_whole =
  let gen =
    let open QCheck.Gen in
    let write = triple (int_bound 900) (int_bound 200) (int_bound 2) in
    quad (int_range 1 700) (int_bound 900) (list_size (int_bound 6) write)
      (string_size ~gen:(return 'm') (int_bound 300))
  in
  QCheck.Test.make ~name:"fork patch counts as its whole image" ~count:300 (QCheck.make gen)
    (fun (blen, len, writes, metadata) ->
      let live = bytes_of blen (fun i -> if i / 64 mod 3 = 0 then 0 else (i mod 64) + (i / 64 mod 2)) in
      let cp = Fork.checkpoint (Fork.create ~page_size:64 ()) ~live_image:live in
      let writes =
        List.filter_map
          (fun (off, n, kind) ->
            let n = min n (len - off) in
            if n <= 0 then None
            else
              Some
                ( off,
                  Bytes.init n (fun i ->
                      match kind with
                      | 0 when off + i < blen -> Bytes.get live (off + i)
                      | 0 | 1 -> '\000'
                      | _ -> 'a') ))
          writes
      in
      (* the contract: every byte past the checkpoint's image is written *)
      let writes = if len > blen then (blen, Bytes.make (len - blen) 'z') :: writes else writes in
      let final = Bytes.make len '\000' in
      Bytes.blit live 0 final 0 (min blen len);
      List.iter (fun (off, b) -> Bytes.blit b 0 final off (Bytes.length b)) writes;
      let metadata = Bytes.of_string metadata in
      Fork.footprint cp ~patch:(len, writes) ~metadata
      = Fork.footprint cp ~patch:(whole (Bytes.cat final metadata)) ~metadata:Bytes.empty)

let test_checkpoint_stats_divergence () =
  let mgr = Fork.create ~page_size:64 () in
  let live = bytes_of 640 Fun.id in
  let cp = Fork.checkpoint mgr ~live_image:live in
  (* the live image moves on: 2 of 10 pages change *)
  let moved = Bytes.copy live in
  Bytes.set moved 0 '\xAA';
  Bytes.set moved 100 '\xBB';
  let unique, fraction = Fork.checkpoint_stats cp ~live_image:moved in
  Alcotest.(check int) "unique pages" 2 unique;
  Alcotest.(check (float 1e-9)) "fraction" 0.2 fraction

let suite =
  [ ("page split sizes", `Quick, test_page_split_sizes);
    ("page split empty", `Quick, test_page_split_empty);
    ("page count", `Quick, test_page_count);
    ("page id content-based", `Quick, test_page_id_content_based);
    ("dedup", `Quick, test_dedup);
    ("sharing between snapshots", `Quick, test_sharing_between_snapshots);
    ("refcount eviction", `Quick, test_refcount_eviction);
    ("double release rejected", `Quick, test_double_release_rejected);
    ("empty image", `Quick, test_empty_image);
    ("live snapshots", `Quick, test_live_snapshots);
    ("fork lifecycle", `Quick, test_fork_lifecycle);
    ("fork unchanged clone", `Quick, test_fork_unchanged_clone);
    ("fork grown clone", `Quick, test_fork_grown_clone);
    ("checkpoint stats divergence", `Quick, test_checkpoint_stats_divergence);
    QCheck_alcotest.to_alcotest prop_patch_matches_whole
  ]
