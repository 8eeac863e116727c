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

(* ---- checkpoint chains ---- *)

(* a checkpoint carried forward through 200 patches that grow, cut and
   rewrite its image: each equals the patched bytes, its page ids are its
   image's, and dropping the last one leaves the store holding exactly
   the current checkpoint's distinct pages *)
let test_patch_chain_holds_one_snapshot () =
  let mgr = Fork.create ~page_size:64 () in
  let st = Fork.store mgr in
  let rng = Random.State.make [| 25 |] in
  (* repeated page contents, so pages are shared across positions *)
  let chunk n = Bytes.init n (fun i -> Char.chr (97 + ((i / 64) + Random.State.int rng 2) mod 3)) in
  let cp = ref (Fork.checkpoint mgr ~live_image:(chunk 1000)) in
  for round = 1 to 200 do
    let old = Fork.image !cp in
    let len = max 0 (Bytes.length old + Random.State.int rng 300 - 150) in
    let writes =
      List.filter_map
        (fun _ ->
          let off = Random.State.int rng (len + 1) in
          let n = min (len - off) (Random.State.int rng 200) in
          if n > 0 then Some (off, chunk n) else None)
        (List.init (Random.State.int rng 5) Fun.id)
    in
    let expected = Bytes.make len '\000' in
    Bytes.blit old 0 expected 0 (min len (Bytes.length old));
    List.iter (fun (off, b) -> Bytes.blit b 0 expected off (Bytes.length b)) writes;
    let next = Fork.checkpoint_patch !cp ~patch:(len, writes) in
    Fork.drop_checkpoint !cp;
    cp := next;
    let what = Printf.sprintf "round %d: " round in
    Alcotest.(check bytes) (what ^ "the patched image") expected (Fork.image next);
    Alcotest.(check (pair int (float 0.))) (what ^ "its pages are its image's") (0, 0.)
      (Fork.checkpoint_stats next ~live_image:expected);
    Alcotest.(check int) (what ^ "one live snapshot") 1 (Store.live_snapshots st);
    let distinct = Hashtbl.create 64 in
    List.iter
      (fun (id : Page.id) -> Hashtbl.replace distinct id ())
      (Page.split ~page_size:64 expected);
    Alcotest.(check int) (what ^ "no orphaned pages") (Hashtbl.length distinct)
      (Store.stored_pages st)
  done;
  Fork.drop_checkpoint !cp;
  Alcotest.(check int) "nothing resident" 0 (Store.stored_pages st)

module Speaker = Dice_core.Speaker
module Rib = Dice_bgp.Rib

let collector = Dice_inet.Ipv4.of_string "10.0.3.2"
let provider = Dice_inet.Ipv4.of_string "10.0.2.1"

let chain_config () =
  Dice_bgp.Config_parser.parse
    {|
    router id 10.0.2.2;
    local as 64700;
    protocol bgp collector { neighbor 10.0.3.2 as 64701; import all; export all; }
    protocol bgp provider { neighbor 10.0.2.1 as 64510; import all; export all; }
    |}

(* The orchestrator's checkpoint chain for one implementation, over 30
   episodes with live updates between them: announcements (some with
   80-AS paths, which spill past a BIRD slot), re-announcements that
   change an entry in place, and withdrawals, on a live speaker whose
   layout already has holes. Each chained image is a whole snapshot of a
   clone carrying the chain's layout, restores to the live table of its
   moment, and is paged by its own content; the first equals the plain
   snapshot of a clone, as do all of a linear image's. *)
let test_speaker_chain impl () =
  let rng = Random.State.make [| 31 |] in
  match Dice_core.Speakers.create_exn impl (Speaker.Config (chain_config ())) with
  | Speaker.Inst ((module M), real, live) ->
    M.establish live ~peer:collector;
    M.establish live ~peer:provider;
    let feed () =
      let prefix =
        Dice_inet.Prefix.of_string
          (Printf.sprintf "100.%d.%d.0/24" (Random.State.int rng 4) (Random.State.int rng 16))
      in
      let msg =
        if Random.State.int rng 4 = 0 then
          Dice_bgp.Msg.Update { withdrawn = [ prefix ]; attrs = []; nlri = [] }
        else
          let hops = if Random.State.int rng 8 = 0 then 80 else 1 + Random.State.int rng 3 in
          let route =
            Dice_bgp.Route.make ~origin:Dice_bgp.Attr.Igp
              ~as_path:
                [ Dice_inet.Asn.Path.Seq (64701 :: List.init hops (fun i -> 65000 + i)) ]
              ~next_hop:collector ()
          in
          Dice_bgp.Msg.Update
            { withdrawn = []; attrs = Dice_bgp.Route.to_attrs route; nlri = [ prefix ] }
      in
      ignore (M.feed live ~peer:collector msg)
    in
    for _ = 1 to 40 do feed () done;
    ignore (M.snapshot live);
    for _ = 1 to 20 do feed () done;
    let mgr = Fork.create () in
    let seed = M.clone live in
    let last = ref (seed, Fork.checkpoint mgr ~live_image:(M.snapshot seed)) in
    for episode = 1 to 30 do
      if episode > 1 then for _ = 1 to 1 + Random.State.int rng 6 do feed () done;
      let plain = M.snapshot (M.clone live) in
      let base = M.clone live in
      let prev, prev_cp = !last in
      let ((_, writes) as patch) = M.snapshot_patch ~base:prev base in
      let cp = Fork.checkpoint_patch prev_cp ~patch in
      Fork.drop_checkpoint prev_cp;
      last := (base, cp);
      let image = Fork.image cp in
      let what = Printf.sprintf "%s episode %d: " impl episode in
      Alcotest.(check bytes) (what ^ "a snapshot with the chain's layout")
        (M.snapshot (M.clone base)) image;
      if episode = 1 || impl <> "bird" then
        Alcotest.(check bytes) (what ^ "the plain snapshot") plain image
      else
        Alcotest.(check bool) (what ^ "written: less than the image") true
          (List.fold_left (fun n (_, b) -> n + Bytes.length b) 0 writes < Bytes.length image);
      Alcotest.(check int) (what ^ "restores to the live table") 0
        (List.length (Rib.Loc.diff (M.loc_rib (M.restore real image)) (M.loc_rib live)));
      Alcotest.(check (pair int (float 0.))) (what ^ "paged by its content") (0, 0.)
        (Fork.checkpoint_stats cp ~live_image:image);
      Alcotest.(check int) (what ^ "one live snapshot") 1 (Store.live_snapshots (Fork.store mgr))
    done

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
    QCheck_alcotest.to_alcotest prop_patch_matches_whole;
    ("patch chain holds one snapshot", `Quick, test_patch_chain_holds_one_snapshot)
  ]
  @ List.map
      (fun impl -> (impl ^ ": chained checkpoints are snapshots", `Quick, test_speaker_chain impl))
      Dice_core.Speakers.names
