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

type checkpoint = { st : Store.t; snap : Store.snapshot }

let checkpoint st ~live_image = { st; snap = Store.capture st live_image }

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

let footprint cp ~final_image =
  let final = Store.capture cp.st final_image in
  let pages = Store.snapshot_pages final in
  let unique = Store.unique_pages final ~relative_to:cp.snap in
  let unique_fraction = Store.unique_fraction final ~relative_to:cp.snap in
  let base = Store.snapshot_pages cp.snap in
  let extra_fraction = if base = 0 then 0.0 else float_of_int unique /. float_of_int base in
  Store.release final;
  { pages; unique; unique_fraction; extra_fraction }
