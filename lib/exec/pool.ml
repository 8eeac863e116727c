let available_parallelism () = max 1 (Domain.recommended_domain_count ())

(* [run ~jobs f] runs [f 0 .. f (jobs-1)], one domain each, and joins
   them all before re-raising the first failure. *)
let run ~jobs f =
  let failures = Array.make jobs None in
  let domains =
    List.init jobs (fun w ->
        Domain.spawn (fun () ->
            try f w
            with exn ->
              (* captured in the worker, where the original trace still
                 exists — [raise] after the join would rebuild it from
                 the joining domain's (useless) stack *)
              let bt = Printexc.get_raw_backtrace () in
              failures.(w) <- Some (exn, bt)))
  in
  List.iter Domain.join domains;
  Array.iter
    (function
      | Some (exn, bt) -> Printexc.raise_with_backtrace exn bt
      | None -> ())
    failures

let map ~jobs f items =
  let arr = Array.of_list items in
  let n = Array.length arr in
  let jobs = max 1 (min jobs n) in
  if jobs = 1 then List.map f items
  else begin
    let results = Array.make n None in
    let cursor = Atomic.make 0 in
    run ~jobs (fun _w ->
        let rec loop () =
          let i = Atomic.fetch_and_add cursor 1 in
          if i < n then begin
            results.(i) <- Some (f arr.(i));
            loop ()
          end
        in
        loop ());
    Array.to_list results
    |> List.map (function
         | Some r -> r
         | None -> assert false (* every index was claimed and completed *))
  end
