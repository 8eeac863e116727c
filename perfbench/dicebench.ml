(* Runs one workload and prints its result.

     dicebench.exe --workload NAME --seed N --seconds S --trace 0|1
                   [--trace-out FILE]

   The last line of standard output is the result object: [correct],
   [attempted], [failed] and [metrics] (end-to-end metrics untraced,
   per-layer metrics traced). The line before it, prefixed [# info],
   holds the run's facts and the verdict of every output check. Exits 1
   when a check failed. *)

open Common

let workloads =
  [ ("explore-live", Explore_live.run); ("panel-remote", Panel_remote.run);
    ("fleet-stream", Fleet_stream.run) ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and traced = ref 0
  and trace_out = ref "" in
  Arg.parse
    [ ( "--workload",
        Arg.Set_string workload,
        "NAME one of " ^ String.concat ", " (List.map fst workloads) );
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured time");
      ("--trace", Arg.Set_int traced, "0|1 record spans and report per-layer metrics");
      ("--trace-out", Arg.Set_string trace_out, "FILE where the traced run writes its spans") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "dicebench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let run =
    match List.assoc_opt !workload workloads with
    | Some run -> run
    | None ->
      prerr_endline ("dicebench: unknown workload " ^ !workload);
      exit 2
  in
  let tr = if !traced = 1 then Some (Perfbench.Btrace.create ()) else None in
  let o = run ~seed:!seed ~seconds:!seconds ~trace:tr in
  List.iter
    (fun m ->
      if not (Perfbench.Bstats.valid_name m.name && Perfbench.Bstats.valid_unit m.unit_) then begin
        prerr_endline ("dicebench: malformed metric " ^ m.name ^ " [" ^ m.unit_ ^ "]");
        exit 2
      end)
    o.metrics;
  (match tr with Some t when !trace_out <> "" -> Perfbench.Btrace.write t !trace_out | _ -> ());
  let correct = o.failed = 0 && List.for_all snd o.checks in
  print_endline
    ("# info "
    ^ Json.to_string
        (Json.obj
           ([ ("workload", Json.string !workload); ("seed", Json.int !seed);
              ("ocaml", Json.string Sys.ocaml_version);
              ("checks", Json.obj (List.map (fun (k, v) -> (k, Json.bool v)) o.checks)) ]
           @ o.info)));
  print_endline
    (Json.to_string
       (Json.obj
          [ ("correct", Json.bool correct); ("attempted", Json.int o.attempted);
            ("failed", Json.int o.failed);
            ( "metrics",
              Json.obj
                (List.map
                   (fun m ->
                     ( m.name,
                       Json.obj [ ("value", Json.float m.value); ("unit", Json.string m.unit_) ] ))
                   o.metrics) ) ]));
  exit (if correct then 0 else 1)
