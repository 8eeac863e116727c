(* Concolic path exploration (paper Figure 1): watch the engine negate
   branch predicates one at a time and systematically cover the code paths
   of a BGP import filter.

   Run with: dune exec examples/coverage.exe *)

open Dice_bgp
open Dice_concolic

(* the three-pattern import filter of the F1 and A2 tables in
   EXPERIMENTS.md *)
let filter_text =
  {|
  if net ~ [ 10.0.0.0/8{8,24}, 172.16.0.0/12{12,24}, 192.168.0.0/16+ ] then {
    if bgp_med > 50 then {
      bgp_local_pref = 80;
      accept;
    }
    bgp_local_pref = 120;
    accept;
  }
  if bgp_origin = 2 then reject;
  accept;
  |}

let () =
  print_endline "== concolic exploration of a BGP filter ==";
  let filter = Config_parser.parse_filter ~name:"demo" filter_text in
  Format.printf "%a@.@." Filter.pp filter;
  let base_route =
    Route.make ~origin:Attr.Igp
      ~as_path:[ Dice_inet.Asn.Path.Seq [ 64501; 64502 ] ]
      ~med:(Some 10)
      ~next_hop:(Dice_inet.Ipv4.of_string "192.0.2.1")
      ()
  in
  let program ctx =
    let cr =
      Dice_core.Symbolize.croute ctx
        ~prefix:(Dice_inet.Prefix.of_string "10.1.2.0/24")
        ~route:base_route
    in
    (* MED is part of the symbolized inputs only when present; force it *)
    let cr =
      Croute.with_med cr (Engine.input ctx ~name:"med" ~width:32 ~default:10L)
    in
    ignore (Filter_interp.run ctx ~source_as:64501 ~local_as:64510 filter cr)
  in
  List.iter
    (fun strategy ->
      let config = { Explorer.default_config with Explorer.strategy; max_runs = 64 } in
      let report = Explorer.explore ~config program in
      Printf.printf "%-22s executions=%-4d paths=%-4d coverage=%5.1f%% divergences=%d\n"
        (Strategy.to_string strategy) report.Explorer.executions
        report.Explorer.distinct_paths
        (100.0 *. Explorer.coverage_ratio report)
        report.Explorer.divergences)
    [ Strategy.Dfs; Strategy.Generational; Strategy.Cover_new;
      Strategy.Random_negation 7L ];
  print_endline "";
  (* show the actual inputs DFS generated, Figure-1 style *)
  let report =
    Explorer.explore
      ~config:{ Explorer.default_config with Explorer.max_runs = 64 }
      program
  in
  print_endline "runs of the DFS exploration (negated predicates -> new inputs):";
  List.iter
    (fun (r : Explorer.run) ->
      Printf.printf "  run %-3d path-length=%-3d new-directions=%-2d %s\n" r.index
        r.path_length r.new_directions
        (String.concat ", "
           (List.map (fun (n, v) -> Printf.sprintf "%s=%Ld" n v) r.assignment)))
    report.Explorer.runs;
  Printf.printf "negations: %d attempted, %d sat, %d unsat, %d gave up\n"
    report.Explorer.negations_attempted report.Explorer.negations_sat
    report.Explorer.negations_unsat report.Explorer.negations_gave_up
