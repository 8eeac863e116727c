(* Route-leak detection (paper §4.2): reproduce the Pakistan Telecom /
   YouTube incident in the testbed and show DiCE flagging the
   misconfiguration *before* a real hijack happens.

   The provider's customer-route filter is compared in three variants:
   correct, partially correct (the paper's scenario) and missing. The
   A1 ablation then explores the paper's scenario twice, symbolizing
   selected fields and the whole message (paper §3.2).

   Run with: dune exec examples/route_leak.exe *)

open Dice_inet
open Dice_bgp
open Dice_topology
open Dice_core

(* Figure-2 addressing, resolved through the topology spec *)
let tr_f2_spec = Threerouter.spec Threerouter.Correct
let tr_customer_addr = Topology.Spec.address tr_f2_spec ~of_:"customer" ~toward:"provider"


let explore_with ?(mode = Symbolize.Selective) filtering =
  let topo = Threerouter.build filtering in
  Threerouter.start topo;
  let trace =
    Dice_trace.Gen.generate
      { Dice_trace.Gen.default_params with n_prefixes = 3_000; duration = 60.0 }
  in
  ignore (Threerouter.load_table topo trace);
  let provider = Threerouter.provider_router topo in
  let cfg =
    { Orchestrator.default_cfg with
      Orchestrator.exploration =
        { Orchestrator.default_exploration with
          Orchestrator.mode;
          explorer =
            { Dice_concolic.Explorer.default_config with
              Dice_concolic.Explorer.max_runs = 256;
              max_depth = 96;
            };
        };
    }
  in
  let dice = Orchestrator.create ~cfg (Speakers.bird provider) in
  (* DiCE derives exploration inputs from a routine observed announcement *)
  let route =
    Route.make ~origin:Attr.Igp
      ~as_path:[ Asn.Path.Seq [ Threerouter.customer_as ] ]
      ~next_hop:tr_customer_addr ()
  in
  Orchestrator.observe dice ~peer:tr_customer_addr
    ~prefix:(Prefix.of_string "203.0.113.0/24")
    ~route;
  Orchestrator.explore dice

let () =
  print_endline "== route-leak detection across filter configurations ==\n";
  List.iter
    (fun filtering ->
      let report = explore_with filtering in
      let criticals =
        List.filter
          (fun (f : Checker.fault) -> f.severity = Checker.Critical)
          report.Orchestrator.faults
      in
      let warnings =
        List.filter
          (fun (f : Checker.fault) -> f.severity = Checker.Warning)
          report.Orchestrator.faults
      in
      Printf.printf "filtering=%-18s  hijackable ranges: %d   leaks: %d\n"
        (Threerouter.filtering_to_string filtering)
        (List.length criticals) (List.length warnings);
      List.iter
        (fun (f : Checker.fault) ->
          Printf.printf "    CRITICAL %s (%s)\n"
            (Prefix.to_string f.prefix)
            (match List.assoc_opt "trusted-origin" f.details with
            | Some o -> "trusted origin " ^ o
            | None -> f.description))
        criticals)
    [ Threerouter.Correct; Threerouter.Partially_correct; Threerouter.Missing ];
  print_endline
    "\nwith the correct filter DiCE finds nothing to leak; the partially\n\
     correct and missing filters expose hijackable prefix ranges that an\n\
     operator could now protect before any real announcement abuses them.";
  print_endline "\n== A1: selective vs whole-message symbolization (paper §3.2) ==\n";
  Printf.printf "%-16s %-12s %-16s %s\n" "mode" "executions" "reach-routing" "hijacks";
  List.iter
    (fun mode ->
      let report = explore_with ~mode Threerouter.Partially_correct in
      List.iter
        (fun (sr : Orchestrator.seed_report) ->
          let executions = sr.explorer.Dice_concolic.Explorer.executions in
          (* a selective input is always a valid message; a whole-message
             one reaches route processing only if it parses *)
          let reached =
            match mode with
            | Symbolize.Selective -> executions
            | Symbolize.Whole_message ->
              Option.value ~default:0 (List.assoc_opt "valid-update" sr.depth_counts)
          in
          let hijacks =
            List.length
              (List.filter (fun (f : Checker.fault) -> f.severity = Checker.Critical)
                 sr.faults)
          in
          Printf.printf "%-16s %-12d %-16s %d\n" (Symbolize.mode_to_string mode)
            executions
            (Printf.sprintf "%d (%.0f%%)" reached
               (100.0 *. float_of_int reached /. float_of_int (max 1 executions)))
            hijacks;
          if sr.depth_counts <> [] then
            Printf.printf "  parser depths: %s\n"
              (String.concat ", "
                 (List.map (fun (k, c) -> Printf.sprintf "%s=%d" k c) sr.depth_counts)))
        report.Orchestrator.seed_reports)
    [ Symbolize.Selective; Symbolize.Whole_message ]
