open Dice_inet
open Dice_bgp

let in_whitelist anycast prefix =
  List.exists (fun a -> Prefix.subsumes a prefix) anycast

let origin_of_entry (e : Rib.Loc.entry) = Route.origin_as e.Rib.Loc.route

let check (ctx : Checker.context) (outcome : Speaker.import_outcome) =
  if not outcome.Speaker.accepted then []
  else begin
    match outcome.Speaker.route with
    | None -> []
    | Some route -> begin
      let prefix = outcome.Speaker.prefix in
      if in_whitelist ctx.Checker.anycast prefix then []
      else begin
        let new_origin = Route.origin_as route in
        (* trusted pre-exploration routes covering the announced space *)
        let covering = Rib.Loc.covering prefix ctx.Checker.pre_loc_rib in
        let conflicting =
          List.filter
            (fun (_, e) ->
              match (origin_of_entry e, new_origin) with
              | Some old_as, Some new_as -> old_as <> new_as
              | Some _, None -> true
              | None, _ -> false)
            covering
        in
        let hijacks =
          List.map
            (fun (covered_prefix, e) ->
              let exact = Prefix.equal covered_prefix prefix in
              {
                Checker.checker = "origin-hijack";
                severity = Checker.Critical;
                prefix;
                description =
                  (if exact then "accepted announcement overrides the origin AS"
                   else "accepted more-specific announcement hijacks covering prefix");
                details =
                  [ ("existing-prefix", Prefix.to_string covered_prefix);
                    ( "trusted-origin",
                      match origin_of_entry e with
                      | Some a -> Asn.to_string a
                      | None -> "(local)" );
                    ( "explored-origin",
                      match new_origin with
                      | Some a -> Asn.to_string a
                      | None -> "(empty path)" );
                    ("via-peer", Ipv4.to_string ctx.Checker.peer);
                    ("peer-as", string_of_int ctx.Checker.peer_as);
                    ("installed", string_of_bool outcome.Speaker.installed);
                  ];
              })
            conflicting
        in
        (* filter-leak: accepted space nobody previously routed — the
           customer can inject arbitrary ranges through this session *)
        let leaks =
          if covering = [] && Rib.Loc.covered prefix ctx.Checker.pre_loc_rib = [] then
            [ {
                Checker.checker = "filter-leak";
                severity = Checker.Warning;
                prefix;
                description = "import policy accepts announcements for unheld address space";
                details =
                  [ ("via-peer", Ipv4.to_string ctx.Checker.peer);
                    ("peer-as", string_of_int ctx.Checker.peer_as);
                    ( "explored-origin",
                      match new_origin with
                      | Some a -> Asn.to_string a
                      | None -> "(empty path)" );
                  ];
              } ]
          else []
        in
        hijacks @ leaks
      end
    end
  end

let checker = { Checker.name = "origin-hijack"; check }

(* cross-implementation divergence reports describe how speakers
   disagree about an announcement, not address space an announcement
   could take over — they never make a range "leakable" *)
let divergence_checkers = [ "panel-tiebreak"; "panel-divergence" ]

let leakable_summary faults =
  let tbl : (Prefix.t, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (f : Checker.fault) ->
      if not (List.mem f.Checker.checker divergence_checkers) then begin
        let cur = Option.value (Hashtbl.find_opt tbl f.prefix) ~default:0 in
        Hashtbl.replace tbl f.prefix (cur + 1)
      end)
    faults;
  Hashtbl.fold (fun p c acc -> (p, c) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Prefix.compare a b)
