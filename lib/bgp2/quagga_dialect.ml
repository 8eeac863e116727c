open Dice_inet
open Dice_bgp

let name = "quagga"

let quirks =
  [
    "route-maps end in an implicit deny: an unstated policy default drops \
     unmatched routes";
    "prefix-list entries cannot match prefixes shorter than the listed \
     network: pattern lower bounds clamp up to the mask length";
  ]

let fail line msg = raise (Config_parser.Parse_error { line; msg })

(* ------------------------------------------------------------------ *)
(* Render                                                              *)
(* ------------------------------------------------------------------ *)

let community_str c =
  Printf.sprintf "%d:%d" (Community.asn_part c) (Community.value_part c)

(* The clamp quirk lives here: ge below the mask length is not
   expressible in a prefix-list entry, so the bound rises to the mask. *)
let entry_str (p : Filter.prefix_pattern) =
  let bl = Prefix.len p.base in
  let low = max p.low bl in
  if low = bl && p.high = bl then Prefix.to_string p.base
  else Printf.sprintf "%s ge %d le %d" (Prefix.to_string p.base) low p.high

(* Numbered match lists are allocated per (policy, rule) use site. *)
type lists = {
  mutable aspath : (int * [ `Transit of int | `Origin of int ]) list;
  mutable comm : (int * Community.t) list;
  mutable next : int;
}

let alloc l =
  let k = l.next in
  l.next <- k + 1;
  k

let block_rm = "rm_block_all"

let render (intent : Intent.t) =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "! quagga dialect (rendered from intent)";
  List.iter
    (fun (set, pats) ->
      List.iteri
        (fun i p -> line "ip prefix-list %s seq %d permit %s" set ((i + 1) * 5) (entry_str p))
        pats)
    intent.Intent.prefix_sets;
  let lists = { aspath = []; comm = []; next = 1 } in
  (* allocate the numbered lists in rule order so the text reads top down *)
  let rm_lines = Buffer.create 512 in
  let rm fmt = Printf.ksprintf (fun s -> Buffer.add_string rm_lines (s ^ "\n")) fmt in
  List.iter
    (fun (p : Intent.policy) ->
      let emit_rule i (r : Intent.rule) =
        rm "route-map %s %s %d" p.policy_name
          (match r.decision with Intent.Permit -> "permit" | Intent.Deny -> "deny")
          ((i + 1) * 10);
        List.iter
          (function
            | Intent.Prefixes set -> rm " match ip address prefix-list %s" set
            | Intent.Transits n ->
              let k = alloc lists in
              lists.aspath <- (k, `Transit n) :: lists.aspath;
              rm " match as-path %d" k
            | Intent.Originated_by n ->
              let k = alloc lists in
              lists.aspath <- (k, `Origin n) :: lists.aspath;
              rm " match as-path %d" k
            | Intent.Path_longer_than n -> rm " match as-path-length gt %d" n
            | Intent.Has_community c ->
              let k = alloc lists in
              lists.comm <- (k, c) :: lists.comm;
              rm " match community %d" k)
          r.matches;
        List.iter
          (function
            | Intent.Set_local_pref n -> rm " set local-preference %d" n
            | Intent.Set_med n -> rm " set metric %d" n
            | Intent.Add_community c -> rm " set community %s additive" (community_str c)
            | Intent.Delete_community c ->
              let k = alloc lists in
              lists.comm <- (k, c) :: lists.comm;
              rm " set comm-list %d delete" k
            | Intent.Prepend n ->
              if n > 0 then
                rm " set as-path prepend%s"
                  (String.concat ""
                     (List.init n (fun _ -> Printf.sprintf " %d" intent.local_as))))
          r.actions
      in
      List.iteri emit_rule p.rules;
      (* Quagga quirk: the implicit deny at route-map end stands in for
         both an explicit Deny default and an unstated one; only an
         explicit Permit default needs its own catch-all entry. *)
      match p.default with
      | Some Intent.Permit -> rm "route-map %s permit 65535" p.policy_name
      | Some Intent.Deny | None -> ())
    intent.policies;
  List.iter
    (fun (k, spec) ->
      match spec with
      | `Transit n -> line "ip as-path access-list %d permit _%d_" k n
      | `Origin n -> line "ip as-path access-list %d permit _%d$" k n)
    (List.rev lists.aspath);
  List.iter
    (fun (k, c) -> line "bgp community-list %d permit %s" k (community_str c))
    (List.rev lists.comm);
  Buffer.add_buffer b rm_lines;
  let needs_block =
    List.exists
      (fun (s : Intent.session) -> s.import = Intent.Block || s.export = Intent.Block)
      intent.sessions
  in
  if needs_block then line "route-map %s deny 10" block_rm;
  line "router bgp %d" intent.local_as;
  line " bgp router-id %s" (Ipv4.to_string intent.router_id);
  List.iter
    (fun (s : Intent.session) ->
      let ip = Ipv4.to_string s.neighbor in
      line " neighbor %s remote-as %d" ip s.remote_as;
      line " neighbor %s description %s" ip s.session_name;
      let dir verb = function
        | Intent.Open -> ()
        | Intent.Block -> line " neighbor %s route-map %s %s" ip block_rm verb
        | Intent.Apply p -> line " neighbor %s route-map %s %s" ip p verb
      in
      dir "in" s.import;
      dir "out" s.export)
    intent.sessions;
  List.iter (fun p -> line " bgp anycast %s" (Prefix.to_string p)) intent.anycast;
  List.iter
    (fun (p, via) ->
      line "ip route %s %s" (Prefix.to_string p) (Ipv4.to_string via))
    intent.statics;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Parse                                                               *)
(* ------------------------------------------------------------------ *)

type raw_entry = { seq : int; pat : Filter.prefix_pattern }

type raw_seq = {
  rseq : int;
  rpermit : bool;
  mutable rmatches : (int * string list) list;  (* line, words after "match" *)
  mutable rsets : (int * string list) list;
}

type raw_neighbor = {
  mutable remote_as : int option;
  mutable descr : (int * string) option;  (* line, session name *)
  mutable rm_in : string option;
  mutable rm_out : string option;
}

let int_of ln s what =
  match int_of_string_opt s with
  | Some n -> n
  | None -> fail ln (Printf.sprintf "expected %s, got %S" what s)

let ip_of ln s =
  match Ipv4.of_string_opt s with
  | Some a -> a
  | None -> fail ln (Printf.sprintf "expected an address, got %S" s)

let prefix_of ln s =
  match Prefix.of_string_opt s with
  | Some p -> p
  | None -> fail ln (Printf.sprintf "expected a prefix, got %S" s)

let community_of ln s =
  match String.index_opt s ':' with
  | Some i ->
    let a = int_of ln (String.sub s 0 i) "community AS part" in
    let v = int_of ln (String.sub s (i + 1) (String.length s - i - 1)) "community value" in
    if a < 0 || a > 0xFFFF || v < 0 || v > 0xFFFF then
      fail ln "community parts must be in 0..65535";
    Community.make a v
  | None -> fail ln (Printf.sprintf "expected a:b community, got %S" s)

let parse src =
  let prefix_lists : (string, raw_entry list ref) Hashtbl.t = Hashtbl.create 8 in
  let aspath_lists : (int, [ `Transit of int | `Origin of int ]) Hashtbl.t =
    Hashtbl.create 8
  in
  let comm_lists : (int, Community.t) Hashtbl.t = Hashtbl.create 8 in
  let route_maps : (string, raw_seq list ref) Hashtbl.t = Hashtbl.create 8 in
  let rm_order : string list ref = ref [] in
  let neighbors : (Ipv4.t, raw_neighbor) Hashtbl.t = Hashtbl.create 8 in
  let nb_order : Ipv4.t list ref = ref [] in
  let local_as = ref None in
  let router_id = ref None in
  let statics = ref [] in
  let anycast = ref [] in
  let cur_rm : raw_seq option ref = ref None in
  let get tbl order key mk =
    match Hashtbl.find_opt tbl key with
    | Some v -> v
    | None ->
      let v = mk () in
      Hashtbl.add tbl key v;
      order := key :: !order;
      v
  in
  let handle ln words =
    match words with
    | [] -> ()
    | "ip" :: "prefix-list" :: set :: "seq" :: seq :: "permit" :: rest ->
      cur_rm := None;
      let seq = int_of ln seq "sequence number" in
      let pat =
        match rest with
        | [ p ] ->
          let base = prefix_of ln p in
          { Filter.base; low = Prefix.len base; high = Prefix.len base }
        | [ p; "ge"; lo; "le"; hi ] ->
          let base = prefix_of ln p in
          let low = int_of ln lo "ge bound" and high = int_of ln hi "le bound" in
          if low < Prefix.len base || low > high || high > 32 then
            fail ln "prefix-list bounds must satisfy masklen <= ge <= le <= 32";
          { Filter.base; low; high }
        | [ p; "ge"; lo ] ->
          let base = prefix_of ln p in
          let low = int_of ln lo "ge bound" in
          if low < Prefix.len base then fail ln "ge below the mask length";
          { Filter.base; low; high = 32 }
        | [ p; "le"; hi ] ->
          let base = prefix_of ln p in
          { Filter.base; low = Prefix.len base; high = int_of ln hi "le bound" }
        | _ -> fail ln "malformed prefix-list entry"
      in
      let l = get prefix_lists (ref []) set (fun () -> ref []) in
      l := { seq; pat } :: !l
    | [ "ip"; "as-path"; "access-list"; k; "permit"; re ] ->
      cur_rm := None;
      let k = int_of ln k "access-list number" in
      let n = String.length re in
      if n >= 3 && re.[0] = '_' && re.[n - 1] = '_' then
        Hashtbl.replace aspath_lists k
          (`Transit (int_of ln (String.sub re 1 (n - 2)) "AS number"))
      else if n >= 2 && re.[0] = '_' && re.[n - 1] = '$' then
        Hashtbl.replace aspath_lists k
          (`Origin (int_of ln (String.sub re 1 (n - 2)) "AS number"))
      else fail ln (Printf.sprintf "unsupported as-path regex %S (_N_ or _N$)" re)
    | [ "bgp"; "community-list"; k; "permit"; c ] ->
      cur_rm := None;
      Hashtbl.replace comm_lists (int_of ln k "community-list number") (community_of ln c)
    | [ "route-map"; rm; verdict; seq ] ->
      let rpermit =
        match verdict with
        | "permit" -> true
        | "deny" -> false
        | _ -> fail ln (Printf.sprintf "expected permit/deny, got %S" verdict)
      in
      let s = { rseq = int_of ln seq "sequence number"; rpermit; rmatches = []; rsets = [] } in
      let l = get route_maps rm_order rm (fun () -> ref []) in
      l := s :: !l;
      cur_rm := Some s
    | "match" :: rest -> begin
      match !cur_rm with
      | Some s -> s.rmatches <- (ln, rest) :: s.rmatches
      | None -> fail ln "match outside a route-map entry"
    end
    | "set" :: rest -> begin
      match !cur_rm with
      | Some s -> s.rsets <- (ln, rest) :: s.rsets
      | None -> fail ln "set outside a route-map entry"
    end
    | "router" :: "bgp" :: asn :: [] ->
      cur_rm := None;
      local_as := Some (int_of ln asn "AS number")
    | [ "bgp"; "router-id"; ip ] -> router_id := Some (ip_of ln ip)
    | [ "bgp"; "anycast"; p ] -> anycast := prefix_of ln p :: !anycast
    | "neighbor" :: ip :: rest -> begin
      cur_rm := None;
      let ip = ip_of ln ip in
      let nb =
        get neighbors nb_order ip (fun () ->
            { remote_as = None; descr = None; rm_in = None; rm_out = None })
      in
      match rest with
      | [ "remote-as"; asn ] -> nb.remote_as <- Some (int_of ln asn "AS number")
      | [ "description"; d ] -> nb.descr <- Some (ln, d)
      | [ "route-map"; rm; "in" ] -> nb.rm_in <- Some rm
      | [ "route-map"; rm; "out" ] -> nb.rm_out <- Some rm
      | _ -> fail ln "malformed neighbor line"
    end
    | [ "ip"; "route"; p; via ] ->
      cur_rm := None;
      statics := (prefix_of ln p, ip_of ln via) :: !statics
    | w :: _ -> fail ln (Printf.sprintf "unexpected %S" w)
  in
  List.iteri
    (fun i raw ->
      let text =
        match String.index_opt raw '!' with
        | Some j -> String.sub raw 0 j
        | None -> raw
      in
      handle (i + 1)
        (List.filter (fun w -> w <> "") (String.split_on_char ' ' (String.trim text))))
    (String.split_on_char '\n' src);
  (* resolve route-maps into filters *)
  let filter_of_rm rm_name =
    let seqs =
      List.sort
        (fun a b -> compare a.rseq b.rseq)
        !(Hashtbl.find route_maps rm_name)
    in
    let cond_of (ln, words) =
      match words with
      | [ "ip"; "address"; "prefix-list"; set ] ->
        let entries =
          match Hashtbl.find_opt prefix_lists set with
          | Some l -> List.sort (fun a b -> compare a.seq b.seq) !l
          | None -> fail ln (Printf.sprintf "unknown prefix-list %S" set)
        in
        Filter.Match_net (List.map (fun e -> e.pat) entries)
      | [ "as-path"; k ] -> begin
        match Hashtbl.find_opt aspath_lists (int_of ln k "access-list number") with
        | Some (`Transit n) -> Filter.Path_has n
        | Some (`Origin n) -> Filter.Cmp (Filter.Ceq, Filter.Origin_as, Filter.Int_lit n)
        | None -> fail ln (Printf.sprintf "unknown as-path access-list %s" k)
      end
      | [ "as-path-length"; "gt"; n ] ->
        Filter.Cmp (Filter.Cgt, Filter.Path_len, Filter.Int_lit (int_of ln n "length"))
      | [ "community"; k ] -> begin
        match Hashtbl.find_opt comm_lists (int_of ln k "community-list number") with
        | Some c -> Filter.Has_community c
        | None -> fail ln (Printf.sprintf "unknown community-list %s" k)
      end
      | _ -> fail ln "unsupported match clause"
    in
    let stmt_of (ln, words) =
      match words with
      | [ "local-preference"; n ] ->
        Filter.Set_local_pref (Filter.Int_lit (int_of ln n "value"))
      | [ "metric"; n ] -> Filter.Set_med (Filter.Int_lit (int_of ln n "value"))
      | [ "community"; c; "additive" ] -> Filter.Add_community (community_of ln c)
      | [ "comm-list"; k; "delete" ] -> begin
        match Hashtbl.find_opt comm_lists (int_of ln k "community-list number") with
        | Some c -> Filter.Delete_community c
        | None -> fail ln (Printf.sprintf "unknown community-list %s" k)
      end
      | "as-path" :: "prepend" :: asns -> Filter.Prepend (List.length asns)
      | _ -> fail ln "unsupported set clause"
    in
    let sites = Filter.if_sites rm_name in
    let rec body = function
      | [] -> [ Filter.Reject ] (* the implicit deny *)
      | s :: rest ->
        let verdict = if s.rpermit then Filter.Accept else Filter.Reject in
        let arm = List.map stmt_of (List.rev s.rsets) @ [ verdict ] in
        (match List.rev s.rmatches with
        | [] -> arm (* a matchless entry decides every route *)
        | m :: ms ->
          let cond =
            List.fold_left (fun acc m -> Filter.And (acc, cond_of m)) (cond_of m) ms
          in
          Filter.mk_if sites cond arm [] :: body rest)
    in
    { Filter.name = rm_name; body = body seqs }
  in
  let filters = List.map filter_of_rm (List.rev !rm_order) in
  let policy_of ln = function
    | None -> Config_types.All
    | Some rm -> (
      match List.find_opt (fun (f : Filter.t) -> f.Filter.name = rm) filters with
      | Some f -> Config_types.Use_filter f
      | None -> fail ln (Printf.sprintf "unknown route-map %S" rm))
  in
  let peers =
    List.rev_map
      (fun ip ->
        let nb = Hashtbl.find neighbors ip in
        match nb.remote_as with
        | None -> fail 0 (Printf.sprintf "neighbor %s has no remote-as" (Ipv4.to_string ip))
        | Some remote_as ->
          let name =
            match nb.descr with
            | Some (_, d) -> d
            | None -> "peer_" ^ Ipv4.to_string ip
          in
          {
            (Config_types.default_peer ~name ~neighbor:ip ~remote_as) with
            Config_types.import_policy = policy_of 0 nb.rm_in;
            export_policy = policy_of 0 nb.rm_out;
          })
      !nb_order
  in
  (* Session names must be distinct. A default name [peer_<ip>] is unique
     per neighbor, so a clash always involves a description: report the
     first description line that takes a name already in use. *)
  let taken = Hashtbl.create 8 in
  let described =
    List.filter_map
      (fun ip ->
        match (Hashtbl.find neighbors ip).descr with
        | Some d -> Some d
        | None ->
          Hashtbl.replace taken ("peer_" ^ Ipv4.to_string ip) ();
          None)
      !nb_order
  in
  List.iter
    (fun (ln, d) ->
      if Hashtbl.mem taken d then fail ln (Printf.sprintf "duplicate neighbor name %S" d);
      Hashtbl.replace taken d ())
    (List.sort compare described);
  match (!router_id, !local_as) with
  | Some router_id, Some local_as ->
    Config_types.make ~router_id ~local_as ~peers ~static_routes:(List.rev !statics)
      ~filters ~anycast:(List.rev !anycast) ()
  | None, _ -> fail 0 "missing 'bgp router-id'"
  | _, None -> fail 0 "missing 'router bgp <as>'"
