open Dice_inet
open Dice_bgp

module Spec = struct
  type role =
    | Customer
    | Provider
    | Peer

  let role_to_string = function
    | Customer -> "customer"
    | Provider -> "provider"
    | Peer -> "peer"

  type domain = {
    name : string;
    asn : int;
    speaker : string;
    prefixes : Prefix.t list;
    config : Config_types.t option;
  }

  type link = {
    a : string;
    b : string;
    a_role : role;
    b_role : role;
    addrs : (Ipv4.t * Ipv4.t) option;
    latency : float;
  }

  type t = { domains : domain list; links : link list }

  exception Parse_error of string

  let feed_as = 64700
  let default_latency = 0.005
  let max_domains = 4096
  let max_links = 16384

  let name_ok s =
    s <> ""
    && String.length s <= 32
    && String.for_all
         (fun c -> (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '_')
         s

  let domain ?(speaker = "bird") ?(prefixes = []) ?config name ~asn =
    if not (name_ok name) then
      invalid_arg (Printf.sprintf "Spec.domain: bad name %S (want [a-z0-9_]+)" name);
    if asn < 1 || asn > 0xFFFF_FFFF then
      invalid_arg (Printf.sprintf "Spec.domain %s: AS %d out of range" name asn);
    { name; asn; speaker; prefixes; config }

  let transit ?addrs ?(latency = default_latency) ~customer ~provider () =
    if customer = provider then
      invalid_arg (Printf.sprintf "Spec.transit: %s linked to itself" customer);
    { a = customer; b = provider; a_role = Customer; b_role = Provider; addrs; latency }

  let peering ?addrs ?(latency = default_latency) x y =
    if x = y then invalid_arg (Printf.sprintf "Spec.peering: %s linked to itself" x);
    { a = x; b = y; a_role = Peer; b_role = Peer; addrs; latency }

  let make ~domains ~links () =
    if domains = [] then invalid_arg "Spec.make: no domains";
    if List.length domains > max_domains then
      invalid_arg
        (Printf.sprintf "Spec.make: more than %d domains" max_domains);
    if List.length links > max_links then
      invalid_arg (Printf.sprintf "Spec.make: more than %d links" max_links);
    let seen = Hashtbl.create 64 and asns = Hashtbl.create 64 in
    List.iter
      (fun d ->
        if not (name_ok d.name) then
          invalid_arg (Printf.sprintf "Spec.make: bad domain name %S" d.name);
        if Hashtbl.mem seen d.name then
          invalid_arg (Printf.sprintf "Spec.make: duplicate domain %s" d.name);
        Hashtbl.add seen d.name ();
        if d.asn < 1 || d.asn > 0xFFFF_FFFF then
          invalid_arg (Printf.sprintf "Spec.make: %s: AS %d out of range" d.name d.asn);
        if Hashtbl.mem asns d.asn then
          invalid_arg (Printf.sprintf "Spec.make: duplicate AS %d (%s)" d.asn d.name);
        Hashtbl.add asns d.asn ();
        if not (List.mem d.speaker Dice_core.Speakers.names) then
          invalid_arg
            (Printf.sprintf "Spec.make: %s: unknown speaker %S" d.name d.speaker);
        let ps = Hashtbl.create 8 in
        List.iter
          (fun p ->
            if Hashtbl.mem ps p then
              invalid_arg
                (Printf.sprintf "Spec.make: %s: duplicate prefix %s" d.name
                   (Prefix.to_string p));
            Hashtbl.add ps p ())
          d.prefixes)
      domains;
    let pairs = Hashtbl.create 64 in
    List.iter
      (fun l ->
        if not (Hashtbl.mem seen l.a) then
          invalid_arg (Printf.sprintf "Spec.make: link endpoint %s is not a domain" l.a);
        if not (Hashtbl.mem seen l.b) then
          invalid_arg (Printf.sprintf "Spec.make: link endpoint %s is not a domain" l.b);
        if l.a = l.b then
          invalid_arg (Printf.sprintf "Spec.make: %s linked to itself" l.a);
        (match (l.a_role, l.b_role) with
        | Customer, Provider | Provider, Customer | Peer, Peer -> ()
        | _ ->
          invalid_arg
            (Printf.sprintf "Spec.make: link %s(%s) -- %s(%s): asymmetric roles" l.a
               (role_to_string l.a_role) l.b (role_to_string l.b_role)));
        let key = if l.a < l.b then (l.a, l.b) else (l.b, l.a) in
        if Hashtbl.mem pairs key then
          invalid_arg (Printf.sprintf "Spec.make: duplicate link %s -- %s" l.a l.b);
        Hashtbl.add pairs key ();
        if not (Float.is_finite l.latency) || l.latency < 0.0 then
          invalid_arg (Printf.sprintf "Spec.make: link %s -- %s: bad latency" l.a l.b))
      links;
    { domains; links }

  let find_domain t name = List.find_opt (fun d -> d.name = name) t.domains

  let find_domain_exn t name =
    match find_domain t name with
    | Some d -> d
    | None -> invalid_arg (Printf.sprintf "Spec: unknown domain %s" name)

  let domain_index t name =
    let rec go i = function
      | [] -> invalid_arg (Printf.sprintf "Spec: unknown domain %s" name)
      | d :: _ when d.name = name -> i
      | _ :: tl -> go (i + 1) tl
    in
    go 0 t.domains

  (* Address plan: three disjoint carve-outs of 10/8, so generated fleets
     never collide with hand-addressed specs living in 10.0-10.63.
       link i (auto)   10.(64 + i/256).(i mod 256).{1,2}
       feed, domain j  10.(128 + j/256).(j mod 256).1
       router-id, j    10.(160 + j/256).(j mod 256).1 *)
  let link_addrs t l =
    match l.addrs with
    | Some ab -> ab
    | None ->
      let rec index i = function
        | [] -> invalid_arg "Spec.link_addrs: link not in spec"
        | x :: _ when x == l || (x.a = l.a && x.b = l.b) -> i
        | _ :: tl -> index (i + 1) tl
      in
      let i = index 0 t.links in
      let o2 = 64 + (i / 256) and o3 = i mod 256 in
      (Ipv4.of_octets 10 o2 o3 1, Ipv4.of_octets 10 o2 o3 2)

  let feed_addr t name =
    let j = domain_index t name in
    Ipv4.of_octets 10 (128 + (j / 256)) (j mod 256) 1

  let router_id t name =
    let j = domain_index t name in
    Ipv4.of_octets 10 (160 + (j / 256)) (j mod 256) 1

  type neighbor = {
    peer_name : string;
    peer_role : role;
    my_addr : Ipv4.t;
    peer_addr : Ipv4.t;
    link_latency : float;
  }

  let neighbors t name =
    ignore (find_domain_exn t name);
    List.filter_map
      (fun l ->
        let aa, ba = link_addrs t l in
        if l.a = name then
          Some
            { peer_name = l.b; peer_role = l.b_role; my_addr = aa; peer_addr = ba;
              link_latency = l.latency }
        else if l.b = name then
          Some
            { peer_name = l.a; peer_role = l.a_role; my_addr = ba; peer_addr = aa;
              link_latency = l.latency }
        else None)
      t.links

  let address t ~of_ ~toward =
    let ns = neighbors t of_ in
    match List.find_opt (fun n -> n.peer_name = toward) ns with
    | Some n -> n.my_addr
    | None ->
      invalid_arg (Printf.sprintf "Spec.address: no link between %s and %s" of_ toward)

  (* Valley-free realization, as dialect-neutral intent (Gao-Rexford
     export rules). Import from each neighbor class tags the route with a
     relationship community and ranks it customer > peer > provider;
     export to a customer is open, export toward a peer or provider
     passes only customer-learned and self-originated routes. *)
  let c_customer = Community.make 65010 1
  let c_peer = Community.make 65010 2
  let c_provider = Community.make 65010 3

  let relationship_communities = [ c_customer; c_peer; c_provider ]

  let import_policy name tag lp =
    Intent.policy ~default:Intent.Deny name
      [ Intent.permit
          ~actions:
            [ Intent.Delete_community c_customer;
              Intent.Delete_community c_peer;
              Intent.Delete_community c_provider;
              Intent.Add_community tag;
              Intent.Set_local_pref lp ]
          () ]

  let intent_of t name =
    let d = find_domain_exn t name in
    let ns = neighbors t name in
    let exp_up =
      Intent.policy ~default:Intent.Deny "exp_up"
        [ Intent.permit ~matches:[ Intent.Has_community c_customer ] ();
          Intent.permit ~matches:[ Intent.Originated_by d.asn ] ();
          Intent.deny () ]
    in
    let policies =
      [ import_policy "imp_customer" c_customer 120;
        import_policy "imp_peer" c_peer 100;
        import_policy "imp_provider" c_provider 80;
        exp_up ]
    in
    let sessions =
      List.map
        (fun n ->
          let peer_asn = (find_domain_exn t n.peer_name).asn in
          let import, export =
            match n.peer_role with
            | Customer -> (Intent.Apply "imp_customer", Intent.Open)
            | Peer -> (Intent.Apply "imp_peer", Intent.Apply "exp_up")
            | Provider -> (Intent.Apply "imp_provider", Intent.Apply "exp_up")
          in
          Intent.session ("n_" ^ n.peer_name) ~neighbor:n.peer_addr
            ~remote_as:peer_asn ~import ~export)
        ns
      @ [ Intent.session "feed" ~neighbor:(feed_addr t name) ~remote_as:feed_as
            ~import:Intent.Open ~export:Intent.Block ]
    in
    let rid = router_id t name in
    Intent.make ~router_id:rid ~local_as:d.asn ~policies ~sessions
      ~statics:(List.map (fun p -> (p, rid)) d.prefixes)
      ()

  (* ---------------------------------------------------------------- *)
  (* Text format                                                       *)
  (* ---------------------------------------------------------------- *)

  let to_string t =
    let b = Buffer.create 1024 in
    Buffer.add_string b "topology {\n";
    List.iter
      (fun d ->
        Printf.bprintf b "  domain %s {\n" d.name;
        Printf.bprintf b "    as %d;\n" d.asn;
        Printf.bprintf b "    speaker %s;\n" d.speaker;
        List.iter (fun p -> Printf.bprintf b "    prefix %s;\n" (Prefix.to_string p)) d.prefixes;
        Buffer.add_string b "  }\n")
      t.domains;
    List.iter
      (fun l ->
        let lhs, op, rhs =
          match (l.a_role, l.b_role) with
          | Customer, Provider -> (l.a, "->", l.b)
          | Provider, Customer -> (l.b, "->", l.a)
          | _ -> (l.a, "--", l.b)
        in
        if l.latency = default_latency then Printf.bprintf b "  link %s %s %s;\n" lhs op rhs
        else Printf.bprintf b "  link %s %s %s latency %.6g;\n" lhs op rhs l.latency)
      t.links;
    Buffer.add_string b "}\n";
    Buffer.contents b

  let tokenize s =
    let toks = ref [] in
    let n = String.length s in
    let i = ref 0 in
    while !i < n do
      let c = s.[!i] in
      if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
      else if c = '#' then begin
        while !i < n && s.[!i] <> '\n' do incr i done
      end
      else if c = '{' || c = '}' || c = ';' then begin
        toks := String.make 1 c :: !toks;
        incr i
      end
      else begin
        let start = !i in
        while
          !i < n
          &&
          let c = s.[!i] in
          not
            (c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '{' || c = '}'
           || c = ';' || c = '#')
        do
          incr i
        done;
        toks := String.sub s start (!i - start) :: !toks
      end
    done;
    List.rev !toks

  let parse text =
    let toks = ref (tokenize text) in
    let peek () = match !toks with [] -> None | t :: _ -> Some t in
    let next what =
      match !toks with
      | [] -> raise (Parse_error (Printf.sprintf "unexpected end of input, wanted %s" what))
      | t :: tl ->
        toks := tl;
        t
    in
    let expect tok =
      let got = next (Printf.sprintf "%S" tok) in
      if got <> tok then
        raise (Parse_error (Printf.sprintf "expected %S, got %S" tok got))
    in
    let int_field what s =
      match int_of_string_opt s with
      | Some n -> n
      | None -> raise (Parse_error (Printf.sprintf "bad %s %S" what s))
    in
    let parse_domain () =
      let name = next "domain name" in
      expect "{";
      let asn = ref None and speaker = ref "bird" and prefixes = ref [] in
      let rec fields () =
        match next "domain field" with
        | "}" -> ()
        | "as" ->
          asn := Some (int_field "AS number" (next "AS number"));
          expect ";";
          fields ()
        | "speaker" ->
          speaker := next "speaker name";
          expect ";";
          fields ()
        | "prefix" ->
          let p = next "prefix" in
          (match Prefix.of_string_opt p with
          | Some p -> prefixes := p :: !prefixes
          | None -> raise (Parse_error (Printf.sprintf "bad prefix %S" p)));
          expect ";";
          fields ()
        | t -> raise (Parse_error (Printf.sprintf "unexpected %S in domain %s" t name))
      in
      fields ();
      match !asn with
      | None -> raise (Parse_error (Printf.sprintf "domain %s: missing \"as\"" name))
      | Some asn ->
        (try domain ~speaker:!speaker ~prefixes:(List.rev !prefixes) name ~asn
         with Invalid_argument m -> raise (Parse_error m))
    in
    let parse_link () =
      let x = next "link endpoint" in
      let op = next "link operator" in
      let y = next "link endpoint" in
      let latency =
        match peek () with
        | Some "latency" ->
          ignore (next "latency");
          let v = next "latency value" in
          (match float_of_string_opt v with
          | Some f -> f
          | None -> raise (Parse_error (Printf.sprintf "bad latency %S" v)))
        | _ -> default_latency
      in
      expect ";";
      try
        match op with
        | "->" -> transit ~latency ~customer:x ~provider:y ()
        | "--" -> peering ~latency x y
        | _ -> raise (Parse_error (Printf.sprintf "expected \"->\" or \"--\", got %S" op))
      with Invalid_argument m -> raise (Parse_error m)
    in
    expect "topology";
    expect "{";
    let domains = ref [] and links = ref [] in
    let rec body () =
      match next "\"domain\", \"link\" or \"}\"" with
      | "}" -> ()
      | "domain" ->
        domains := parse_domain () :: !domains;
        body ()
      | "link" ->
        links := parse_link () :: !links;
        body ()
      | t -> raise (Parse_error (Printf.sprintf "unexpected %S at top level" t))
    in
    body ();
    (match !toks with
    | [] -> ()
    | t :: _ -> raise (Parse_error (Printf.sprintf "trailing input at %S" t)));
    try make ~domains:(List.rev !domains) ~links:(List.rev !links) ()
    with Invalid_argument m -> raise (Parse_error m)

  let parse_file path = parse (In_channel.with_open_bin path In_channel.input_all)

  let equal a b = to_string a = to_string b
end
