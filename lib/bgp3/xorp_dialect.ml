open Dice_inet
open Dice_bgp

let name = "xorp"

let quirks =
  [
    "the policy framework accepts routes no term matched: an unstated \
     policy default lets unmatched routes through";
    "terms evaluate in lexicographic name order, not file order: with \
     eleven or more rules t10 runs before t2";
  ]

(* ------------------------------------------------------------------ *)
(* Render                                                              *)
(* ------------------------------------------------------------------ *)

let pattern_str p = Format.asprintf "%a" Filter.pp_pattern p

let community_str c =
  Printf.sprintf "%d:%d" (Community.asn_part c) (Community.value_part c)

let render (intent : Intent.t) =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "# xorp dialect (rendered from intent)";
  line "policy {";
  List.iter
    (fun (set, pats) ->
      line "  network4_list %s {" set;
      List.iter (fun p -> line "    network %s;" (pattern_str p)) pats;
      line "  }")
    intent.Intent.prefix_sets;
  List.iter
    (fun (p : Intent.policy) ->
      line "  policy_statement %s {" p.policy_name;
      let term tname (matches : Intent.match_ list) (actions : Intent.action list)
          (decision : Intent.decision) =
        line "    term %s {" tname;
        if matches <> [] then begin
          line "      from {";
          List.iter
            (function
              | Intent.Prefixes set -> line "        network_list %s;" set
              | Intent.Transits n -> line "        as_path_contains %d;" n
              | Intent.Originated_by n -> line "        origin_as %d;" n
              | Intent.Path_longer_than n -> line "        path_length_gt %d;" n
              | Intent.Has_community c -> line "        community %s;" (community_str c))
            matches;
          line "      }"
        end;
        line "      then {";
        List.iter
          (function
            | Intent.Set_local_pref n -> line "        localpref %d;" n
            | Intent.Set_med n -> line "        med %d;" n
            | Intent.Add_community c -> line "        community_add %s;" (community_str c)
            | Intent.Delete_community c -> line "        community_del %s;" (community_str c)
            | Intent.Prepend n -> line "        prepend %d;" n)
          actions;
        line "        %s;" (match decision with Intent.Permit -> "accept" | Intent.Deny -> "reject");
        line "      }";
        line "    }"
      in
      List.iteri
        (fun i (r : Intent.rule) ->
          term (Printf.sprintf "t%d" (i + 1)) r.matches r.actions r.decision)
        p.rules;
      (* an unstated default renders as nothing: the policy framework's
         own default (accept) applies to routes no term matched *)
      (match p.default with
      | Some d -> term "zz_default" [] [] d
      | None -> ());
      line "  }")
    intent.policies;
  line "}";
  line "protocols {";
  line "  bgp {";
  line "    bgp_id %s;" (Ipv4.to_string intent.router_id);
  line "    local_as %d;" intent.local_as;
  List.iter
    (fun (s : Intent.session) ->
      line "    peer %s {" s.session_name;
      line "      neighbor %s;" (Ipv4.to_string s.neighbor);
      line "      as %d;" s.remote_as;
      let dir verb = function
        | Intent.Open -> line "      %s open;" verb
        | Intent.Block -> line "      %s block;" verb
        | Intent.Apply p -> line "      %s policy %s;" verb p
      in
      dir "import" s.import;
      dir "export" s.export;
      line "    }")
    intent.sessions;
  line "  }";
  if intent.statics <> [] then begin
    line "  static {";
    List.iter
      (fun (p, via) ->
        line "    route %s via %s;" (Prefix.to_string p) (Ipv4.to_string via))
      intent.statics;
    line "  }"
  end;
  line "}";
  List.iter (fun p -> line "anycast %s;" (Prefix.to_string p)) intent.anycast;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Parse                                                               *)
(* ------------------------------------------------------------------ *)

module L = Config_lexer
module T = Token_stream

type raw_term = { conds : Filter.cond list; stmts : Filter.stmt list }

let parse_from st =
  let net_lists = ref [] in
  T.expect st L.LBRACE "'{'";
  let conds = ref [] in
  let rec go () =
    if T.peek st = L.RBRACE then T.advance st
    else begin
      (match T.next st with
      | L.IDENT "network_list" -> net_lists := T.ident st "network-list name" :: !net_lists
      | L.IDENT "as_path_contains" -> conds := Filter.Path_has (T.int_ st "AS number") :: !conds
      | L.IDENT "origin_as" ->
        conds :=
          Filter.Cmp (Filter.Ceq, Filter.Origin_as, Filter.Int_lit (T.int_ st "AS number"))
          :: !conds
      | L.IDENT "path_length_gt" ->
        conds :=
          Filter.Cmp (Filter.Cgt, Filter.Path_len, Filter.Int_lit (T.int_ st "length"))
          :: !conds
      | L.IDENT "community" -> conds := Filter.Has_community (T.community st) :: !conds
      | tk -> T.fail st (Printf.sprintf "unexpected %s in from block" (L.token_to_string tk)));
      T.expect st L.SEMI "';'";
      go ()
    end
  in
  go ();
  (List.rev !net_lists, List.rev !conds)

let parse_then st =
  T.expect st L.LBRACE "'{'";
  let stmts = ref [] in
  let verdict = ref None in
  let rec go () =
    if T.peek st = L.RBRACE then T.advance st
    else begin
      (match T.next st with
      | L.IDENT "localpref" ->
        stmts := Filter.Set_local_pref (Filter.Int_lit (T.int_ st "value")) :: !stmts
      | L.IDENT "med" -> stmts := Filter.Set_med (Filter.Int_lit (T.int_ st "value")) :: !stmts
      | L.IDENT "community_add" -> stmts := Filter.Add_community (T.community st) :: !stmts
      | L.IDENT "community_del" -> stmts := Filter.Delete_community (T.community st) :: !stmts
      | L.IDENT "prepend" -> stmts := Filter.Prepend (T.int_ st "prepend count") :: !stmts
      | L.IDENT "accept" -> verdict := Some Filter.Accept
      | L.IDENT "reject" -> verdict := Some Filter.Reject
      | tk -> T.fail st (Printf.sprintf "unexpected %s in then block" (L.token_to_string tk)));
      T.expect st L.SEMI "';'";
      go ()
    end
  in
  go ();
  match !verdict with
  | Some v -> List.rev !stmts @ [ v ]
  | None -> T.fail st "term has no accept/reject"

let parse_policy_statement st ~net_lists ~taken =
  let pname = T.ident st "policy-statement name" in
  if List.exists (fun (f : Filter.t) -> f.Filter.name = pname) taken then
    T.fail st (Printf.sprintf "duplicate policy_statement %S" pname);
  T.expect st L.LBRACE "'{'";
  let terms = ref [] in
  let rec go () =
    if T.peek st = L.RBRACE then T.advance st
    else begin
      T.expect_ident st "term";
      let tname = T.ident st "term name" in
      T.expect st L.LBRACE "'{'";
      let froms = ref ([], []) in
      let thens = ref None in
      let rec term_items () =
        if T.peek st = L.RBRACE then T.advance st
        else begin
          (match T.next st with
          | L.IDENT "from" -> froms := parse_from st
          | L.IDENT "then" -> thens := Some (parse_then st)
          | tk -> T.fail st (Printf.sprintf "unexpected %s in term" (L.token_to_string tk)));
          term_items ()
        end
      in
      term_items ();
      let lists, conds = !froms in
      let conds =
        List.map
          (fun l ->
            match List.assoc_opt l net_lists with
            | Some pats -> Filter.Match_net pats
            | None -> T.fail st (Printf.sprintf "unknown network4_list %S" l))
          lists
        @ conds
      in
      (match !thens with
      | Some stmts -> terms := (tname, { conds; stmts }) :: !terms
      | None -> T.fail st (Printf.sprintf "term %s has no then block" tname));
      go ()
    end
  in
  go ();
  (* XORP quirk: terms live in a name-keyed map, so evaluation order is
     lexicographic in the term name, whatever order the file wrote. *)
  let terms = List.sort (fun (a, _) (b, _) -> String.compare a b) (List.rev !terms) in
  let sites = Filter.if_sites pname in
  let rec body = function
    | [] -> [ Filter.Accept ] (* XORP quirk: unmatched routes pass *)
    | (_, { conds = []; stmts }) :: _ -> stmts
    | (_, { conds = c :: cs; stmts }) :: rest ->
      let cond = List.fold_left (fun acc c -> Filter.And (acc, c)) c cs in
      Filter.mk_if sites cond stmts [] :: body rest
  in
  { Filter.name = pname; body = body terms }

let parse_policy_block st ~taken =
  T.expect st L.LBRACE "'{'";
  let net_lists = ref [] in
  let statements = ref [] in
  let rec go () =
    if T.peek st = L.RBRACE then T.advance st
    else begin
      (match T.next st with
      | L.IDENT "network4_list" ->
        let lname = T.ident st "network-list name" in
        T.expect st L.LBRACE "'{'";
        let pats = ref [] in
        let rec nets () =
          if T.peek st = L.RBRACE then T.advance st
          else begin
            T.expect_ident st "network";
            pats := T.pattern st :: !pats;
            T.expect st L.SEMI "';'";
            nets ()
          end
        in
        nets ();
        net_lists := (lname, List.rev !pats) :: !net_lists
      | L.IDENT "policy_statement" ->
        statements :=
          parse_policy_statement st ~net_lists:!net_lists ~taken:(taken @ !statements)
          :: !statements
      | tk -> T.fail st (Printf.sprintf "unexpected %s in policy block" (L.token_to_string tk)));
      go ()
    end
  in
  go ();
  List.rev !statements

(* Config_types.make refuses a second peer with a taken name or
   neighbor, as it refuses a taken policy name; refuse them here, at the
   second declaration, so [parse] keeps its Parse_error contract *)
let parse_peer st ~filters ~(taken : Config_types.peer_cfg list) =
  let pname = T.ident st "peer name" in
  if List.exists (fun p -> p.Config_types.name = pname) taken then
    T.fail st (Printf.sprintf "duplicate peer %S" pname);
  T.expect st L.LBRACE "'{'";
  let neighbor = ref None in
  let remote_as = ref None in
  let import = ref Config_types.All in
  let export = ref Config_types.All in
  let policy_of () =
    match T.next st with
    | L.IDENT "open" -> Config_types.All
    | L.IDENT "block" -> Config_types.Nothing
    | L.IDENT "policy" -> begin
      let n = T.ident st "policy name" in
      match List.find_opt (fun (f : Filter.t) -> f.Filter.name = n) filters with
      | Some f -> Config_types.Use_filter f
      | None -> T.fail st (Printf.sprintf "unknown policy %S" n)
    end
    | tk -> T.fail st (Printf.sprintf "expected open/block/policy, got %s" (L.token_to_string tk))
  in
  let rec go () =
    if T.peek st = L.RBRACE then T.advance st
    else begin
      (match T.next st with
      | L.IDENT "neighbor" ->
        let addr = T.ip st "neighbor address" in
        if List.exists (fun p -> p.Config_types.neighbor = addr) taken then
          T.fail st (Printf.sprintf "duplicate neighbor %s" (Ipv4.to_string addr));
        neighbor := Some addr
      | L.IDENT "as" -> remote_as := Some (T.int_ st "AS number")
      | L.IDENT "import" -> import := policy_of ()
      | L.IDENT "export" -> export := policy_of ()
      | tk -> T.fail st (Printf.sprintf "unexpected %s in peer" (L.token_to_string tk)));
      T.expect st L.SEMI "';'";
      go ()
    end
  in
  go ();
  match (!neighbor, !remote_as) with
  | Some neighbor, Some remote_as ->
    {
      (Config_types.default_peer ~name:pname ~neighbor ~remote_as) with
      Config_types.import_policy = !import;
      export_policy = !export;
    }
  | _ -> T.fail st (Printf.sprintf "peer %s: missing neighbor or as" pname)

let parse src =
  let st = T.of_string src in
  let filters = ref [] in
  let peers = ref [] in
  let statics = ref [] in
  let anycast = ref [] in
  let router_id = ref None in
  let local_as = ref None in
  let rec bgp_items () =
    if T.peek st = L.RBRACE then T.advance st
    else begin
      (match T.next st with
      | L.IDENT "bgp_id" ->
        router_id := Some (T.ip st "router id");
        T.expect st L.SEMI "';'"
      | L.IDENT "local_as" ->
        local_as := Some (T.int_ st "AS number");
        T.expect st L.SEMI "';'"
      | L.IDENT "peer" -> peers := parse_peer st ~filters:!filters ~taken:!peers :: !peers
      | tk -> T.fail st (Printf.sprintf "unexpected %s in bgp block" (L.token_to_string tk)));
      bgp_items ()
    end
  in
  let rec static_items () =
    if T.peek st = L.RBRACE then T.advance st
    else begin
      T.expect_ident st "route";
      let p = T.prefix st "static route prefix" in
      T.expect_ident st "via";
      let via = T.ip st "next hop" in
      T.expect st L.SEMI "';'";
      statics := (p, via) :: !statics;
      static_items ()
    end
  in
  let rec protocols () =
    if T.peek st = L.RBRACE then T.advance st
    else begin
      (match T.next st with
      | L.IDENT "bgp" ->
        T.expect st L.LBRACE "'{'";
        bgp_items ()
      | L.IDENT "static" ->
        T.expect st L.LBRACE "'{'";
        static_items ()
      | tk -> T.fail st (Printf.sprintf "unexpected %s in protocols" (L.token_to_string tk)));
      protocols ()
    end
  in
  let rec top () =
    if T.at_eof st then ()
    else begin
      (match T.next st with
      | L.IDENT "policy" -> filters := !filters @ parse_policy_block st ~taken:!filters
      | L.IDENT "protocols" ->
        T.expect st L.LBRACE "'{'";
        protocols ()
      | L.IDENT "anycast" ->
        anycast := T.prefix st "anycast prefix" :: !anycast;
        T.expect st L.SEMI "';'"
      | tk -> T.fail st (Printf.sprintf "unexpected %s at top level" (L.token_to_string tk)));
      top ()
    end
  in
  top ();
  match (!router_id, !local_as) with
  | Some router_id, Some local_as ->
    Config_types.make ~router_id ~local_as ~peers:(List.rev !peers)
      ~static_routes:(List.rev !statics) ~filters:!filters
      ~anycast:(List.rev !anycast) ()
  | None, _ -> T.fail st "missing 'bgp_id'"
  | _, None -> T.fail st "missing 'local_as'"
