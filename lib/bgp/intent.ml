open Dice_inet

type match_ =
  | Prefixes of string
  | Transits of int
  | Originated_by of int
  | Path_longer_than of int
  | Has_community of Community.t

type action =
  | Set_local_pref of int
  | Set_med of int
  | Add_community of Community.t
  | Delete_community of Community.t
  | Prepend of int

type decision =
  | Permit
  | Deny

type rule = {
  matches : match_ list;
  actions : action list;
  decision : decision;
}

type policy = {
  policy_name : string;
  rules : rule list;
  default : decision option;
}

type peering =
  | Open
  | Block
  | Apply of string

type session = {
  session_name : string;
  neighbor : Ipv4.t;
  remote_as : int;
  import : peering;
  export : peering;
}

type t = {
  router_id : Ipv4.t;
  local_as : int;
  prefix_sets : (string * Filter.prefix_pattern list) list;
  policies : policy list;
  sessions : session list;
  statics : (Prefix.t * Ipv4.t) list;
  anycast : Prefix.t list;
}

(* ------------------------------------------------------------------ *)
(* Smart constructors                                                  *)
(* ------------------------------------------------------------------ *)

let bad fmt = Printf.ksprintf invalid_arg ("Intent: " ^^ fmt)

let name_ok s =
  String.length s > 0
  && (match s.[0] with 'a' .. 'z' | '_' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | '0' .. '9' | '_' -> true | _ -> false)
       s

let check_name what s = if not (name_ok s) then bad "%s %S: names are [a-z0-9_]+" what s

let check_as what n =
  if n < 1 || n > 0xFFFFFFFF then bad "%s: AS %d out of range [1, 2^32)" what n

let check_match = function
  | Prefixes s -> check_name "prefix-set reference" s
  | Transits n -> check_as "transit match" n
  | Originated_by n -> check_as "origin match" n
  | Path_longer_than n -> if n < 0 then bad "path_longer %d: bound must be >= 0" n
  | Has_community _ -> ()

let check_action = function
  | Set_local_pref n -> if n < 0 then bad "local_pref %d: must be >= 0" n
  | Set_med n -> if n < 0 then bad "med %d: must be >= 0" n
  | Add_community _ | Delete_community _ -> ()
  | Prepend n -> if n < 0 || n > 16 then bad "prepend %d: count outside [0, 16]" n

let rule ?(matches = []) ?(actions = []) decision =
  List.iter check_match matches;
  List.iter check_action actions;
  if decision = Deny && actions <> [] then
    bad "a deny rule carries actions: denied routes have no attributes to rewrite";
  { matches; actions; decision }

let permit ?matches ?actions () = rule ?matches ?actions Permit
let deny ?matches () = rule ?matches Deny

let policy ?default name rules =
  check_name "policy" name;
  { policy_name = name; rules; default }

let session ?(import = Open) ?(export = Open) name ~neighbor ~remote_as =
  check_name "session" name;
  check_as (Printf.sprintf "session %s" name) remote_as;
  { session_name = name; neighbor; remote_as; import; export }

let dup_by what key l =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun x ->
      let k = key x in
      if Hashtbl.mem seen k then bad "duplicate %s %S" what k;
      Hashtbl.add seen k ())
    l

let find_policy t name = List.find_opt (fun p -> p.policy_name = name) t.policies

let find_prefix_set t name =
  Option.map snd (List.find_opt (fun (n, _) -> n = name) t.prefix_sets)

let make ~router_id ~local_as ?(prefix_sets = []) ?(policies = []) ?(sessions = [])
    ?(statics = []) ?(anycast = []) () =
  check_as "local_as" local_as;
  List.iter
    (fun (name, pats) ->
      check_name "prefix_set" name;
      if pats = [] then bad "prefix_set %S is empty" name)
    prefix_sets;
  List.iter (fun p -> check_name "policy" p.policy_name) policies;
  dup_by "prefix_set" fst prefix_sets;
  dup_by "policy" (fun p -> p.policy_name) policies;
  dup_by "session" (fun s -> s.session_name) sessions;
  dup_by "session neighbor" (fun s -> Ipv4.to_string s.neighbor) sessions;
  let t = { router_id; local_as; prefix_sets; policies; sessions; statics; anycast } in
  (* dangling references *)
  List.iter
    (fun p ->
      List.iter
        (fun r ->
          List.iter
            (function
              | Prefixes s when find_prefix_set t s = None ->
                bad "policy %S references unknown prefix_set %S" p.policy_name s
              | _ -> ())
            r.matches)
        p.rules)
    policies;
  List.iter
    (fun s ->
      let check = function
        | Apply name when find_policy t name = None ->
          bad "session %S applies unknown policy %S" s.session_name name
        | Open | Block | Apply _ -> ()
      in
      check s.import;
      check s.export)
    sessions;
  t

(* ------------------------------------------------------------------ *)
(* Reference semantics                                                 *)
(* ------------------------------------------------------------------ *)

let match_holds t ~path ~communities prefix = function
  | Prefixes name ->
    let pats = Option.value (find_prefix_set t name) ~default:[] in
    List.exists (fun pat -> Filter.pattern_matches pat prefix) pats
  | Transits n -> List.mem n path
  | Originated_by n -> ( match List.rev path with last :: _ -> last = n | [] -> false)
  | Path_longer_than n -> List.length path > n
  | Has_community c -> List.mem c communities

let eval_policy t p ~unstated ~path ~communities prefix =
  let rec go = function
    | [] ->
      (match Option.value p.default ~default:unstated with Permit -> true | Deny -> false)
    | r :: rest ->
      if List.for_all (match_holds t ~path ~communities prefix) r.matches then
        r.decision = Permit
      else go rest
  in
  go p.rules

(* ------------------------------------------------------------------ *)
(* Reference compilation                                               *)
(* ------------------------------------------------------------------ *)

let cond_of_match t = function
  | Prefixes name -> Filter.Match_net (Option.value (find_prefix_set t name) ~default:[])
  | Transits n -> Filter.Path_has n
  | Originated_by n -> Filter.Cmp (Filter.Ceq, Filter.Origin_as, Filter.Int_lit n)
  | Path_longer_than n -> Filter.Cmp (Filter.Cgt, Filter.Path_len, Filter.Int_lit n)
  | Has_community c -> Filter.Has_community c

let cond_of_matches t = function
  | [] -> Filter.True
  | m :: rest ->
    List.fold_left (fun acc m -> Filter.And (acc, cond_of_match t m)) (cond_of_match t m) rest

let stmt_of_action = function
  | Set_local_pref n -> Filter.Set_local_pref (Filter.Int_lit n)
  | Set_med n -> Filter.Set_med (Filter.Int_lit n)
  | Add_community c -> Filter.Add_community c
  | Delete_community c -> Filter.Delete_community c
  | Prepend n -> Filter.Prepend n

let terminal = function Permit -> Filter.Accept | Deny -> Filter.Reject

(* First-match chains compile to a flat sequence of [if matched then
   { actions; accept/reject }] statements: the terminal inside the hit
   arm stops execution, so written order is first-match order. A rule
   with no predicates decides unconditionally — anything after it is
   unreachable and not emitted. *)
let filter_of_policy t ~unstated (p : policy) =
  let sites = Filter.if_sites p.policy_name in
  let rec stmts = function
    | [] -> [ terminal (Option.value p.default ~default:unstated) ]
    | r :: rest ->
      let arm = List.map stmt_of_action r.actions @ [ terminal r.decision ] in
      if r.matches = [] then arm
      else Filter.mk_if sites (cond_of_matches t r.matches) arm [] :: stmts rest
  in
  { Filter.name = p.policy_name; body = stmts p.rules }

let compile ~unstated t =
  let filters = List.map (filter_of_policy t ~unstated) t.policies in
  let resolve = function
    | Open -> Config_types.All
    | Block -> Config_types.Nothing
    | Apply name -> begin
      match List.find_opt (fun (f : Filter.t) -> f.Filter.name = name) filters with
      | Some f -> Config_types.Use_filter f
      | None -> bad "unknown policy %S" name (* unreachable after make *)
    end
  in
  let peers =
    List.map
      (fun s ->
        { (Config_types.default_peer ~name:s.session_name ~neighbor:s.neighbor
             ~remote_as:s.remote_as)
          with
          Config_types.import_policy = resolve s.import;
          export_policy = resolve s.export;
        })
      t.sessions
  in
  Config_types.make ~router_id:t.router_id ~local_as:t.local_as ~peers
    ~static_routes:t.statics ~filters ~anycast:t.anycast ()

(* ------------------------------------------------------------------ *)
(* Text format                                                         *)
(* ------------------------------------------------------------------ *)

let community_str c =
  Printf.sprintf "%d:%d" (Community.asn_part c) (Community.value_part c)

let match_str = function
  | Prefixes s -> "match prefixes " ^ s
  | Transits n -> Printf.sprintf "match transit %d" n
  | Originated_by n -> Printf.sprintf "match origin %d" n
  | Path_longer_than n -> Printf.sprintf "match path_longer %d" n
  | Has_community c -> "match community " ^ community_str c

let action_str = function
  | Set_local_pref n -> Printf.sprintf "set local_pref %d" n
  | Set_med n -> Printf.sprintf "set med %d" n
  | Add_community c -> "add community " ^ community_str c
  | Delete_community c -> "delete community " ^ community_str c
  | Prepend n -> Printf.sprintf "prepend %d" n

let decision_str = function Permit -> "permit" | Deny -> "deny"

let peering_str = function
  | Open -> "open"
  | Block -> "block"
  | Apply name -> "policy " ^ name

let to_string t =
  let b = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "intent {";
  line "  router_id %s;" (Ipv4.to_string t.router_id);
  line "  local_as %d;" t.local_as;
  List.iter
    (fun (name, pats) ->
      line "  prefix_set %s [ %s ];" name
        (String.concat ", "
           (List.map (fun p -> Format.asprintf "%a" Filter.pp_pattern p) pats)))
    t.prefix_sets;
  List.iter
    (fun p ->
      line "  policy %s {" p.policy_name;
      List.iter
        (fun r ->
          line "    rule %s {%s%s }" (decision_str r.decision)
            (String.concat "" (List.map (fun m -> " " ^ match_str m ^ ";") r.matches))
            (String.concat "" (List.map (fun a -> " " ^ action_str a ^ ";") r.actions)))
        p.rules;
      (match p.default with
      | Some d -> line "    default %s;" (decision_str d)
      | None -> ());
      line "  }")
    t.policies;
  List.iter
    (fun s ->
      line "  session %s { neighbor %s as %d; import %s; export %s; }" s.session_name
        (Ipv4.to_string s.neighbor) s.remote_as (peering_str s.import)
        (peering_str s.export))
    t.sessions;
  List.iter
    (fun (p, via) -> line "  static %s via %s;" (Prefix.to_string p) (Ipv4.to_string via))
    t.statics;
  List.iter (fun p -> line "  anycast %s;" (Prefix.to_string p)) t.anycast;
  line "}";
  Buffer.contents b

let pp ppf t = Format.pp_print_string ppf (to_string t)

(* -- parsing: same lexer as the BIRD-style config language -- *)

module L = Config_lexer
module T = Token_stream

let peek = T.peek
let advance = T.advance
let next = T.next
let fail = T.fail
let expect = T.expect
let expect_ident = T.expect_ident
let parse_int = T.int_
let parse_ip = T.ip
let parse_name = T.ident
let parse_prefix = T.prefix
let parse_community st = T.community st
let parse_pattern_list st = T.pattern_list st

let parse_decision st =
  match next st with
  | L.IDENT "permit" -> Permit
  | L.IDENT "deny" -> Deny
  | tk -> fail st (Printf.sprintf "expected permit/deny, got %s" (L.token_to_string tk))

let parse_rule st =
  let decision = parse_decision st in
  expect st L.LBRACE "'{'";
  let matches = ref [] in
  let actions = ref [] in
  let rec go () =
    if peek st = L.RBRACE then advance st
    else begin
      (match next st with
      | L.IDENT "match" -> begin
        match next st with
        | L.IDENT "prefixes" -> matches := Prefixes (parse_name st "prefix-set name") :: !matches
        | L.IDENT "transit" -> matches := Transits (parse_int st "AS number") :: !matches
        | L.IDENT "origin" -> matches := Originated_by (parse_int st "AS number") :: !matches
        | L.IDENT "path_longer" ->
          matches := Path_longer_than (parse_int st "path length") :: !matches
        | L.IDENT "community" -> matches := Has_community (parse_community st) :: !matches
        | tk ->
          fail st
            (Printf.sprintf "unknown match kind %s (prefixes/transit/origin/path_longer/community)"
               (L.token_to_string tk))
      end
      | L.IDENT "set" -> begin
        match next st with
        | L.IDENT "local_pref" -> actions := Set_local_pref (parse_int st "value") :: !actions
        | L.IDENT "med" -> actions := Set_med (parse_int st "value") :: !actions
        | tk -> fail st (Printf.sprintf "unknown attribute %s" (L.token_to_string tk))
      end
      | L.IDENT "add" ->
        expect_ident st "community";
        actions := Add_community (parse_community st) :: !actions
      | L.IDENT "delete" ->
        expect_ident st "community";
        actions := Delete_community (parse_community st) :: !actions
      | L.IDENT "prepend" -> actions := Prepend (parse_int st "prepend count") :: !actions
      | tk -> fail st (Printf.sprintf "unexpected %s in rule" (L.token_to_string tk)));
      expect st L.SEMI "';'";
      go ()
    end
  in
  go ();
  rule ~matches:(List.rev !matches) ~actions:(List.rev !actions) decision

let parse_policy_decl st =
  let name = parse_name st "policy name" in
  expect st L.LBRACE "'{'";
  let rules = ref [] in
  let default = ref None in
  let rec go () =
    if peek st = L.RBRACE then advance st
    else begin
      (match next st with
      | L.IDENT "rule" -> rules := parse_rule st :: !rules
      | L.IDENT "default" ->
        default := Some (parse_decision st);
        expect st L.SEMI "';'"
      | tk -> fail st (Printf.sprintf "unexpected %s in policy" (L.token_to_string tk)));
      go ()
    end
  in
  go ();
  policy ?default:!default name (List.rev !rules)

let parse_peering st =
  match next st with
  | L.IDENT "open" -> Open
  | L.IDENT "block" -> Block
  | L.IDENT "policy" -> Apply (parse_name st "policy name")
  | tk -> fail st (Printf.sprintf "expected open/block/policy, got %s" (L.token_to_string tk))

let parse_session_decl st =
  let name = parse_name st "session name" in
  expect st L.LBRACE "'{'";
  let neighbor = ref None in
  let remote_as = ref None in
  let import = ref Open in
  let export = ref Open in
  let rec go () =
    if peek st = L.RBRACE then advance st
    else begin
      (match next st with
      | L.IDENT "neighbor" ->
        neighbor := Some (parse_ip st "neighbor address");
        expect_ident st "as";
        remote_as := Some (parse_int st "AS number")
      | L.IDENT "import" -> import := parse_peering st
      | L.IDENT "export" -> export := parse_peering st
      | tk -> fail st (Printf.sprintf "unexpected %s in session" (L.token_to_string tk)));
      expect st L.SEMI "';'";
      go ()
    end
  in
  go ();
  match (!neighbor, !remote_as) with
  | Some neighbor, Some remote_as ->
    session ~import:!import ~export:!export name ~neighbor ~remote_as
  | _ -> fail st (Printf.sprintf "session %s: missing neighbor" name)

let parse src =
  let st = T.of_string src in
  expect_ident st "intent";
  expect st L.LBRACE "'{'";
  let router_id = ref None in
  let local_as = ref None in
  let prefix_sets = ref [] in
  let policies = ref [] in
  let sessions = ref [] in
  let statics = ref [] in
  let anycast = ref [] in
  let rec go () =
    if peek st = L.RBRACE then advance st
    else begin
      (match next st with
      | L.IDENT "router_id" ->
        router_id := Some (parse_ip st "router id");
        expect st L.SEMI "';'"
      | L.IDENT "local_as" ->
        local_as := Some (parse_int st "AS number");
        expect st L.SEMI "';'"
      | L.IDENT "prefix_set" ->
        let name = parse_name st "prefix-set name" in
        let pats = parse_pattern_list st in
        expect st L.SEMI "';'";
        prefix_sets := (name, pats) :: !prefix_sets
      | L.IDENT "policy" -> policies := parse_policy_decl st :: !policies
      | L.IDENT "session" -> sessions := parse_session_decl st :: !sessions
      | L.IDENT "static" ->
        let p = parse_prefix st "static route prefix" in
        expect_ident st "via";
        let via = parse_ip st "next hop" in
        expect st L.SEMI "';'";
        statics := (p, via) :: !statics
      | L.IDENT "anycast" ->
        anycast := parse_prefix st "anycast prefix" :: !anycast;
        expect st L.SEMI "';'"
      | tk -> fail st (Printf.sprintf "unexpected %s in intent" (L.token_to_string tk)));
      go ()
    end
  in
  go ();
  if peek st <> L.EOF then fail st "trailing input after intent block";
  match (!router_id, !local_as) with
  | Some router_id, Some local_as ->
    make ~router_id ~local_as ~prefix_sets:(List.rev !prefix_sets)
      ~policies:(List.rev !policies) ~sessions:(List.rev !sessions)
      ~statics:(List.rev !statics) ~anycast:(List.rev !anycast) ()
  | None, _ -> fail st "missing 'router_id'"
  | _, None -> fail st "missing 'local_as'"

let parse_file path = parse (In_channel.with_open_bin path In_channel.input_all)
