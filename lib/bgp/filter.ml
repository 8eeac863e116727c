open Dice_inet

type prefix_pattern = { base : Prefix.t; low : int; high : int }

let pattern_matches pat p =
  let l = Prefix.len p in
  l >= pat.low && l <= pat.high
  &&
  let k = min (Prefix.len pat.base) l in
  Dice_inet.Ipv4.apply_mask (Prefix.network p) k = Ipv4.apply_mask (Prefix.network pat.base) k

let pp_pattern ppf pat =
  let bl = Prefix.len pat.base in
  if pat.low = bl && pat.high = bl then Prefix.pp ppf pat.base
  else if pat.low = bl && pat.high = 32 then Format.fprintf ppf "%a+" Prefix.pp pat.base
  else if pat.low = 0 && pat.high = bl then Format.fprintf ppf "%a-" Prefix.pp pat.base
  else Format.fprintf ppf "%a{%d,%d}" Prefix.pp pat.base pat.low pat.high

type cmpop =
  | Ceq
  | Cne
  | Clt
  | Cle
  | Cgt
  | Cge

type term =
  | Int_lit of int
  | Net_len
  | Local_pref_t
  | Med_t
  | Origin_t
  | Path_len
  | Neighbor_as
  | Origin_as
  | Source_as

type cond =
  | True
  | False
  | Cmp of cmpop * term * term
  | Match_net of prefix_pattern list
  | Path_has of int
  | Has_community of Community.t
  | And of cond * cond
  | Or of cond * cond
  | Not of cond

type stmt =
  | If of { site : string; cond : cond; then_ : stmt list; else_ : stmt list }
  | Accept
  | Reject
  | Set_local_pref of term
  | Set_med of term
  | Add_community of Community.t
  | Delete_community of Community.t
  | Prepend of int

type t = { name : string; body : stmt list }

type if_sites = { filter_name : string; mutable next : int }

let if_sites filter_name = { filter_name; next = 0 }

let mk_if sites cond then_ else_ =
  let k = sites.next in
  sites.next <- k + 1;
  If { site = Printf.sprintf "filter:%s:if%d" sites.filter_name k; cond; then_; else_ }

let accept_all name = { name; body = [ Accept ] }
let reject_all name = { name; body = [ Reject ] }

let cmpop_str = function
  | Ceq -> "="
  | Cne -> "!="
  | Clt -> "<"
  | Cle -> "<="
  | Cgt -> ">"
  | Cge -> ">="

let term_str = function
  | Int_lit n -> string_of_int n
  | Net_len -> "net.len"
  | Local_pref_t -> "bgp_local_pref"
  | Med_t -> "bgp_med"
  | Origin_t -> "bgp_origin"
  | Path_len -> "bgp_path.len"
  | Neighbor_as -> "bgp_path.first"
  | Origin_as -> "bgp_path.last"
  | Source_as -> "source_as"

let rec pp_cond ppf = function
  | True -> Format.fprintf ppf "true"
  | False -> Format.fprintf ppf "false"
  | Cmp (op, a, b) -> Format.fprintf ppf "%s %s %s" (term_str a) (cmpop_str op) (term_str b)
  | Match_net pats ->
    Format.fprintf ppf "net ~ [ %s ]"
      (String.concat ", " (List.map (fun p -> Format.asprintf "%a" pp_pattern p) pats))
  | Path_has asn -> Format.fprintf ppf "bgp_path ~ %d" asn
  | Has_community c -> Format.fprintf ppf "bgp_community ~ %s" (Community.to_string c)
  | And (a, b) -> Format.fprintf ppf "(%a && %a)" pp_cond a pp_cond b
  | Or (a, b) -> Format.fprintf ppf "(%a || %a)" pp_cond a pp_cond b
  | Not c -> Format.fprintf ppf "!(%a)" pp_cond c

let rec pp_stmt ppf = function
  | If { cond; then_; else_; _ } ->
    Format.fprintf ppf "@[<v 2>if %a then {@,%a@]@,}" pp_cond cond pp_body then_;
    if else_ <> [] then Format.fprintf ppf "@[<v 2> else {@,%a@]@,}" pp_body else_
  | Accept -> Format.fprintf ppf "accept;"
  | Reject -> Format.fprintf ppf "reject;"
  | Set_local_pref tm -> Format.fprintf ppf "bgp_local_pref = %s;" (term_str tm)
  | Set_med tm -> Format.fprintf ppf "bgp_med = %s;" (term_str tm)
  | Add_community c -> Format.fprintf ppf "bgp_community.add(%s);" (Community.to_string c)
  | Delete_community c ->
    Format.fprintf ppf "bgp_community.delete(%s);" (Community.to_string c)
  | Prepend n -> Format.fprintf ppf "bgp_path.prepend(%d);" n

and pp_body ppf body =
  Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_stmt ppf body

let pp ppf t = Format.fprintf ppf "@[<v 2>filter %s {@,%a@]@,}" t.name pp_body t.body
