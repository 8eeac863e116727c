(* Tests for Dice_inet.Prefix_trie, including a model-based qcheck suite
   comparing against a naive association list. *)
open Dice_inet
module T = Prefix_trie

let p = Prefix.of_string

let of_pairs l = T.of_list (List.map (fun (s, v) -> (p s, v)) l)

let test_empty () =
  Alcotest.(check bool) "is_empty" true (T.is_empty T.empty);
  Alcotest.(check int) "cardinal" 0 (T.cardinal T.empty);
  Alcotest.(check bool) "find" true (T.find_opt (p "10.0.0.0/8") T.empty = None);
  Alcotest.(check bool) "lpm" true (T.longest_match 0 T.empty = None)

let test_add_find () =
  let t = of_pairs [ ("10.0.0.0/8", 1); ("10.0.0.0/16", 2); ("192.168.0.0/16", 3) ] in
  Alcotest.(check (option int)) "/8" (Some 1) (T.find_opt (p "10.0.0.0/8") t);
  Alcotest.(check (option int)) "/16" (Some 2) (T.find_opt (p "10.0.0.0/16") t);
  Alcotest.(check (option int)) "other" (Some 3) (T.find_opt (p "192.168.0.0/16") t);
  Alcotest.(check (option int)) "absent" None (T.find_opt (p "10.0.0.0/24") t);
  Alcotest.(check int) "cardinal" 3 (T.cardinal t)

let test_replace () =
  let t = T.add (p "10.0.0.0/8") 2 (of_pairs [ ("10.0.0.0/8", 1) ]) in
  Alcotest.(check (option int)) "replaced" (Some 2) (T.find_opt (p "10.0.0.0/8") t);
  Alcotest.(check int) "no duplicate" 1 (T.cardinal t)

let test_default_route () =
  let t = of_pairs [ ("0.0.0.0/0", 99); ("10.0.0.0/8", 1) ] in
  Alcotest.(check (option int)) "default" (Some 99) (T.find_opt Prefix.default t);
  match T.longest_match (Ipv4.of_string "200.0.0.1") t with
  | Some (q, 99) -> Alcotest.(check string) "lpm default" "0.0.0.0/0" (Prefix.to_string q)
  | _ -> Alcotest.fail "expected default route"

let test_remove () =
  let t = of_pairs [ ("10.0.0.0/8", 1); ("10.0.0.0/16", 2) ] in
  let t = T.remove (p "10.0.0.0/8") t in
  Alcotest.(check (option int)) "removed" None (T.find_opt (p "10.0.0.0/8") t);
  Alcotest.(check (option int)) "sibling stays" (Some 2) (T.find_opt (p "10.0.0.0/16") t);
  Alcotest.(check int) "cardinal" 1 (T.cardinal t)

let test_remove_absent () =
  let t = of_pairs [ ("10.0.0.0/8", 1) ] in
  let t' = T.remove (p "11.0.0.0/8") t in
  Alcotest.(check int) "unchanged" 1 (T.cardinal t')

let test_longest_match () =
  let t = of_pairs [ ("10.0.0.0/8", 1); ("10.1.0.0/16", 2); ("10.1.2.0/24", 3) ] in
  let lpm a =
    match T.longest_match (Ipv4.of_string a) t with
    | Some (_, v) -> Some v
    | None -> None
  in
  Alcotest.(check (option int)) "deepest" (Some 3) (lpm "10.1.2.200");
  Alcotest.(check (option int)) "mid" (Some 2) (lpm "10.1.3.1");
  Alcotest.(check (option int)) "top" (Some 1) (lpm "10.200.0.1");
  Alcotest.(check (option int)) "miss" None (lpm "11.0.0.1")

let test_covering () =
  let t = of_pairs [ ("10.0.0.0/8", 1); ("10.1.0.0/16", 2); ("10.1.2.0/24", 3) ] in
  let names q = List.map (fun (x, _) -> Prefix.to_string x) (T.covering (p q) t) in
  Alcotest.(check (list string)) "all covering incl exact"
    [ "10.0.0.0/8"; "10.1.0.0/16"; "10.1.2.0/24" ]
    (names "10.1.2.0/24");
  Alcotest.(check (list string)) "covering of a /25"
    [ "10.0.0.0/8"; "10.1.0.0/16"; "10.1.2.0/24" ]
    (names "10.1.2.0/25");
  Alcotest.(check (list string)) "sibling /24 not covering" [ "10.0.0.0/8"; "10.1.0.0/16" ]
    (names "10.1.3.0/24");
  Alcotest.(check (list string)) "none" [] (names "11.0.0.0/24")

let test_covered () =
  let t = of_pairs [ ("10.0.0.0/8", 1); ("10.1.0.0/16", 2); ("10.1.2.0/24", 3); ("11.0.0.0/8", 4) ] in
  let names q = List.map (fun (x, _) -> Prefix.to_string x) (T.covered (p q) t) in
  Alcotest.(check (list string)) "subtree" [ "10.1.0.0/16"; "10.1.2.0/24" ] (names "10.1.0.0/16");
  Alcotest.(check (list string)) "all under /8"
    [ "10.0.0.0/8"; "10.1.0.0/16"; "10.1.2.0/24" ]
    (names "10.0.0.0/8");
  Alcotest.(check (list string)) "none" [] (names "12.0.0.0/8")

let test_to_list_sorted () =
  let t = of_pairs [ ("192.168.0.0/16", 1); ("10.0.0.0/8", 2); ("10.0.0.0/16", 3) ] in
  Alcotest.(check (list string)) "prefix order"
    [ "10.0.0.0/8"; "10.0.0.0/16"; "192.168.0.0/16" ]
    (List.map (fun (x, _) -> Prefix.to_string x) (T.to_list t))

let test_update () =
  let t = of_pairs [ ("10.0.0.0/8", 1) ] in
  let t = T.update (p "10.0.0.0/8") (fun v -> Option.map (( + ) 10) v) t in
  Alcotest.(check (option int)) "updated" (Some 11) (T.find_opt (p "10.0.0.0/8") t);
  let t = T.update (p "10.0.0.0/8") (fun _ -> None) t in
  Alcotest.(check bool) "deleted" true (T.is_empty t);
  let t = T.update (p "1.0.0.0/8") (fun _ -> Some 5) t in
  Alcotest.(check (option int)) "inserted" (Some 5) (T.find_opt (p "1.0.0.0/8") t)

let test_map_filter () =
  let t = of_pairs [ ("10.0.0.0/8", 1); ("11.0.0.0/8", 2) ] in
  let doubled = T.map (( * ) 2) t in
  Alcotest.(check (option int)) "mapped" (Some 4) (T.find_opt (p "11.0.0.0/8") doubled);
  let odd = T.filter (fun _ v -> v mod 2 = 1) t in
  Alcotest.(check int) "filtered" 1 (T.cardinal odd)

let test_equal () =
  let a = of_pairs [ ("10.0.0.0/8", 1); ("11.0.0.0/8", 2) ] in
  let b = of_pairs [ ("11.0.0.0/8", 2); ("10.0.0.0/8", 1) ] in
  Alcotest.(check bool) "insertion-order independent" true (T.equal Int.equal a b);
  Alcotest.(check bool) "value-sensitive" false
    (T.equal Int.equal a (T.add (p "10.0.0.0/8") 9 b))

let test_descent_reaches_bound_nodes () =
  let t = of_pairs [ ("10.0.0.0/8", 1); ("10.1.0.0/16", 2); ("10.1.2.0/24", 3) ] in
  let visited = T.descent (Ipv4.of_string "10.1.2.7") t in
  let bound = List.filter snd visited |> List.map (fun (q, _) -> Prefix.to_string q) in
  Alcotest.(check (list string)) "all containing bound nodes visited"
    [ "10.0.0.0/8"; "10.1.0.0/16"; "10.1.2.0/24" ]
    bound

let test_descent_stops_at_mismatch () =
  let t = of_pairs [ ("10.0.0.0/8", 1) ] in
  let visited = T.descent (Ipv4.of_string "11.0.0.0") t in
  (* root node 10/8 does not contain the address; it is still reported *)
  Alcotest.(check int) "visits the mismatching node" 1 (List.length visited)

(* ---- model-based property tests ---- *)

(* One generator for every property: networks over the whole 32-bit space
   (so the high-order bits are exercised), the /0 and /32 lengths drawn
   often, and about half the prefixes clustered under a few random bases
   per case, so nested and forking prefixes keep occurring. A property's
   case generator is built from the prefix and address generators of one
   draw of bases. *)
let gen_case (f : Prefix.t QCheck.Gen.t -> Ipv4.t QCheck.Gen.t -> 'a QCheck.Gen.t) =
  let open QCheck.Gen in
  let word = int_range 0 0xFFFFFFFF in
  list_size (int_range 1 3) word >>= fun bases ->
  let addr =
    frequency [ (1, word); (1, map2 (fun b low -> b lxor low) (oneofl bases) (int_bound 0xFFF)) ]
  in
  let len = frequency [ (1, return 0); (1, return 32); (6, int_range 0 32) ] in
  f (map2 Prefix.make addr len) addr

let print_prefixes l = QCheck.Print.list Prefix.to_string l

let print_op = function
  | `Add (q, v) -> Printf.sprintf "add %s %d" (Prefix.to_string q) v
  | `Remove q -> "remove " ^ Prefix.to_string q
  | `Find q -> "find " ^ Prefix.to_string q
  | `Lpm a -> "lpm " ^ Ipv4.to_string a
  | `Descent a -> "descent " ^ Ipv4.to_string a

let arb_ops =
  QCheck.make ~print:(QCheck.Print.list print_op)
    (gen_case (fun prefix addr ->
         let open QCheck.Gen in
         list_size (int_range 0 60)
           (oneof
              [ map2 (fun q v -> `Add (q, v)) prefix small_int;
                map (fun q -> `Remove q) prefix;
                map (fun q -> `Find q) prefix;
                map (fun a -> `Lpm a) addr;
                map (fun a -> `Descent a) addr
              ])))

(* reference model: association list keyed by prefix *)
let model_add pfx v m = (pfx, v) :: List.remove_assoc pfx m
let model_remove pfx m = List.remove_assoc pfx m
let model_find pfx m = List.assoc_opt pfx m

let model_lpm a m =
  List.fold_left
    (fun acc (pfx, v) ->
      if Prefix.contains pfx a then begin
        match acc with
        | Some (q, _) when Prefix.len q >= Prefix.len pfx -> acc
        | Some _ | None -> Some (pfx, v)
      end
      else acc)
    None m

(* A descent visits nodes of strictly growing length, each containing the
   address but possibly the last; the bound nodes it visits are bound in
   the model, and the containing ones are exactly the model's prefixes
   that contain the address, shortest first. *)
let descent_agrees a visited m =
  let rec walk = function
    | [] | [ _ ] -> true
    | (q, _) :: ((r, _) :: _ as rest) ->
      Prefix.contains q a && Prefix.len q < Prefix.len r && walk rest
  in
  let bound = List.filter_map (fun (q, b) -> if b then Some q else None) visited in
  let containing =
    List.filter (fun (q, _) -> Prefix.contains q a) m
    |> List.map fst
    |> List.sort (fun q r -> Int.compare (Prefix.len q) (Prefix.len r))
  in
  walk visited
  && List.for_all (fun q -> List.mem_assoc q m) bound
  && List.filter (fun q -> Prefix.contains q a) bound = containing

let prop_model =
  QCheck.Test.make ~name:"trie agrees with assoc-list model" ~count:300 arb_ops (fun ops ->
      let trie = ref T.empty and model = ref [] in
      List.for_all
        (fun op ->
          match op with
          | `Add (pfx, v) ->
            trie := T.add pfx v !trie;
            model := model_add pfx v !model;
            T.cardinal !trie = List.length !model
          | `Remove pfx ->
            trie := T.remove pfx !trie;
            model := model_remove pfx !model;
            T.cardinal !trie = List.length !model
          | `Find pfx -> T.find_opt pfx !trie = model_find pfx !model
          | `Lpm a -> begin
            match (T.longest_match a !trie, model_lpm a !model) with
            | None, None -> true
            | Some (q1, v1), Some (q2, v2) -> Prefix.equal q1 q2 && v1 = v2
            | Some _, None | None, Some _ -> false
          end
          | `Descent a -> descent_agrees a (T.descent a !trie) !model)
        ops)

let prop_to_list_sorted =
  QCheck.Test.make ~name:"to_list is sorted and duplicate-free" ~count:200
    (QCheck.make ~print:print_prefixes
       (gen_case (fun prefix _ -> QCheck.Gen.(list_size (int_range 0 40) prefix))))
    (fun prefixes ->
      let t = T.of_list (List.map (fun q -> (q, ())) prefixes) in
      let keys = List.map fst (T.to_list t) in
      let rec sorted = function
        | a :: (b :: _ as rest) -> Prefix.compare a b < 0 && sorted rest
        | [ _ ] | [] -> true
      in
      sorted keys)

let prop_covering_covered_dual =
  QCheck.Test.make ~name:"covering/covered agree with subsumes" ~count:200
    (QCheck.make
       ~print:(QCheck.Print.pair print_prefixes Prefix.to_string)
       (gen_case (fun prefix _ -> QCheck.Gen.(pair (list_size (int_range 0 30) prefix) prefix))))
    (fun (prefixes, q) ->
      let t = T.of_list (List.map (fun x -> (x, 0)) prefixes) in
      let covering = List.map fst (T.covering q t) in
      let covered = List.map fst (T.covered q t) in
      let all = List.map fst (T.to_list t) in
      let expect_covering = List.filter (fun x -> Prefix.subsumes x q) all in
      let expect_covered = List.filter (fun x -> Prefix.subsumes q x) all in
      List.sort Prefix.compare covering = List.sort Prefix.compare expect_covering
      && List.sort Prefix.compare covered = List.sort Prefix.compare expect_covered)

(* [diff] against the naive difference of the two binding lists, for a
   [b] derived from [a] by adds and removes (so the two share subtrees)
   and for an unrelated [b] *)
let naive_diff a b =
  let la = T.to_list a and lb = T.to_list b in
  let only l other tag =
    List.filter_map
      (fun (q, v) -> if List.mem_assoc q other then None else Some (tag q v))
      l
  in
  let changed =
    List.filter_map
      (fun (q, v) ->
        match List.assoc_opt q lb with
        | Some w when w <> v -> Some (q, Some v, Some w)
        | Some _ | None -> None)
      la
  in
  List.sort compare
    (changed
    @ only la lb (fun q v -> (q, Some v, None))
    @ only lb la (fun q w -> (q, None, Some w)))

let prop_diff =
  let print_edit = function
    | `Add (q, v) -> Printf.sprintf "add %s %d" (Prefix.to_string q) v
    | `Remove q -> "remove " ^ Prefix.to_string q
    | `Remove_nth i -> Printf.sprintf "remove #%d" i
  in
  let print_bindings = QCheck.Print.(list (pair Prefix.to_string int)) in
  QCheck.Test.make ~name:"diff agrees with the naive binding difference" ~count:300
    (QCheck.make
       ~print:(QCheck.Print.triple print_bindings (QCheck.Print.list print_edit) print_bindings)
       (gen_case (fun prefix _ ->
            let open QCheck.Gen in
            let bindings = list_size (int_range 0 40) (pair prefix small_int) in
            let edits =
              list_size (int_range 0 12)
                (oneof
                   [ map2 (fun q v -> `Add (q, v)) prefix small_int;
                     map (fun i -> `Remove_nth i) small_nat;
                     map (fun q -> `Remove q) prefix
                   ])
            in
            triple bindings edits bindings)))
    (fun (init, edits, unrelated) ->
      let a = T.of_list init in
      let b =
        List.fold_left
          (fun t edit ->
            match edit with
            | `Add (q, v) -> T.add q v t
            | `Remove q -> T.remove q t
            | `Remove_nth i -> begin
              match T.to_list t with
              | [] -> t
              | l -> T.remove (fst (List.nth l (i mod List.length l))) t
            end)
          a edits
      in
      let check a b =
        let d = T.diff ( = ) a b in
        List.sort compare d = naive_diff a b
        && List.map (fun (q, _, _) -> q) d
           = List.sort Prefix.compare (List.map (fun (q, _, _) -> q) d)
      in
      check a b && check b a && check a (T.of_list unrelated) && check a a)

let suite =
  [ ("empty", `Quick, test_empty);
    ("add/find", `Quick, test_add_find);
    ("replace", `Quick, test_replace);
    ("default route", `Quick, test_default_route);
    ("remove", `Quick, test_remove);
    ("remove absent", `Quick, test_remove_absent);
    ("longest match", `Quick, test_longest_match);
    ("covering", `Quick, test_covering);
    ("covered", `Quick, test_covered);
    ("to_list sorted", `Quick, test_to_list_sorted);
    ("update", `Quick, test_update);
    ("map/filter", `Quick, test_map_filter);
    ("equal", `Quick, test_equal);
    ("descent bound nodes", `Quick, test_descent_reaches_bound_nodes);
    ("descent mismatch", `Quick, test_descent_stops_at_mismatch);
    QCheck_alcotest.to_alcotest prop_model;
    QCheck_alcotest.to_alcotest prop_to_list_sorted;
    QCheck_alcotest.to_alcotest prop_covering_covered_dual;
    QCheck_alcotest.to_alcotest prop_diff
  ]
