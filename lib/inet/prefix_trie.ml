(* Path-compressed binary radix trie. Each [Node] stores the full prefix it
   represents; children hold strictly longer prefixes that agree with the
   parent's bits and differ at bit [len parent]: [left] for a 0 bit, [right]
   for 1. A node either carries a value, or is a fork with two non-empty
   children (internal join points are never kept when redundant). A node
   holds its prefix packed into one int, [key], so a walk reads one block
   per node, not two; the prefixes a query returns are built from it. *)

type 'a t =
  | Empty
  | Node of { key : int; left : 'a t; right : 'a t; value : 'a option; count : int }

(* [key]: the network above six bits of length *)
let key (p : Prefix.t) = (p.network lsl 6) lor p.len
let net k = k lsr 6
let len k = k land 63
let prefix_of k = Prefix.make (net k) (len k)

let empty = Empty

let is_empty = function
  | Empty -> true
  | Node _ -> false

let cardinal = function
  | Empty -> 0
  | Node n -> n.count

let count_of = cardinal

let mk key value left right =
  let c = (match value with Some _ -> 1 | None -> 0) + count_of left + count_of right in
  Node { key; value; left; right; count = c }

(* Rebuild a node, collapsing it if it carries no value and has at most one
   child (path compression). *)
let node key value left right =
  match (value, left, right) with
  | None, Empty, Empty -> Empty
  | None, (Node _ as child), Empty | None, Empty, (Node _ as child) -> child
  | Some _, _, _ | None, Node _, Node _ -> mk key value left right

(* Bit arithmetic on the networks as native ints (an [Ipv4.t] is an int in
   [0, 2^32)); bit 0 is the most significant bit of the 32-bit word. *)

(* Do [a] and [b] agree on their first [l] bits? Valid for 0 <= l <= 32. *)
let agree a b l = (a lxor b) lsr (32 - l) = 0

(* Bit [i] of address [a], for 0 <= i < 32. *)
let bit a i = (a lsr (31 - i)) land 1 = 1

(* Leading zeros of a non-zero 32-bit word, in five halving steps. *)
let clz32 x =
  let z = x land 0xFFFF0000 = 0 in
  let n = if z then 16 else 0 and x = if z then x lsl 16 else x in
  let z = x land 0xFF000000 = 0 in
  let n = if z then n + 8 else n and x = if z then x lsl 8 else x in
  let z = x land 0xF0000000 = 0 in
  let n = if z then n + 4 else n and x = if z then x lsl 4 else x in
  let z = x land 0xC0000000 = 0 in
  let n = if z then n + 2 else n and x = if z then x lsl 2 else x in
  if x land 0x80000000 = 0 then n + 1 else n

(* Length of the longest common prefix of two (network, length) pairs. *)
let common_len a alen b blen =
  let limit = Int.min alen blen in
  let diff = a lxor b in
  if diff = 0 then limit else Int.min limit (clz32 diff)

(* Network bits past a prefix's length are zero, so [bit] of a network
   is valid for any i < 32; callers only ask below the length. *)

let rec add (p : Prefix.t) v t =
  match t with
  | Empty -> mk (key p) (Some v) Empty Empty
  | Node n ->
    if n.key = key p then mk n.key (Some v) n.left n.right
    else begin
      let nlen = len n.key in
      let c = common_len p.network p.len (net n.key) nlen in
      if c = nlen then
        (* p is strictly below n *)
        if bit p.network nlen then mk n.key n.value n.left (add p v n.right)
        else mk n.key n.value (add p v n.left) n.right
      else if c = p.len then
        (* n is strictly below p: insert p above n *)
        if bit (net n.key) p.len then mk (key p) (Some v) Empty t
        else mk (key p) (Some v) t Empty
      else begin
        (* fork at the common prefix *)
        let join = key (Prefix.make p.network c) in
        let leaf = mk (key p) (Some v) Empty Empty in
        if bit p.network c then mk join None t leaf else mk join None leaf t
      end
    end

(* [remove] and [find_opt] descend while the node is a strict ancestor of
   [p]: shorter, and agreeing with [p] on the node's bits. *)
let rec remove (p : Prefix.t) t =
  match t with
  | Empty -> Empty
  | Node n ->
    let nlen = len n.key in
    if n.key = key p then node n.key None n.left n.right
    else if nlen < p.len && agree p.network (net n.key) nlen then
      if bit p.network nlen then node n.key n.value n.left (remove p n.right)
      else node n.key n.value (remove p n.left) n.right
    else t

let rec find_opt (p : Prefix.t) t =
  match t with
  | Empty -> None
  | Node n ->
    let nlen = len n.key in
    if n.key = key p then n.value
    else if nlen < p.len && agree p.network (net n.key) nlen then
      find_opt p (if bit p.network nlen then n.right else n.left)
    else None

let mem p t = find_opt p t <> None

let update p f t =
  match f (find_opt p t) with
  | Some v -> add p v t
  | None -> remove p t

let longest_match addr t =
  let rec go best t =
    match t with
    | Empty -> best
    | Node n ->
      let nlen = len n.key in
      if agree addr (net n.key) nlen then begin
        let best =
          match n.value with
          | Some v -> Some (n.key, v)
          | None -> best
        in
        if nlen >= 32 then best else go best (if bit addr nlen then n.right else n.left)
      end
      else best
  in
  Option.map (fun (k, v) -> (prefix_of k, v)) (go None t)

let descent addr t =
  let rec go acc t =
    match t with
    | Empty -> List.rev acc
    | Node n ->
      let nlen = len n.key in
      let acc = (prefix_of n.key, n.value <> None) :: acc in
      if nlen < 32 && agree addr (net n.key) nlen then
        go acc (if bit addr nlen then n.right else n.left)
      else List.rev acc
  in
  go [] t

let covering (p : Prefix.t) t =
  let rec go acc t =
    match t with
    | Empty -> List.rev acc
    | Node n ->
      let nlen = len n.key in
      if nlen <= p.len && agree p.network (net n.key) nlen then begin
        let acc =
          match n.value with
          | Some v -> (prefix_of n.key, v) :: acc
          | None -> acc
        in
        if nlen = p.len then List.rev acc
        else go acc (if bit p.network nlen then n.right else n.left)
      end
      else List.rev acc
  in
  go [] t

let rec fold f t acc =
  match t with
  | Empty -> acc
  | Node n ->
    let acc =
      match n.value with
      | Some v -> f (prefix_of n.key) v acc
      | None -> acc
    in
    fold f n.right (fold f n.left acc)

let covered (p : Prefix.t) t =
  (* descend to the subtree rooted at/below p, then collect everything *)
  let rec go t =
    match t with
    | Empty -> []
    | Node n ->
      let nlen = len n.key in
      if nlen >= p.len && agree (net n.key) p.network p.len then
        List.rev (fold (fun q v acc -> (q, v) :: acc) t [])
      else if nlen < p.len && agree p.network (net n.key) nlen then
        go (if bit p.network nlen then n.right else n.left)
      else []
  in
  go t

let iter f t = fold (fun p v () -> f p v) t ()

let to_list t = List.rev (fold (fun p v acc -> (p, v) :: acc) t [])

let of_list l = List.fold_left (fun t (p, v) -> add p v t) Empty l

let rec map f t =
  match t with
  | Empty -> Empty
  | Node n ->
    Node
      { key = n.key;
        value = Option.map f n.value;
        left = map f n.left;
        right = map f n.right;
        count = n.count;
      }

let filter pred t =
  fold (fun p v acc -> if pred p v then add p v acc else acc) t Empty

let equal eq a b =
  let la = to_list a and lb = to_list b in
  List.length la = List.length lb
  && List.for_all2 (fun (p, v) (q, w) -> Prefix.equal p q && eq v w) la lb

(* Both tries are canonical (one shape per key set), so two tries that
   share history line up node for node off the paths where they were
   written, and a physically shared subtree holds no difference. The
   walk emits in the same order as [fold] (node, left, right), onto a
   reversed accumulator. *)
let diff eq a b =
  let gone p v acc = (p, Some v, None) :: acc and came p w acc = (p, None, Some w) :: acc in
  let own f p value acc =
    match value with
    | Some v -> f p v acc
    | None -> acc
  in
  let rec go a b acc =
    if a == b then acc
    else
      match (a, b) with
      | Empty, _ -> fold came b acc
      | _, Empty -> fold gone a acc
      | Node x, Node y ->
        let lx = len x.key and ly = len y.key in
        let c = common_len (net x.key) lx (net y.key) ly in
        if c = lx && c = ly then begin
          let acc =
            match (x.value, y.value) with
            | None, None -> acc
            | Some v, Some w when v == w || eq v w -> acc
            | va, vb -> (prefix_of x.key, va, vb) :: acc
          in
          go x.right y.right (go x.left y.left acc)
        end
        else if c = lx then
          (* [b] lies strictly below [x], in one of its children *)
          let acc = own gone (prefix_of x.key) x.value acc in
          if bit (net y.key) lx then go x.right b (go x.left Empty acc)
          else go x.right Empty (go x.left b acc)
        else if c = ly then
          let acc = own came (prefix_of y.key) y.value acc in
          if bit (net x.key) ly then go a y.right (go Empty y.left acc)
          else go Empty y.right (go a y.left acc)
        else if bit (net x.key) c then fold gone a (fold came b acc)
        else fold came b (fold gone a acc)
  in
  List.rev (go a b [])

(* ------------------------------------------------------------------ *)
(* Physical structural sharing                                         *)
(* ------------------------------------------------------------------ *)

let rec node_count = function
  | Empty -> 0
  | Node n -> 1 + node_count n.left + node_count n.right

let shared_nodes a b =
  (* Index [a]'s subtree roots by their prefix, then walk [b]: a node of
     [b] that is physically ([==]) a subtree of [a] contributes its whole
     subtree (physical equality is hereditary — a shared block's children
     are reachable from [a] too) and the walk stops there. *)
  let tbl : (int, 'a t list) Hashtbl.t = Hashtbl.create 256 in
  let rec index t =
    match t with
    | Empty -> ()
    | Node n ->
      let bucket = match Hashtbl.find_opt tbl n.key with Some l -> l | None -> [] in
      Hashtbl.replace tbl n.key (t :: bucket);
      index n.left;
      index n.right
  in
  index a;
  let rec walk acc t =
    match t with
    | Empty -> acc
    | Node n ->
      let hit =
        match Hashtbl.find_opt tbl n.key with
        | Some bucket -> List.exists (fun x -> x == t) bucket
        | None -> false
      in
      if hit then acc + node_count t else walk (walk acc n.left) n.right
  in
  walk 0 b
