open Dice_inet

module Adj = struct
  type t = Route.t Prefix_trie.t

  let empty = Prefix_trie.empty
  let add = Prefix_trie.add
  let remove = Prefix_trie.remove
  let find_opt = Prefix_trie.find_opt
  let cardinal = Prefix_trie.cardinal
  let to_list = Prefix_trie.to_list
  let fold = Prefix_trie.fold
  let diff (a : t) (b : t) = Prefix_trie.diff Route.equal a b
end

module Loc = struct
  type entry = { route : Route.t; src : Route.src }
  type t = entry Prefix_trie.t

  let empty = Prefix_trie.empty
  let set = Prefix_trie.add
  let remove = Prefix_trie.remove
  let find_opt = Prefix_trie.find_opt
  let longest_match = Prefix_trie.longest_match
  let descent = Prefix_trie.descent
  let covering = Prefix_trie.covering
  let covered = Prefix_trie.covered
  let cardinal = Prefix_trie.cardinal
  let to_list = Prefix_trie.to_list
  let fold = Prefix_trie.fold
  let diff (a : t) (b : t) = Prefix_trie.diff ( = ) a b
  let trie_nodes = Prefix_trie.node_count
  let shared_nodes = Prefix_trie.shared_nodes
end
