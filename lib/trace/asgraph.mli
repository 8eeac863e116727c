(** Synthetic AS-level topology, the one graph behind both generated
    fleets ([Dice_topology.Gen]) and generated traces ({!Gen}).

    Built the way the Internet grew: a small tier-1 clique of
    settlement-free peers, then every later AS buys transit from one or
    two providers picked by preferential attachment (roulette over
    degree + 1, so degree goes heavy-tailed like the real AS graph),
    and sometimes peers sideways with an unrelated non-tier-1 AS. The
    links carry Gao-Rexford roles, and every provider was created
    before its customer, so provider chains always end at a tier-1.

    Nodes are indices [0 .. n-1] in creation order, tier-1s first;
    each caller names them (fleet domains [d<i>], trace ASes
    [64600 + i]). *)

type link =
  | Transit of { customer : int; provider : int }
  | Peering of int * int  (** settlement-free, in creation order *)

type t

val generate : rng:Dice_util.Rng.t -> int -> t
(** [generate ~rng n] builds an [n]-node graph whose tier-1 clique has
    [min 8 (max 1 (n / 4))] members. It draws from [rng] in a fixed
    order — per non-tier-1 node: a provider, a 30 % chance of a second
    one (dropped if it repeats the first), a 15 % chance of a sideways
    peer — so the same generator state always gives the same graph.
    @raise Invalid_argument if [n < 1]. *)

val links : t -> link list
(** Every link, in creation order. *)

val providers : t -> int -> int list
(** A node's transit providers: empty exactly for the tier-1s.
    @raise Invalid_argument for a node outside the graph. *)

val random_node : t -> rng:Dice_util.Rng.t -> int
(** A node drawn with probability proportional to its degree + 1 (one
    [Rng.int]), so well-connected ASes originate more routes. *)

val climb : t -> rng:Dice_util.Rng.t -> int -> int list
(** [climb t ~rng i] walks from [i] up to a tier-1, one randomly chosen
    provider at a time, and returns the chain top-down: a tier-1 first,
    [i] last. Loop-free, since every provider precedes its customer. *)
