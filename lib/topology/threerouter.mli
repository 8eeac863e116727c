(** The paper's experimental topology (Figure 2): a Customer AS, a
    Provider AS running the DiCE-enabled router, and a "Rest of the
    Internet" AS that replays a (RouteViews-style) BGP trace into the
    provider.

    {v
         Customer ---- Provider ---- Rest of the Internet
         (AS 64501)    (AS 64510,     (AS 64700, trace collector)
                        DiCE here)
    v}

    The provider applies customer route filtering on import from the
    customer — "a best common practice currently adopted by several large
    ISPs to defend against BGP prefix hijacking" (§4). The filter can be
    built correct, partially correct, or missing, to reproduce the
    misconfigurations of §4.2. *)

open Dice_inet
open Dice_bgp

val customer_as : int
(** 64501 *)

val provider_as : int
(** 64510 *)

val internet_as : int
(** 64700 *)

val customer_prefixes : Prefix.t list
(** The address space the customer legitimately holds
    (203.0.113.0/24 and 198.51.100.0/22). *)

(** How the provider filters customer announcements. *)
type filtering =
  | Correct  (** only the customer's own space, max length /28 *)
  | Partially_correct
      (** the paper's scenario: one customer block is matched too
          loosely, so covering space can be hijacked through it *)
  | Missing  (** no customer route filtering at all (import all) *)

val filtering_to_string : filtering -> string

val provider_config : filtering -> Config_types.t

val spec : filtering -> Topology.Spec.t
(** The topology as a 3-domain {!Topology.Spec}: the hand-written
    configurations above attached as programmatic overrides, the
    historical addressing as link address overrides. [build] wires its
    routers from it — the one construction path. *)

type t = {
  net : Dice_sim.Network.t;
  customer : Router_node.t;
  provider : Router_node.t;
  internet : Router_node.t;
}

val build : filtering -> t
(** Create the three simulated routers from {!spec}'s configurations in
    its domain order, then connect and bind them in its link order, at
    its addresses and latencies. Sessions are not yet started. *)

val start : t -> unit
(** Start all sessions and run the simulation until they establish.
    @raise Failure if they do not establish within simulated 60 s. *)

val load_table : t -> Dice_trace.Gen.t -> int
(** Replay a trace dump from the Internet node into the provider
    (simulated traffic); runs the network until quiescent. Returns the
    provider's Loc-RIB size afterwards. *)

val provider_router : t -> Router.t
