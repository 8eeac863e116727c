(** The speaker registry: the {e only} module in the core allowed to
    name a concrete BGP implementation.

    Everything else in [Dice_core] programs against {!Speaker.S} /
    {!Speaker.instance}; this module adapts the implementations the tree
    ships — the instrumented BIRD-flavored [Dice_bgp.Router] and the
    heterogeneous Quagga-flavored [Dice_bgp2.Qrouter], and the
    XORP-flavored [Dice_bgp3.Xrouter] that completes the paper's
    heterogeneous triple — and looks them up by name for
    [detect-leaks --speaker], [--panel] membership and per-agent fleet
    configuration. Each adapter carries its configuration dialect
    ({!Speaker.S.dialect}), so building a speaker from a
    {!Speaker.source} realizes the operator's intent through {e that
    implementation's} translator — one intent, per-member quirks. Adding
    a fourth implementation means adding one adapter (and its dialect)
    here and nowhere else. *)

module Bird : Speaker.S with type t = Dice_bgp.Router.t
(** [Dice_bgp.Router] behind the SPEAKER interface, configured in the
    BIRD dialect ({!Dice_bgp.Bird_dialect}). [establish] runs the real
    FSM handshake (ManualStart, transport up, OPEN with the peer's
    configured AS, KEEPALIVE); outputs are filtered to the [(peer,
    message)] pairs the interface speaks — timers and socket requests
    stay internal. *)

module Quagga : Speaker.S with type t = Dice_bgp2.Qrouter.t
(** [Dice_bgp2.Qrouter] behind the same interface — different RIB
    layout, different decision tie-breaking, administratively
    established sessions, route-map dialect
    ({!Dice_bgp2.Quagga_dialect}). *)

module Xorp : Speaker.S with type t = Dice_bgp3.Xrouter.t
(** [Dice_bgp3.Xrouter] behind the same interface — map-based RIBs,
    deterministic-MED grouping, IGP-cost-before-peer tie-breaks, lazily
    materialized Adj-RIB-Out, policy-term dialect
    ({!Dice_bgp3.Xorp_dialect}). *)

val bird : Dice_bgp.Router.t -> Speaker.instance
val quagga : Dice_bgp2.Qrouter.t -> Speaker.instance
val xorp : Dice_bgp3.Xrouter.t -> Speaker.instance
(** Pack an already-built router. The realization records the router's
    concrete configuration as its source — nothing was translated. *)

val create : string -> Speaker.source -> Speaker.instance option
(** [create name source] builds a fresh speaker by implementation name
    (known names: {!names}), realizing [source] through that
    implementation's dialect; [None] for an unknown name. *)

val create_exn : string -> Speaker.source -> Speaker.instance
(** Like {!create}.
    @raise Invalid_argument on an unknown name, with the known-names
    list in the message — the error every CLI/registry caller should
    surface instead of rolling its own. *)

val names : string list
(** [["bird"; "quagga"; "xorp"]] — what [--speaker] and [--panel]
    accept. *)

val dialect : string -> (module Dice_bgp.Dialect.S) option
(** The dialect an implementation name configures in. *)

