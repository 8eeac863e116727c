(** The topology API: declarative AS-level specs and their realizations.

    A {!Spec.t} says {e what} the federation looks like — domains
    (one BGP speaker each) and inter-domain links carrying Gao-Rexford
    business roles (customer / provider / peer) — and nothing about how
    it runs. Realizations consume it: {!Spec.intent_of} emits each
    domain's dialect-neutral {!Dice_bgp.Intent.t} (valley-free export
    policies included, so any registered speaker implementation can
    realize its domain), {!Threerouter} wires the paper's Figure 2
    testbed from one, and {!Fleet} instantiates N DiCE-enabled speakers
    over it for fleet-scale online testing.

    Specs also have a concrete text format ([gen-topology -o FILE] /
    [detect-leaks --topology FILE]): {!Spec.parse} and {!Spec.to_string}
    round-trip byte-for-byte on the canonical rendering, which is what
    makes a generated topology replayable from its seed. *)

open Dice_inet
open Dice_bgp

module Spec : sig
  (** What one endpoint of a link {e is} to the other, in Gao-Rexford
      terms: a [Customer] buys transit from a [Provider]; [Peer]s
      exchange their customer cones settlement-free. *)
  type role =
    | Customer
    | Provider
    | Peer

  val role_to_string : role -> string

  type domain = {
    name : string;  (** [[a-z0-9_]+], at most 32 chars *)
    asn : int;
    speaker : string;  (** a {!Dice_core.Speakers} registry name *)
    prefixes : Prefix.t list;  (** the address space this domain originates *)
    config : Config_types.t option;
        (** programmatic override: run this concrete configuration
            instead of realizing {!intent_of} — how {!Threerouter}
            keeps its hand-written filters. Not part of the text
            format. *)
  }

  type link = {
    a : string;
    b : string;
    a_role : role;  (** what [a] is to [b] *)
    b_role : role;
    addrs : (Ipv4.t * Ipv4.t) option;
        (** programmatic override of the auto address plan:
            [(a]'s address, [b]'s address[)]. Not part of the text
            format. *)
    latency : float;  (** seconds, for simulated realizations *)
  }

  type t = { domains : domain list; links : link list }

  exception Parse_error of string

  val feed_as : int
  (** 64700 — the collector ("rest of the Internet") AS every domain's
      feed session peers with. *)

  val default_latency : float
  (** 0.005 s; links at this latency render without a latency clause. *)

  val max_domains : int
  (** 4096 — the feed/router-id address carve-outs' capacity. *)

  val max_links : int
  (** 16384 — the auto link address plan's capacity. *)

  (** {1 Smart constructors} *)

  val domain :
    ?speaker:string ->
    ?prefixes:Prefix.t list ->
    ?config:Config_types.t ->
    string ->
    asn:int ->
    domain
  (** [speaker] defaults to ["bird"].
      @raise Invalid_argument on a malformed name or an AS outside
      [1, 2^32). *)

  val transit :
    ?addrs:Ipv4.t * Ipv4.t ->
    ?latency:float ->
    customer:string ->
    provider:string ->
    unit ->
    link
  (** A transit link: the customer buys full-table service from the
      provider. @raise Invalid_argument on a self-link. *)

  val peering : ?addrs:Ipv4.t * Ipv4.t -> ?latency:float -> string -> string -> link
  (** A settlement-free peer link. @raise Invalid_argument on a
      self-link. *)

  val make : domains:domain list -> links:link list -> unit -> t
  (** Validate the whole spec: at least one domain, unique names and
      ASNs, registered speakers, per-domain duplicate
      prefixes, link endpoints that exist, no self or duplicate links,
      symmetric role pairs ([Customer]/[Provider] or [Peer]/[Peer]),
      finite non-negative latencies, and the address-plan bounds
      (4096 domains, 16384 links). @raise Invalid_argument naming the
      offender. *)

  (** {1 Lookups and the address plan} *)

  val find_domain : t -> string -> domain option
  val find_domain_exn : t -> string -> domain

  val domain_index : t -> string -> int
  (** Position in [t.domains] — the stable index the address plan is
      keyed on. @raise Invalid_argument on an unknown name. *)

  val link_addrs : t -> link -> Ipv4.t * Ipv4.t
  (** The link's [(a, b)] addresses: the override if given, else the
      auto plan [10.(64+i/256).(i mod 256).{1,2}] for link index [i] —
      disjoint from hand-addressed specs in 10.0–10.63 and from the
      feed/router-id carve-outs. *)

  val feed_addr : t -> string -> Ipv4.t
  (** The address of the domain's trace-collector peer
      ([10.(128+j/256).(j mod 256).1] for domain index [j]) — where a
      fleet injects RouteViews-style update streams. *)

  val router_id : t -> string -> Ipv4.t
  (** [10.(160+j/256).(j mod 256).1] for domain index [j]. *)

  type neighbor = {
    peer_name : string;
    peer_role : role;  (** what the neighbor is {e to this domain} *)
    my_addr : Ipv4.t;
    peer_addr : Ipv4.t;
    link_latency : float;
  }

  val neighbors : t -> string -> neighbor list
  (** One entry per incident link, in link order.
      @raise Invalid_argument on an unknown name. *)

  val address : t -> of_:string -> toward:string -> Ipv4.t
  (** [of_]'s address on the link between the two domains.
      @raise Invalid_argument if no such link exists. *)

  (** {1 Intent realization} *)

  val relationship_communities : Community.t list
  (** The (65010, 1|2|3) tags [intent_of] marks customer-, peer- and
      provider-learned routes with. *)

  val intent_of : t -> string -> Intent.t
  (** The domain's dialect-neutral configuration: one session per
      incident link plus the collector feed session, statics for its
      prefixes, and valley-free policies — import tags the relationship
      community and ranks customer (local-pref 120) over peer (100)
      over provider (80); export to a customer is open; export toward a
      peer or provider permits only customer-learned and
      self-originated routes, default deny. Any registered speaker can
      realize it through its own dialect. *)

  (** {1 Text format} *)

  val to_string : t -> string
  (** Canonical rendering: domains then links, one construct per line,
      transit links normalized to [customer -> provider]. Programmatic
      overrides ([config], [addrs]) are not representable.
      [to_string (parse s)] equals [to_string spec] for any [spec] that
      produced [s] — byte-for-byte, which is what seed-replayable
      generated topologies rely on. *)

  val parse : string -> t
  (** Parse the text format ([#] comments allowed); the result passes
      through {!make}. @raise Parse_error on malformed input or a spec
      {!make} rejects. *)

  val parse_file : string -> t

  val equal : t -> t -> bool
  (** Canonical-text equality (ignores programmatic overrides). *)
end
