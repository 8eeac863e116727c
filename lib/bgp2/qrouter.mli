(** A compact Quagga-flavored BGP speaker — the deliberately heterogeneous
    second implementation behind the core's SPEAKER interface.

    The paper's evaluation federates BIRD with Cisco- and XORP-style
    peers; DiCE never instruments those, it only probes them through the
    narrow interface. [Qrouter] plays that role in this reproduction. It
    shares the wire vocabulary with [Dice_bgp] ([Msg], [Route], the
    policy interpreter) and the standard import and export rules
    ({!Dice_bgp.Pipeline}) — as real implementations share the BGP RFCs
    — but is a different program:

    {b Different RIB layout.} Hash tables keyed by prefix for the
    per-peer RIBs and one flat hash table for the main table, in the
    Zebra tradition of per-prefix [bgp_node] buckets — not the
    persistent tries of [Dice_bgp.Router] and the XORP flavor. The
    [loc_rib] view required by SPEAKER is materialized on demand, O(n).

    {b Different decision tie-breaking order.} After local preference
    and local origination, Qrouter compares {e ORIGIN before AS-path
    length}, and breaks final ties on {e peer address before router
    id} — both swapped relative to [Dice_bgp.Decision]. Its MED quirks
    also differ: MED is always comparable across neighbor ASes and a
    missing MED ranks {e worst}, where BIRD defaults to same-AS-only
    comparison with missing-as-best. Identical inputs can therefore
    yield different best routes — exactly the cross-implementation
    divergence class the differential checker exists to surface.

    {b Own config quirks.} Sessions are administratively established
    ([establish] flips them up and primes the initial advertisement;
    there is no FSM) — OPEN and KEEPALIVE are accepted and ignored, a
    NOTIFICATION administratively clears the session. The import
    pipeline is not concolically instrumented beyond the shared policy
    interpreter: the decision process runs concretely, as it would in a
    closed-source federated peer. *)

open Dice_inet
open Dice_bgp
open Dice_concolic

type t

val create : Config_types.t -> t
(** Static routes enter the main table immediately, as locally
    originated (they win every tie-break against learned routes). *)

val config : t -> Config_types.t

(* ------------------------------------------------------------------ *)
(* Sessions *)

val establish : t -> peer:Ipv4.t -> unit
(** Administratively bring the session with [peer] up and advertise the
    current table to it (priming the Adj-RIB-Out; the advertisement
    itself is not returned — the session is assumed synchronized, as
    after a real initial exchange). Idempotent.
    @raise Invalid_argument if [peer] is not configured. *)

val feed : ?ctx:Engine.ctx -> t -> peer:Ipv4.t -> Msg.t -> (Ipv4.t * Msg.t) list
(** Process one received message; returns the UPDATEs Qrouter would send
    in response. UPDATE on a down session is ignored; OPEN and KEEPALIVE
    are ignored; NOTIFICATION clears the session (withdrawing its routes
    from other peers). *)

(* ------------------------------------------------------------------ *)
(* Import path *)

val import_concolic : ctx:Engine.ctx -> t -> peer:Ipv4.t -> Croute.t -> Import.outcome
(** One announcement through loop check, import policy (the shared,
    recording interpreter) and the concrete Quagga decision process. *)

(* ------------------------------------------------------------------ *)
(* State views *)

val table : t -> Rib.Loc.t
(** The main table as the shared view type, materialized on demand. *)

val best_route : t -> Prefix.t -> Rib.Loc.entry option
val learned_from : t -> peer:Ipv4.t -> Prefix.t -> bool
val updates_processed : t -> int

(* ------------------------------------------------------------------ *)
(* Checkpointing *)

val snapshot : t -> bytes
(** Serialize sessions, per-peer RIBs and the main table. Qrouter's own
    linear format — not interchangeable with [Dice_bgp.Router] images. *)

val restore : Config_types.t -> bytes -> t
(** @raise Invalid_argument on a corrupt or alien image, or one
    mentioning peers absent from [cfg]. *)

val clone : t -> t
(** An independent in-process copy of the live router. Quagga-style
    state is mutable hash tables, so buckets are copied eagerly (route
    values stay shared) — no serialization, unlike {!snapshot} +
    {!restore}. *)
