(** The XORP-flavored third speaker: the other half of the paper's
    heterogeneous triple (Cisco/XORP/BIRD behind one narrow interface).

    Like {!Dice_bgp2.Qrouter} it implements only what the SPEAKER
    interface requires, on the standard import and export rules all
    three speakers share ({!Dice_bgp.Pipeline}), with its own internals
    everywhere the interface leaves room:

    - {b RIB layout}: one table per pipeline stage (a RibIn and a
      lazily built RibOut per peer, plus the main table), in the spirit
      of XORP's plumbing-of-tables, each stored in the shared persistent
      tries ({!Dice_bgp.Rib.Adj}, {!Dice_bgp.Rib.Loc}) — not Zebra's
      hash buckets. So {!table} is the stored main table, with no
      copy, and iteration is in prefix order, which keeps snapshots
      canonical by construction;
    - {b decision quirks}: {e deterministic-MED grouping} — candidates
      are grouped by neighboring AS, the best-MED candidate survives
      per group (missing MED = 0, the {e best}, the opposite default of
      the Quagga flavor's missing-as-worst), and only group survivors
      proceed to the remaining rules, so the outcome never depends on
      arrival order; and {e IGP-cost-before-peer-tie-breaks} — after
      eBGP-over-iBGP the router prefers the candidate with the lowest
      cost to its next hop (modeled deterministically as the numeric
      next-hop address) {e before} falling back to router id and peer
      address, where BIRD and Quagga go straight to the peer
      tie-breaks;
    - {b lazily materialized Adj-RIB-Out}: session establishment marks
      the peer up but builds no out-table; the RibOut materializes from
      the main table the first time a decision change must be pushed to
      that peer — XORP's background RibOut plumbing, collapsed to its
      observable effect;
    - {b sessions}: administratively established, like the Quagga
      flavor (the FSM is not part of the narrow interface).

    Checkpoints are eager linear images ("XRTRSNP2" magic) with the
    same framing conventions as the Quagga flavor's; the two formats
    are mutually alien on purpose — {!restore} rejects foreign magic.  *)

open Dice_inet
open Dice_bgp
open Dice_concolic

type t

val create : Config_types.t -> t
val config : t -> Config_types.t

val establish : t -> peer:Ipv4.t -> unit
(** Mark the session up. No initial-advertisement traffic is returned
    (session establishment is not exploration traffic), and — the lazy
    quirk — no Adj-RIB-Out is built yet.
    @raise Invalid_argument on an unconfigured peer. *)

val import_concolic : ctx:Engine.ctx -> t -> peer:Ipv4.t -> Croute.t -> Import.outcome
(** One announcement through loop check, the shared (recording) policy
    interpreter, and the concrete XORP-flavored decision process.
    @raise Invalid_argument on an unconfigured peer. *)

val feed : ?ctx:Engine.ctx -> t -> peer:Ipv4.t -> Msg.t -> (Ipv4.t * Msg.t) list
(** Process one message: UPDATEs import/withdraw (treat-as-withdraw on
    malformed attributes), NOTIFICATION clears the session, OPEN and
    KEEPALIVE are ignored. *)

val table : t -> Rib.Loc.t
(** The main table itself: O(1). *)

val best_route : t -> Prefix.t -> Rib.Loc.entry option
val learned_from : t -> peer:Ipv4.t -> Prefix.t -> bool
val updates_processed : t -> int

val snapshot : t -> bytes
(** Canonical eager image: equal states produce equal bytes. *)

val restore : Config_types.t -> bytes -> t
(** @raise Invalid_argument on foreign magic, truncation, or an image
    peer absent from [cfg]. *)

val clone : t -> t
(** An independent in-process copy sharing all route storage with the
    live router: the tables are persistent tries, so the clone holds
    references and copies only the mutable per-peer cells —
    O(#peers). *)
