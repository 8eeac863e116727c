(** Fault checkers: the "notion of desired system behavior" DiCE evaluates
    each explored action against (paper §2.4).

    {2 Constructor convention}

    Every checker constructor in [lib/core] has one shape. A checker
    with nothing to configure is a plain value ({!Hijack.checker}); one
    with parameters is a function of {e required labelled} arguments
    ({!Distributed.checker}, {!Panel.checker}) — no optional arguments,
    no trailing [unit], so every setting is spelled out at the call
    site instead of hidden behind a [?]. *)

open Dice_inet
open Dice_bgp

type severity =
  | Warning
  | Critical

type fault = {
  checker : string;
  severity : severity;
  prefix : Prefix.t;  (** the prefix (range) the fault concerns *)
  description : string;
  details : (string * string) list;  (** key/value context for the report *)
}

val fault_key : fault -> string
(** Key under which equal findings collapse: checker + prefix +
    description. *)

val pp_fault : Format.formatter -> fault -> unit

type context = {
  pre_loc_rib : Rib.Loc.t;
      (** the Loc-RIB as checkpointed, before exploration — the paper's
          "routes already in the routing table prior to starting
          exploration", assumed trustworthy *)
  anycast : Prefix.t list;  (** whitelist of legitimately multi-origin space *)
  peer : Ipv4.t;  (** session the explored announcement arrived on *)
  peer_as : int;
}

type t = {
  name : string;
  check : context -> Speaker.import_outcome -> fault list;
}
