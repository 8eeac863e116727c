(* What one explored import did: the record every speaker's
   [import_concolic] returns and every fault checker is written against
   (re-exported as [Dice_core.Speaker.import_outcome]). *)

open Dice_inet

type outcome = {
  prefix : Prefix.t;  (** concretized NLRI of the explored announcement *)
  accepted : bool;  (** survived loop check and import policy *)
  installed : bool;  (** won the decision process and entered the table *)
  route : Route.t option;  (** the concretized imported route, if accepted *)
  previous_best : Rib.Loc.entry option;
      (** the best-route entry for [prefix] before this import *)
  outputs : (Ipv4.t * Msg.t) list;
      (** export traffic this import would generate, per destination
          session *)
}
