open Dice_inet
open Dice_bgp
open Dice_concolic

type import_outcome = Import.outcome = {
  prefix : Prefix.t;
  accepted : bool;
  installed : bool;
  route : Route.t option;
  previous_best : Rib.Loc.entry option;
  outputs : (Ipv4.t * Msg.t) list;
}

type source =
  | Config of Config_types.t
  | Intent of Intent.t

type realization = {
  source : source;
  dialect : string;
  rendered : string option;
  config : Config_types.t;
}

let realize (module D : Dialect.S) source =
  match source with
  | Config config -> { source; dialect = D.name; rendered = None; config }
  | Intent intent ->
    let text = D.render intent in
    { source; dialect = D.name; rendered = Some text; config = D.parse text }

module type S = sig
  type t

  val id : string
  val dialect : (module Dialect.S)
  val create : realization -> t
  val establish : t -> peer:Ipv4.t -> unit
  val feed : ?ctx:Engine.ctx -> t -> peer:Ipv4.t -> Msg.t -> (Ipv4.t * Msg.t) list
  val import_concolic : ctx:Engine.ctx -> t -> peer:Ipv4.t -> Croute.t -> import_outcome
  val loc_rib : t -> Rib.Loc.t
  val best_route : t -> Prefix.t -> Rib.Loc.entry option
  val learned_from : t -> peer:Ipv4.t -> Prefix.t -> bool
  val updates_processed : t -> int
  val snapshot : t -> bytes
  val snapshot_patch : base:t -> t -> int * (int * bytes) list
  val restore : realization -> bytes -> t
  val clone : t -> t
end

type instance = Inst : (module S with type t = 'a) * realization * 'a -> instance

let pack (type a) (m : (module S with type t = a)) real (state : a) = Inst (m, real, state)

let create (type a) (m : (module S with type t = a)) source =
  let (module M) = m in
  let real = realize M.dialect source in
  Inst (m, real, M.create real)

let id (Inst ((module M), _, _)) = M.id
let dialect (Inst ((module M), _, _)) = M.dialect
let realization (Inst (_, real, _)) = real
let source inst = (realization inst).source
let config inst = (realization inst).config
let rendered inst = (realization inst).rendered
let intent inst = match source inst with Intent i -> Some i | Config _ -> None
let establish (Inst ((module M), _, t)) ~peer = M.establish t ~peer
let feed ?ctx (Inst ((module M), _, t)) ~peer msg = M.feed ?ctx t ~peer msg

let loc_rib (Inst ((module M), _, t)) = M.loc_rib t
let best_route (Inst ((module M), _, t)) prefix = M.best_route t prefix
let learned_from (Inst ((module M), _, t)) ~peer prefix = M.learned_from t ~peer prefix
let updates_processed (Inst ((module M), _, t)) = M.updates_processed t
let snapshot (Inst ((module M), _, t)) = M.snapshot t

let restore_like (Inst ((module M), _, _)) real image =
  Inst ((module M), real, M.restore real image)

let clone (Inst ((module M), real, t)) = Inst ((module M), real, M.clone t)

let rerealize (Inst ((module M), _, _)) source = realize M.dialect source
