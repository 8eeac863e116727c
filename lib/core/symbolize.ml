open Dice_inet
open Dice_bgp
open Dice_concolic

type mode =
  | Selective
  | Whole_message

let mode_to_string = function
  | Selective -> "selective"
  | Whole_message -> "whole-message"

let croute ctx ~prefix ~route =
  let base = Croute.of_route prefix route in
  let input name width default = Engine.input ctx ~name ~width ~default in
  let addr = input "addr" 32 (Int64.of_int (Prefix.network prefix)) in
  let len = input "len" 8 (Int64.of_int (Prefix.len prefix)) in
  (* well-formedness the wire format guarantees: these are seed
     constraints, not negatable branches *)
  (match Cval.sym len with
  | Some e ->
    Engine.constrain ctx (Sym.Binop (Sym.Ule, e, Sym.const ~width:8 32L)) ~nonzero:true
  | None -> ());
  let origin = input "origin" 8 (Int64.of_int (Attr.origin_code route.Route.origin)) in
  (match Cval.sym origin with
  | Some e ->
    Engine.constrain ctx (Sym.Binop (Sym.Ule, e, Sym.const ~width:8 2L)) ~nonzero:true
  | None -> ());
  let origin_as =
    input "origin_as" 32
      (Int64.of_int (Option.value (Route.origin_as route) ~default:0))
  in
  let base = { base with Croute.net_addr = addr; net_len = len; origin; origin_as } in
  if base.Croute.has_med then
    let med =
      input "med" 32 (Int64.of_int (Option.value route.Route.med ~default:0))
    in
    { base with Croute.med = med }
  else base

let message_bytes ctx bytes =
  Array.init (Bytes.length bytes) (fun i ->
      Engine.input ctx
        ~name:(Printf.sprintf "b%d" i)
        ~width:8
        ~default:(Int64.of_int (Char.code (Bytes.get bytes i))))

let concretize_bytes cvals =
  Bytes.init (Array.length cvals) (fun i -> Char.chr (Cval.to_int cvals.(i) land 0xFF))
