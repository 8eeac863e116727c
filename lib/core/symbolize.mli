(** Input symbolization policies (paper §3.2).

    The paper's key design choice: do {e not} mark the whole UPDATE
    message symbolic — that "simply exercises the message parsing code".
    Instead, selectively mark small message-derived fields (NLRI address
    and mask length, attribute values) so every generated input is a
    syntactically valid message and exploration reaches the route
    processing and policy code. Both modes are provided; experiment A1
    compares them. *)

open Dice_inet
open Dice_bgp
open Dice_concolic

type mode =
  | Selective  (** the paper's choice *)
  | Whole_message  (** strawman: every message byte is symbolic *)

val mode_to_string : mode -> string

val croute : Engine.ctx -> prefix:Prefix.t -> route:Route.t -> Croute.t
(** Selective symbolization of one observed announcement: the NLRI
    address ([addr], 32 bits) and length ([len], 8 bits, seed-constrained
    to [<= 32]), the ORIGIN code ([origin], constrained to [<= 2]), the
    origin AS ([origin_as]) and — when present — MED ([med]). Inputs are
    named by field: each observed announcement explores in its own
    {!Engine.Space}. Defaults are the observed concrete values, so run 0
    retraces the observed execution. *)

val message_bytes : Engine.ctx -> bytes -> Cval.t array
(** Whole-message symbolization: one 8-bit input per byte of the encoded
    message ([b<i>]), defaulting to the observed bytes. *)

val concretize_bytes : Cval.t array -> bytes
(** The concrete message the current run denotes. *)
