module Wbuf = Dice_wire.Wbuf
module Rbuf = Dice_wire.Rbuf

let magic = "DICEMRT1"

let origin_code = Dice_bgp.Attr.origin_code

let origin_of_code c =
  match Dice_bgp.Attr.origin_of_code c with
  | Some o -> o
  | None -> invalid_arg (Printf.sprintf "Mrt: bad origin code %d" c)

(* prefixes as in the speakers' images: u8 length, u32 network *)
let encode_prefix = Dice_bgp.Pipeline.put_prefix
let decode_prefix = Dice_bgp.Pipeline.get_prefix

let encode_entry w (e : Gen.entry) =
  encode_prefix w e.prefix;
  Wbuf.u8 w (List.length e.as_path);
  List.iter (Wbuf.u32 w) e.as_path;
  Wbuf.u8 w (origin_code e.origin);
  match e.med with
  | Some m ->
    Wbuf.u8 w 1;
    Wbuf.u32 w m
  | None -> Wbuf.u8 w 0

let decode_entry r =
  let prefix = decode_prefix r in
  let n = Rbuf.u8 ~what:"path len" r in
  let as_path = List.init n (fun _ -> Rbuf.u32 ~what:"asn" r) in
  let origin = origin_of_code (Rbuf.u8 ~what:"origin" r) in
  let med = if Rbuf.u8 ~what:"has med" r = 1 then Some (Rbuf.u32 ~what:"med" r) else None in
  { Gen.prefix; as_path; origin; med }

(* times are stored exactly, as the two 32-bit halves of the float's bits *)
let encode_time w t =
  let bits = Int64.bits_of_float t in
  Wbuf.u32 w (Int64.to_int (Int64.shift_right_logical bits 32));
  Wbuf.u32 w (Int64.to_int (Int64.logand bits 0xFFFFFFFFL))

let decode_time r =
  let hi = Rbuf.u32 ~what:"time hi" r in
  let lo = Rbuf.u32 ~what:"time lo" r in
  Int64.float_of_bits (Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo))

let write (t : Gen.t) =
  let w = Wbuf.create ~capacity:(64 * Array.length t.dump) () in
  Wbuf.string w magic;
  Wbuf.u32 w t.collector_as;
  encode_time w t.duration;
  Wbuf.u32 w (Array.length t.dump);
  Array.iter (encode_entry w) t.dump;
  Wbuf.u32 w (Array.length t.events);
  Array.iter
    (fun ev ->
      match ev with
      | Gen.Announce { time; entry } ->
        Wbuf.u8 w 1;
        encode_time w time;
        encode_entry w entry
      | Gen.Withdraw { time; prefix } ->
        Wbuf.u8 w 2;
        encode_time w time;
        encode_prefix w prefix)
    t.events;
  Wbuf.contents w

(* A count must fit the bytes left at the smallest encoding of its
   items — 8 bytes per dump entry (prefix, path length, origin, MED
   flag), 14 per event (type, time, withdrawn prefix) — so a corrupt
   count fails here instead of sizing an allocation. *)
let count r ~what ~min_size =
  let n = Rbuf.u32 ~what r in
  if n > Rbuf.remaining r / min_size then
    invalid_arg
      (Printf.sprintf "Mrt.read: %s %d exceeds the %d bytes left" what n (Rbuf.remaining r));
  n

let read bytes =
  try
    let r = Rbuf.of_bytes bytes in
    let m = Bytes.to_string (Rbuf.take ~what:"magic" r (String.length magic)) in
    if m <> magic then invalid_arg "Mrt.read: bad magic";
    let collector_as = Rbuf.u32 ~what:"collector" r in
    let duration = decode_time r in
    let n_dump = count r ~what:"dump count" ~min_size:8 in
    let dump = Array.init n_dump (fun _ -> decode_entry r) in
    let n_events = count r ~what:"event count" ~min_size:14 in
    let events =
      Array.init n_events (fun _ ->
          match Rbuf.u8 ~what:"event type" r with
          | 1 ->
            let time = decode_time r in
            Gen.Announce { time; entry = decode_entry r }
          | 2 ->
            let time = decode_time r in
            Gen.Withdraw { time; prefix = decode_prefix r }
          | c -> invalid_arg (Printf.sprintf "Mrt.read: bad event type %d" c))
    in
    if not (Rbuf.eof r) then
      invalid_arg (Printf.sprintf "Mrt.read: trailing bytes at %d" (Rbuf.pos r));
    { Gen.collector_as; dump; events; duration }
  with Rbuf.Truncated what -> invalid_arg ("Mrt.read: truncated at " ^ what)

let save path t =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc (write t))

let load path = read (Bytes.of_string (In_channel.with_open_bin path In_channel.input_all))
