open Dice_inet
module Rng = Dice_util.Rng

type entry = {
  prefix : Prefix.t;
  as_path : int list;
  origin : Dice_bgp.Attr.origin;
  med : int option;
}

type event =
  | Announce of { time : float; entry : entry }
  | Withdraw of { time : float; prefix : Prefix.t }

let event_time = function
  | Announce { time; _ } -> time
  | Withdraw { time; _ } -> time

type t = {
  collector_as : int;
  dump : entry array;
  events : event array;
  duration : float;
}

type params = {
  seed : int64;
  n_prefixes : int;
  n_ases : int;
  collector_as : int;
  duration : float;
  update_rate : float;
  withdraw_fraction : float;
}

let default_params =
  {
    seed = 42L;
    n_prefixes = 20_000;
    n_ases = 600;
    collector_as = 64700;
    duration = 900.0;
    update_rate = 0.3;
    withdraw_fraction = 0.2;
  }

(* Prefix-length distribution roughly matching a 2010-era global table:
   dominated by /24 with mass at /16..../22. *)
let len_table =
  [| (8, 1); (9, 1); (10, 1); (11, 2); (12, 3); (13, 4); (14, 6); (15, 7); (16, 14);
     (17, 7); (18, 9); (19, 13); (20, 15); (21, 13); (22, 18); (23, 15); (24, 54) |]

let len_total = Array.fold_left (fun acc (_, w) -> acc + w) 0 len_table

let sample_len rng =
  let target = Rng.int rng len_total in
  let rec go i acc =
    let len, w = len_table.(i) in
    let acc = acc + w in
    if acc > target then len else go (i + 1) acc
  in
  go 0 0

(* Random globally-routable address: avoid 0/8, 10/8, 127/8, 224/3. *)
let sample_addr rng =
  let rec go () =
    let a = Rng.int_in rng 1 223 in
    if a = 10 || a = 127 then go ()
    else
      Ipv4.of_octets a (Rng.int rng 256) (Rng.int rng 256) (Rng.int rng 256)
  in
  go ()

(* Graph node [i] is AS [base_asn + i], above the testbed's own AS
   numbers. *)
let base_asn = 64600

let sample_origin rng =
  let r = Rng.int rng 100 in
  if r < 75 then Dice_bgp.Attr.Igp
  else if r < 80 then Dice_bgp.Attr.Egp
  else Dice_bgp.Attr.Incomplete

let generate p =
  if p.n_prefixes < 1 then invalid_arg "Gen.generate: need at least one prefix";
  let rng = Rng.create p.seed in
  let graph_rng = Rng.split rng in
  let graph = Asgraph.generate ~rng:graph_rng p.n_ases in
  let seen : (Prefix.t, unit) Hashtbl.t = Hashtbl.create (2 * p.n_prefixes) in
  let mk_entry prefix =
    let chain = Asgraph.climb graph ~rng (Asgraph.random_node graph ~rng) in
    (* a chain through the collector's own AS skips it: paths stay
       loop-free *)
    let as_path =
      p.collector_as
      :: List.filter_map
           (fun i ->
             let asn = base_asn + i in
             if asn = p.collector_as then None else Some asn)
           chain
    in
    {
      prefix;
      as_path;
      origin = sample_origin rng;
      med = (if Rng.chance rng 0.25 then Some (Rng.int rng 200) else None);
    }
  in
  let dump =
    Array.init p.n_prefixes (fun _ ->
        let rec fresh guard =
          let prefix = Prefix.make (sample_addr rng) (sample_len rng) in
          if Hashtbl.mem seen prefix && guard > 0 then fresh (guard - 1)
          else begin
            Hashtbl.replace seen prefix ();
            prefix
          end
        in
        mk_entry (fresh 64))
  in
  Array.sort (fun a b -> Prefix.compare a.prefix b.prefix) dump;
  (* update tail: churn over dump prefixes *)
  let events = ref [] in
  let time = ref 0.0 in
  let withdrawn : (Prefix.t, unit) Hashtbl.t = Hashtbl.create 64 in
  while !time < p.duration do
    time := !time +. Rng.exponential rng p.update_rate;
    if !time < p.duration then begin
      let e = dump.(Rng.int rng (Array.length dump)) in
      if Hashtbl.mem withdrawn e.prefix then begin
        (* re-announce a previously withdrawn prefix *)
        Hashtbl.remove withdrawn e.prefix;
        events := Announce { time = !time; entry = mk_entry e.prefix } :: !events
      end
      else if Rng.chance rng p.withdraw_fraction then begin
        Hashtbl.replace withdrawn e.prefix ();
        events := Withdraw { time = !time; prefix = e.prefix } :: !events
      end
      else
        (* path churn: same prefix, new path *)
        events := Announce { time = !time; entry = mk_entry e.prefix } :: !events
    end
  done;
  {
    collector_as = p.collector_as;
    dump;
    events = Array.of_list (List.rev !events);
    duration = p.duration;
  }

let update_of_entry ~next_hop (e : entry) =
  let open Dice_bgp in
  let attrs =
    [ Attr.Origin e.origin; Attr.As_path [ Dice_inet.Asn.Path.Seq e.as_path ]; Attr.Next_hop next_hop ]
  in
  let attrs =
    match e.med with
    | Some m -> attrs @ [ Attr.Med m ]
    | None -> attrs
  in
  Msg.Update { withdrawn = []; attrs; nlri = [ e.prefix ] }

let to_updates (t : t) ~peer_as ~next_hop =
  (* the sending session's AS takes the collector's place at the head *)
  let from_peer = function
    | first :: rest when first = t.collector_as -> peer_as :: rest
    | path -> peer_as :: path
  in
  Array.to_list
    (Array.map (fun e -> update_of_entry ~next_hop { e with as_path = from_peer e.as_path }) t.dump)

let event_update ~entry_next_hop = function
  | Announce { entry; _ } -> update_of_entry ~next_hop:entry_next_hop entry
  | Withdraw { prefix; _ } ->
    Dice_bgp.Msg.Update { withdrawn = [ prefix ]; attrs = []; nlri = [] }
