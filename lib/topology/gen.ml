open Dice_inet
module Rng = Dice_util.Rng
module Spec = Topology.Spec

let base_asn = 3000

let auto_tier1 n = min 8 (max 1 (n / 4))

(* Preferential attachment over the already-placed domains, as in
   Dice_trace.Asgraph: roulette over degree+1, so early well-connected
   providers keep attracting customers and the degree distribution goes
   heavy-tailed like the real AS graph. *)
let roulette rng deg upto =
  let total = ref 0 in
  for j = 0 to upto - 1 do
    total := !total + deg.(j) + 1
  done;
  let r = Rng.int rng !total in
  let acc = ref 0 and hit = ref 0 in
  (try
     for j = 0 to upto - 1 do
       acc := !acc + deg.(j) + 1;
       if r < !acc then begin
         hit := j;
         raise Exit
       end
     done
   with Exit -> ());
  !hit

let generate ~seed ~domains () =
  if domains < 1 then invalid_arg "Gen.generate: domains must be positive";
  if domains > Spec.max_domains then
    invalid_arg
      (Printf.sprintf "Gen.generate: at most %d domains" Spec.max_domains);
  let rng = Rng.create seed in
  let n = domains in
  let t1 = auto_tier1 n in
  let speaker_arr = Array.of_list Dice_core.Speakers.names in
  let name i = Printf.sprintf "d%d" i in
  let prefix_of i octet1 =
    Prefix.make (Ipv4.of_octets octet1 (64 + (i / 256)) (i mod 256) 0) 24
  in
  let specs =
    List.init n (fun i ->
        let prefixes =
          if Rng.chance rng 0.3 then [ prefix_of i 100; prefix_of i 101 ]
          else [ prefix_of i 100 ]
        in
        Spec.domain ~speaker:(Rng.pick rng speaker_arr) ~prefixes (name i)
          ~asn:(base_asn + i))
  in
  let deg = Array.make n 0 in
  let linked = Hashtbl.create (4 * n) in
  let links = ref [] in
  let add_link l i j =
    links := l :: !links;
    deg.(i) <- deg.(i) + 1;
    deg.(j) <- deg.(j) + 1;
    Hashtbl.replace linked (min i j, max i j) ()
  in
  (* tier-1 core: a full settlement-free mesh *)
  for i = 1 to t1 - 1 do
    for j = 0 to i - 1 do
      add_link (Spec.peering (name j) (name i)) i j
    done
  done;
  (* everyone below the core buys transit from one or two established
     providers, then sometimes peers sideways with an unrelated domain *)
  for i = t1 to n - 1 do
    let p1 = roulette rng deg i in
    add_link (Spec.transit ~customer:(name i) ~provider:(name p1) ()) i p1;
    if Rng.chance rng 0.3 then begin
      let p2 = roulette rng deg i in
      if not (Hashtbl.mem linked (min i p2, max i p2)) then
        add_link (Spec.transit ~customer:(name i) ~provider:(name p2) ()) i p2
    end;
    if i > t1 && Rng.chance rng 0.15 then begin
      let j = t1 + Rng.int rng (i - t1) in
      if j <> i && not (Hashtbl.mem linked (min i j, max i j)) then
        add_link (Spec.peering (name i) (name j)) i j
    end
  done;
  Spec.make ~domains:specs ~links:(List.rev !links) ()
