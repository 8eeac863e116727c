open Dice_inet
module Rng = Dice_util.Rng
module Spec = Topology.Spec
module Asgraph = Dice_trace.Asgraph

let base_asn = 3000

let generate ~seed ~domains () =
  if domains < 1 then invalid_arg "Gen.generate: domains must be positive";
  if domains > Spec.max_domains then
    invalid_arg
      (Printf.sprintf "Gen.generate: at most %d domains" Spec.max_domains);
  let rng = Rng.create seed in
  let n = domains in
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
  (* the graph draws from the same stream, after the domains' draws *)
  let graph = Asgraph.generate ~rng n in
  let link = function
    | Asgraph.Transit { customer; provider } ->
      Spec.transit ~customer:(name customer) ~provider:(name provider) ()
    | Asgraph.Peering (a, b) -> Spec.peering (name a) (name b)
  in
  Spec.make ~domains:specs ~links:(List.map link (Asgraph.links graph)) ()
