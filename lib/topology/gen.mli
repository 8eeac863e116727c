(** Seeded AS-level topology synthesis.

    Builds fleet-scale {!Topology.Spec} graphs on the shared
    {!Dice_trace.Asgraph} generator — a tier-1 clique of
    settlement-free peers, every later domain buying transit from one
    or two providers picked by preferential attachment, plus
    occasional sideways peering — and maps its links to
    {!Topology.Spec.transit} and {!Topology.Spec.peering}. The graph is
    connected by construction, valley-free by the spec's export
    policies, and a pure function of the seed: the same
    [(seed, domains)] pair regenerates the identical spec, byte for
    byte through {!Topology.Spec.to_string}, which is what lets
    [gen-topology --seed S --domains N] emit a file any run can replay.
    The domains' own draws come first and the graph's after them, from
    one stream.

    Domains are named [d0..dN-1] with ASNs [3000+i], originate one
    (sometimes two) /24s from the 100/101.x test ranges, and draw their
    speaker implementation from the whole {!Dice_core.Speakers.names}
    registry — heterogeneous by construction. *)

val base_asn : int
(** 3000. *)

val generate : seed:int64 -> domains:int -> unit -> Topology.Spec.t
(** @raise Invalid_argument on a non-positive domain count or a count
    beyond {!Topology.Spec.max_domains}. *)
