(** The origin-misconfiguration / route-leak checker (paper §4.2).

    For each exploratory announcement, checks whether the route was
    accepted and "overrides the origin AS of a route already in the
    routing table prior to starting exploration" — the signature of the
    Pakistan Telecom / YouTube class of incidents. Prefixes inside the
    configured anycast whitelist are exempt (legitimately multi-origin).

    Two findings:
    - {e origin-hijack}: an accepted announcement claims, for existing
      address space, an origin AS different from the trusted one
      (same-prefix override, or a more-specific carve-out which wins by
      longest-prefix-match);
    - {e filter-leak}: an accepted announcement whose origin AS is the
      announcing customer itself but for address space the customer does
      not hold — the filter let it through, so the range is leakable. *)

val checker : Checker.t

val leakable_summary : Checker.fault list -> (Dice_inet.Prefix.t * int) list
(** Aggregate faults into (prefix range, fault count) pairs, sorted —
    "DiCE clearly states which prefix ranges can be leaked".
    Cross-implementation divergence reports ({!Panel}) are excluded:
    they describe speaker disagreement, not leakable address space. *)
