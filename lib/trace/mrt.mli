(** A compact MRT-inspired binary serialization of traces, so generated
    workloads can be written once and replayed across experiments (and so
    the repository exercises a real on-disk format, like the RouteViews
    dumps the paper consumes). *)

val write : Gen.t -> bytes
(** Serialize a trace. *)

val read : bytes -> Gen.t
(** @raise Invalid_argument on a corrupt image: bad magic, a field cut
    short, a dump or event count larger than the bytes left can hold
    (checked before anything is allocated for it), or bytes after the
    last event. *)

val save : string -> Gen.t -> unit
(** Write to a file. *)

val load : string -> Gen.t
(** Read from a file. @raise Sys_error / Invalid_argument. *)
