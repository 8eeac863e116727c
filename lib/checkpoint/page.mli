(** Fixed-size memory pages.

    The checkpoint store models process address space the way [fork()]'s
    copy-on-write does: state is carved into pages, identical pages are
    shared, and a clone only owns the pages it has dirtied. Page identity is
    content-based (a 64-bit hash plus length), which both deduplicates and
    lets us count "unique pages" exactly as the paper's memory-overhead
    experiment does. *)

val default_size : int
(** 4096 bytes, like the evaluation machine's MMU. *)

type id = private { hash : int64; len : int }
(** Content identity of one page. *)

val id_of : bytes -> int -> int -> id
(** [id_of buf off len] identifies the page [buf.(off .. off+len-1)]. *)

val split : page_size:int -> bytes -> id list
(** Carve a byte sequence into pages of [page_size] (last page may be
    short) and identify each, in address order. *)

val count : page_size:int -> int -> int
(** Number of pages needed for a state of the given byte size. *)

val equal_id : id -> id -> bool
