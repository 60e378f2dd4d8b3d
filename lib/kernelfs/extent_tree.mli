(** Logical-to-physical extent map of one inode.

    Mirrors the role of the ext4 extent tree: it maps runs of logical file
    blocks to runs of physical blocks. Extents never overlap; adjacent
    extents that are also physically adjacent are merged. This structure is
    what the relink primitive manipulates. *)

type t

type extent = { logical : int; physical : int; len : int }

val create : unit -> t

(** An independent copy, in O(1): the map is persistent. *)
val copy : t -> t

val is_empty : t -> bool

(** Number of extents (tree size). *)
val count : t -> int

(** Total mapped blocks. *)
val blocks : t -> int

(** [find t lblk] returns [(physical_block, run)] where [run] is the number
    of blocks mapped contiguously starting at [lblk], or [None] for a hole. *)
val find : t -> int -> (int * int) option

(** [insert t ~logical ~physical ~len] maps a fresh range. Raises
    [Invalid_argument] if any block in the range is already mapped. *)
val insert : t -> logical:int -> physical:int -> len:int -> unit

(** [remove_range t ~logical ~len] unmaps the range and returns the removed
    extents (possibly split at the boundaries). Holes inside the range are
    skipped. *)
val remove_range : t -> logical:int -> len:int -> extent list

(** [next_mapped t lblk] is the smallest mapped logical block [>= lblk], or
    [None]. Used to bound runs of unmapped blocks. *)
val next_mapped : t -> int -> int option

(** Remove every extent. *)
val clear : t -> unit

(** All extents, sorted by logical block. *)
val to_list : t -> extent list

val iter : (extent -> unit) -> t -> unit

(** Internal invariant check for tests: sorted, non-overlapping, merged. *)
val check_invariants : t -> bool
