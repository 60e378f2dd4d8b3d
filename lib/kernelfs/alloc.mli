(** Sharded bitmap block allocator for the data area of the simulated
    ext4 file system.

    The device is divided into [shards] allocation groups (ext4
    block-group style), each with its own next-fit cursor, first-free
    hint, and lock. Actors pick a home group by allocation-group
    affinity (actor id mod shards) and steal from neighbours on
    group-local exhaustion; extents never cross a group boundary. With
    one shard (the default) placement is bit-identical to the original
    unsharded next-fit allocator.

    Allocation is next-fit with an optional goal block, and supports
    alignment requests so that staging files and large mmap regions can be
    backed by 2 MB-aligned physical extents (the huge-page discussion of
    paper §4). *)

type t

(** [create ~nblocks ()] makes an allocator over [nblocks] free blocks.
    [faults] wires in the injected-ENOSPC fault point: when the plane
    fires at the [Alloc] site, [alloc_extent] raises ENOSPC as if the
    device were full. [shards] (default 1) splits the device into that
    many allocation groups; [env] wires in the environment whose current
    actor provides group affinity and whose per-shard locks model
    allocator contention. *)
val create :
  ?faults:Faults.t -> ?env:Pmem.Env.t -> ?shards:int -> nblocks:int -> unit -> t

(** A copy of [t] (bitmap, cursors, hints, shard locks), wired to
    [faults] and [env] as {!create} wires a fresh one. *)
val clone : ?faults:Faults.t -> ?env:Pmem.Env.t -> t -> t

val nblocks : t -> int
val free_blocks : t -> int
val used_blocks : t -> int

(** Number of allocation groups. *)
val nshards : t -> int

(** Cross-shard allocations served by a neighbour after the home group
    came up empty. *)
val steals : t -> int

(** [alloc_extent t ~goal ~len] allocates up to [len] contiguous blocks,
    preferring to start at [goal]. Returns [(start, n)] with [1 <= n <= len],
    or raises [Errno.Error ENOSPC] if the device is full. The caller loops to
    obtain more extents when [n < len]. *)
val alloc_extent : t -> goal:int -> len:int -> int * int

(** [alloc_aligned t ~align ~len] allocates exactly [len] contiguous blocks
    starting at a multiple of [align] blocks, or returns [None] when no such
    region exists (fragmentation — the huge-page failure mode). The scan
    starts at the home shard's next-fit cursor and wraps, rather than
    walking the whole device from block 0. *)
val alloc_aligned : t -> align:int -> len:int -> int option

(** [alloc_many t ~goal ~len] allocates exactly [len] blocks as a list of
    extents. *)
val alloc_many : t -> goal:int -> len:int -> (int * int) list

val free_extent : t -> start:int -> len:int -> unit
val is_allocated : t -> int -> bool

(** Take blocks out of service permanently (worn out or holding
    unrecoverable lines): retired blocks are never allocated or freed
    again. Used blocks may be retired after their data is migrated. *)
val retire : t -> start:int -> len:int -> unit

(** Fraction of free space that is in runs shorter than [run] blocks; a
    fragmentation measure used by the huge-page experiments. *)
val fragmentation : t -> run:int -> float
