(** U-Split: the user-space library file system of SplitFS (paper §3).

    Data operations (read, overwrite, append) are served in user space
    through a collection of memory-mappings and staging files; metadata
    operations pass through to the kernel file system (ext4 DAX). Appends —
    and, in strict mode, overwrites — are staged and then logically moved
    to the target file by the relink primitive on fsync or close.

    Each mounted instance has its own mode (POSIX / sync / strict /
    fams), staging pool and operation log, so concurrent applications can
    pick different guarantees (§3.2). In fams mode every store stages
    with no per-store fence and stays invisible to crash recovery until
    fsync (= msync) publishes it atomically behind an op-log commit
    record. *)

type t

(** Mount a U-Split instance over the kernel file system reachable through
    [sys]. [instance] names the per-process staging directory and
    operation log (a real deployment would use the pid). Pre-allocates the
    staging pool and, in sync/strict/fams modes, the zero-initialised
    operation log. *)
val mount :
  ?cfg:Config.t ->
  sys:Kernelfs.Syscall.t ->
  env:Pmem.Env.t ->
  instance:int ->
  unit ->
  t

(** A copy of a quiescent [t] (no operation in progress) on [sys] and
    [env], clones of the ones it runs on ({!Kernelfs.Syscall.clone},
    {!Pmem.Env.clone}): file states, descriptors, staging pool and op log
    copied, every mapping replaced by [mapping]'s copy of it (the kernel
    clone's, so U-Split and the kernel share each copy as they share the
    original). *)
val clone :
  t ->
  sys:Kernelfs.Syscall.t ->
  env:Pmem.Env.t ->
  mapping:(Kernelfs.Ext4.mapping -> Kernelfs.Ext4.mapping) ->
  t

(** The POSIX-like view used by applications; every call charges simulated
    time according to the SplitFS protocol for the instance's mode. *)
val as_fsapi : t -> Fsapi.Fs.t

val config : t -> Config.t

(** The instance's operation log ([None] in POSIX mode). *)
val oplog : t -> Oplog.t option

(** Relink every file with staged data and clear the log — the checkpoint
    that runs when the operation log fills (§3.3). Also useful in tests
    and before process handoffs. *)
val relink_all : t -> unit

(** [snapshot t src dst] — instant snapshot of a file or directory tree:
    [src]'s staged data is published first (an msync, commit-record
    protected in fams mode), then its extent map is cloned block-for-block
    into [dst] in one kernel journal transaction — O(metadata), no data
    copied. Cloned blocks are shared copy-on-write: the next in-place
    store through either owner breaks the share. A directory [src]
    snapshots every regular file beneath it (the per-tenant case). *)
val snapshot : t -> string -> string -> unit

(** The cached mappings whose pages differ from a fresh derivation from
    their file's extent tree, as (file path, mapping offset): empty
    whenever every kernel change of a file's blocks refreshed the
    mappings over it (test hook). *)
val stale_mappings : t -> (string * int) list

(** Approximate DRAM footprint of the instance's bookkeeping (fd table,
    attribute cache, collection of mmaps, shadow maps) — the §5.10
    resource-consumption measurement. *)
val memory_usage : t -> int

(** [scrub t ~wear_limit] runs one background scrubber patrol: file data
    sitting on blocks worn to [wear_limit] writes (or holding poisoned
    lines) is migrated to fresh blocks and the bad blocks are retired.
    Runs on the background thread, off the critical path. Returns the
    number of blocks migrated. *)
val scrub : t -> wear_limit:int -> int

(** [fork t ~instance] models fork() (§3.5): the child inherits every open
    descriptor (kernel fds dup'ed, offsets copied, dup-sharing preserved)
    and gets its own staging pool and log. Staged data is settled first.
    Returns the child and a parent-fd → child-fd map. *)
val fork : t -> instance:int -> t * (int * int) list

(** [execve t] models exec() (§3.5): U-Split's DRAM state dies, kernel fds
    survive. Bookkeeping crosses the boundary through a shared-memory
    handoff file; the fresh instance re-adopts the still-open kernel fds
    (including unlinked files). Returns the new instance and the fd map. *)
val execve : t -> t * (int * int) list
