(** The U-Split operation log (paper §3.3, "Optimized logging").

    Logical redo log of 64-byte entries; in the common case one operation
    writes exactly one entry with a single non-temporal store, and the
    caller's single sfence covers the staged data and the log entry
    together. A 4-byte CRC32 inside the entry replaces the second fence a
    tail-update-based log (like NOVA's) would need: recovery treats a
    non-zero entry whose checksum verifies as valid, everything else as
    torn. The tail lives only in DRAM as an [Atomic.int]. *)

val entry_size : int
(** 64 bytes. *)

type data_op = {
  target_ino : int;
  file_off : int;
  staging_ino : int;
  staging_off : int;
  len : int;
  data_crc : int;
      (** CRC32 of the staged bytes the entry points to; recovery verifies
          it before replaying the final (possibly data-torn) entry, since
          the entry and its data share one sfence *)
}

type entry =
  | Append of data_op
  | Overwrite of data_op
  | Relinked of { target_ino : int }
      (** all staged data of [target_ino] up to this point has been
          relinked; earlier entries for it are satisfied *)
  | Create of { ino : int }
  | Unlink of { ino : int }
  | Rename of { ino : int }
  | Truncate of { ino : int; size : int }
  | Fams_append of data_op
      (** fams-staged append: invisible to recovery until a later
          [Msync_commit] for the same inode promotes it *)
  | Fams_overwrite of data_op  (** fams-staged overwrite, same contract *)
  | Msync_commit of { target_ino : int }
      (** the msync commit record: every fams-staged entry for
          [target_ino] logged before this point is now published *)
  | Snapshot of { target_ino : int; snap_ino : int }
      (** a snapshot of [target_ino] was published into [snap_ino]
          (kernel-atomic extent clone); a barrier marker like [Create] *)

(** Serialise to a 64-byte slot (checksum filled in). *)
val encode : entry -> Bytes.t

type decoded = Valid of entry | Torn | Empty

(** Classify the 64-byte slot at [off] where it lies, copying nothing:
    all-zero = [Empty], checksum mismatch = [Torn]. The checksum is
    chained over the slot with its CRC field read as four zero bytes,
    which is the checksum {!encode} stored. [verify:false] skips checksum
    verification — the injected bug crashcheck's differential test must
    catch (campaigns set it from [Env.checks.verify_checksums]; default
    true). *)
val decode : ?verify:bool -> Bytes.t -> off:int -> decoded

type t

(** The log file of U-Split instance [instance]: mount creates it there,
    recovery scans it there. *)
val instance_path : int -> string

(** Create (or adopt) the log file at [path], pre-allocate and
    zero-initialise it, and map it for user-space stores. *)
val create :
  sys:Kernelfs.Syscall.t -> env:Pmem.Env.t -> path:string -> size:int -> t

(** A copy of [t] on [sys] and [env], clones of its own: the tail
    copied, the log's mapping replaced by [mapping]'s copy of it. *)
val clone :
  t ->
  sys:Kernelfs.Syscall.t ->
  env:Pmem.Env.t ->
  mapping:(Kernelfs.Ext4.mapping -> Kernelfs.Ext4.mapping) ->
  t

val path : t -> string
val capacity : t -> int
(** Slots. *)

val entries_written : t -> int
(** Current DRAM tail. *)

(** Append one entry: one NT store, no fence (the caller fences). Raises
    ENOSPC if full — U-Split checkpoints before that can happen. *)
val append : t -> entry -> unit

(** Zero the used prefix and reset the tail (checkpoint reuse, §3.3):
    slot 0 alone under its own fence, then the rest. *)
val clear : t -> unit

(** [reset sys path ~used] is {!clear}'s head-first zeroing of the
    first [used] slots of the log file at [path], through kernel pwrites
    (recovery, after the mapping died with the process). *)
val reset : Kernelfs.Syscall.t -> string -> used:int -> unit

type scan_result = { valid : entry list; torn : int; scanned : int }

(** Recovery-side scan through the kernel: collect valid entries in order
    up to the first torn slot (replay never skips over a bad checksum),
    keep scanning to the first all-zero slot so [scanned] covers the whole
    non-zero prefix; slots at or beyond the first torn one count as
    [torn]. The log is read in preads of up to 64 KiB into one buffer
    kept per domain and decoded in place, so a scan allocates no buffer
    once its domain has scanned a log as long. *)
val scan : ?verify:bool -> Kernelfs.Syscall.t -> string -> scan_result
