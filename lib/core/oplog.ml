(** The U-Split operation log (paper §3.3, "Optimized logging").

    Logical redo log; in the common case one operation writes exactly one
    64-byte entry with a single non-temporal store, and the caller issues a
    single sfence covering both the entry and the staged data. A 4-byte
    CRC32 inside the entry replaces the second fence that a
    tail-update-based log (like NOVA's) would need: recovery treats any
    non-zero entry whose checksum verifies as valid and everything else as
    torn.

    The tail lives only in DRAM as an [Atomic.int] — concurrent threads
    advance it with fetch-and-add and write their slots independently. It is
    never persisted; recovery reconstructs validity purely from checksums
    over the zero-initialised log file. *)

open Pmem

let entry_size = 64

(* Registered fence sites (fence minimization, crashcheck litmus). *)
let site_init = Device.register_fence_site "oplog:init"
let site_clear_head = Device.register_fence_site "oplog:clear-head"
let site_clear_rest = Device.register_fence_site "oplog:clear-rest"

type data_op = {
  target_ino : int;
  file_off : int;
  staging_ino : int;
  staging_off : int;
  len : int;
  data_crc : int;
      (** CRC32 of the staged bytes the entry points to. The entry and its
          data share one sfence, so the entry can survive a crash while
          the data is torn; recovery verifies this checksum before
          replaying the final (possibly data-torn) entry. *)
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

(* --- codec --- *)

let kind_of_entry = function
  | Append _ -> 1
  | Overwrite _ -> 2
  | Relinked _ -> 3
  | Create _ -> 4
  | Unlink _ -> 5
  | Rename _ -> 6
  | Truncate _ -> 7
  | Fams_append _ -> 8
  | Fams_overwrite _ -> 9
  | Msync_commit _ -> 10
  | Snapshot _ -> 11

let encode entry =
  let b = Bytes.make entry_size '\000' in
  Bytes.set_uint8 b 0 (kind_of_entry entry);
  let set_ino i = Bytes.set_int64_le b 8 (Int64.of_int i) in
  (match entry with
  | Append op | Overwrite op | Fams_append op | Fams_overwrite op ->
      set_ino op.target_ino;
      Bytes.set_int64_le b 16 (Int64.of_int op.file_off);
      Bytes.set_int64_le b 24 (Int64.of_int op.staging_ino);
      Bytes.set_int64_le b 32 (Int64.of_int op.staging_off);
      Bytes.set_int64_le b 40 (Int64.of_int op.len);
      Bytes.set_int32_le b 48 (Int32.of_int op.data_crc)
  | Relinked { target_ino } | Msync_commit { target_ino } -> set_ino target_ino
  | Create { ino } | Unlink { ino } | Rename { ino } -> set_ino ino
  | Truncate { ino; size } ->
      set_ino ino;
      Bytes.set_int64_le b 16 (Int64.of_int size)
  | Snapshot { target_ino; snap_ino } ->
      set_ino target_ino;
      Bytes.set_int64_le b 16 (Int64.of_int snap_ino));
  let crc = Fsapi.Crc32.bytes b in
  Bytes.set_int32_le b 4 (Int32.of_int crc);
  b

type decoded = Valid of entry | Torn | Empty

(* [verify:false] skips checksum verification — the "forgot to verify"
   bug that crashcheck's differential test must catch. Tests only; the
   campaign flag lives in [Env.checks.verify_checksums]. *)
let decode ?(verify = true) b ~off =
  let is_zero = ref true in
  for i = off to off + entry_size - 1 do
    if Bytes.get b i <> '\000' then is_zero := false
  done;
  if !is_zero then Empty
  else begin
    let stored = Int32.to_int (Bytes.get_int32_le b (off + 4)) land 0xFFFFFFFF in
    let copy = Bytes.sub b off entry_size in
    Bytes.set_int32_le copy 4 0l;
    if verify && Fsapi.Crc32.bytes copy <> stored then Torn
    else begin
      let geti pos = Int64.to_int (Bytes.get_int64_le copy pos) in
      let data_op () =
        {
          target_ino = geti 8;
          file_off = geti 16;
          staging_ino = geti 24;
          staging_off = geti 32;
          len = geti 40;
          data_crc =
            Int32.to_int (Bytes.get_int32_le copy 48) land 0xFFFFFFFF;
        }
      in
      match Bytes.get_uint8 copy 0 with
      | 1 -> Valid (Append (data_op ()))
      | 2 -> Valid (Overwrite (data_op ()))
      | 3 -> Valid (Relinked { target_ino = geti 8 })
      | 4 -> Valid (Create { ino = geti 8 })
      | 5 -> Valid (Unlink { ino = geti 8 })
      | 6 -> Valid (Rename { ino = geti 8 })
      | 7 -> Valid (Truncate { ino = geti 8; size = geti 16 })
      | 8 -> Valid (Fams_append (data_op ()))
      | 9 -> Valid (Fams_overwrite (data_op ()))
      | 10 -> Valid (Msync_commit { target_ino = geti 8 })
      | 11 -> Valid (Snapshot { target_ino = geti 8; snap_ino = geti 16 })
      | _ -> Torn
    end
  end

(* --- the log itself --- *)

type t = {
  sys : Kernelfs.Syscall.t;
  env : Env.t;
  path : string;
  kfd : int;
  mapping : Kernelfs.Ext4.mapping;
  capacity : int;  (** entries *)
  tail : int Atomic.t;
}

let dev_addr t ~off =
  match
    Kernelfs.Ext4.translate (Kernelfs.Syscall.kernel t.sys) t.mapping
      ~max:entry_size ~file_off:off
  with
  | Some (addr, run) when run >= entry_size -> addr
  | _ -> Fsapi.Errno.(error EINVAL "oplog: unmapped slot")

let zero_range t ~off ~len =
  let pos = ref off in
  let kfs = Kernelfs.Syscall.kernel t.sys in
  while !pos < off + len do
    match Kernelfs.Ext4.translate kfs t.mapping ~max:(off + len - !pos) ~file_off:!pos with
    | Some (addr, run) ->
        let n = min run (off + len - !pos) in
        Device.zero_nt t.env.Env.dev ~addr ~len:n;
        pos := !pos + n
    | None -> Fsapi.Errno.(error EINVAL "oplog: hole")
  done

let instance_path instance = Printf.sprintf "/.splitfs-oplog-%d" instance

let create ~sys ~env ~path ~size =
  let size = size / entry_size * entry_size in
  let kfd = Kernelfs.Syscall.open_ sys path Fsapi.Flags.create_rw in
  let allocated = Kernelfs.Syscall.fallocate sys kfd ~off:0 ~len:size in
  Kernelfs.Syscall.set_size sys kfd size;
  let mapping = Kernelfs.Syscall.mmap sys kfd ~off:0 ~len:size in
  let t =
    {
      sys;
      env;
      path;
      kfd;
      mapping;
      capacity = size / entry_size;
      tail = Atomic.make 0;
    }
  in
  (* Zero-initialise so recovery can treat non-zero slots as potentially
     valid; only needed for freshly allocated blocks. *)
  if allocated > 0 then zero_range t ~off:0 ~len:size;
  Device.fence ~site:site_init env.Env.dev;
  t

let entries_written t = Atomic.get t.tail
let capacity t = t.capacity
let path t = t.path

(** The one crash-atomic clear of the first [used] slots, for checkpoint
    reuse (§3.3) and recovery's reset alike. Zeroing the whole used
    region under one fence is not safe: a crash may persist an arbitrary
    subset of the zero-stores, and if it keeps a stale prefix of entries
    while dropping the slots behind it (including the Relinked markers
    that cancel them), recovery replays stale data over the freshly
    relinked file. Instead: zero slot 0 alone and order it — after this
    the log is durably either untouched (the full entry sequence, whose
    Relinked entries cancel all replay, or which a finished recovery
    already applied) or empty-at-the-head (scan stops immediately); both
    are safe — then zero the remaining slots. [zero ~off ~len ~site]
    zeroes that byte range of the log and orders it behind a fence;
    [site] names the step for the fence-site registry. *)
let clear_slots ~used zero =
  if used > 0 then begin
    zero ~off:0 ~len:entry_size ~site:site_clear_head;
    if used > 1 then
      zero ~off:entry_size ~len:((used - 1) * entry_size) ~site:site_clear_rest
  end

let clear t =
  clear_slots ~used:(Atomic.get t.tail) (fun ~off ~len ~site ->
      zero_range t ~off ~len;
      Device.fence ~site t.env.Env.dev);
  Atomic.set t.tail 0

(* Longest pread or pwrite recovery's scan and reset issue; a buffer is
   sized to the bytes it covers up to this. *)
let max_io = 65536

(** Recovery's reset: {!clear_slots} over the log file at [path] through
    the kernel, since U-Split's mapping died with the process. Each step
    is ext4 pwrites of zeros, and each ext4 pwrite ends in its own fence
    (at the [ext4:pwrite] site). *)
let reset sys path ~used =
  let fd = Kernelfs.Syscall.open_ sys path Fsapi.Flags.rdwr in
  Fun.protect
    ~finally:(fun () -> Kernelfs.Syscall.close sys fd)
    (fun () ->
      let size = (Kernelfs.Syscall.fstat sys fd).Fsapi.Fs.st_size in
      let used = min used (size / entry_size) in
      (* one zero buffer as long as the longest pwrite below, if any *)
      let zeros =
        if used = 0 then Bytes.empty
        else Bytes.make (min max_io (used * entry_size)) '\000'
      in
      clear_slots ~used
        (fun ~off ~len ~site:_ ->
          let pos = ref off in
          while !pos < off + len do
            let n = min (Bytes.length zeros) (off + len - !pos) in
            ignore
              (Kernelfs.Syscall.pwrite sys fd ~buf:zeros ~boff:0 ~len:n
                 ~at:!pos);
            pos := !pos + n
          done))

(** Append one entry with a single non-temporal store. No fence is issued
    here: the caller's one sfence covers staged data and the log entry
    together. The caller (U-Split) checkpoints before the log fills; a
    genuinely full log is a protocol bug and raises ENOSPC. *)
let append t entry =
  Env.with_cat t.env Obs.Log_append @@ fun () ->
  let idx = Atomic.fetch_and_add t.tail 1 in
  if idx >= t.capacity then Fsapi.Errno.(error ENOSPC "oplog full");
  let tm = t.env.Env.timing in
  Env.cpu t.env tm.Timing.usplit_log_cpu;
  let b = encode entry in
  Device.store_nt t.env.Env.dev ~addr:(dev_addr t ~off:(idx * entry_size)) b
    ~off:0 ~len:entry_size;
  let stats = t.env.Env.stats in
  stats.Stats.log_entries <- stats.Stats.log_entries + 1

(* --- recovery-side scan --- *)

type scan_result = { valid : entry list; torn : int; scanned : int }

(** Read the log file through the kernel and classify every slot: used at
    mount time by {!Recovery}. Collection stops at the first torn slot —
    replay must never skip over a bad checksum, since everything beyond it
    postdates the tear and cannot be trusted — but scanning continues to
    the first all-zero slot so recovery knows the full non-zero prefix to
    zero (a stale valid-looking entry left beyond a tear must not be
    resurrected when the log is reused). Slots at or beyond the first torn
    one count as torn. *)
let scan ?(verify = true) sys path =
  let fd = Kernelfs.Syscall.open_ sys path Fsapi.Flags.rdonly in
  Fun.protect
    ~finally:(fun () -> Kernelfs.Syscall.close sys fd)
    (fun () ->
      let size = (Kernelfs.Syscall.fstat sys fd).Fsapi.Fs.st_size in
      let chunk = min max_io size in
      let buf = Bytes.create chunk in
      let valid = ref [] and torn = ref 0 and scanned = ref 0 in
      let stop = ref false and trusted = ref true in
      let off = ref 0 in
      while (not !stop) && !off < size do
        let len = min chunk (size - !off) in
        let got = Kernelfs.Syscall.pread sys fd ~buf ~boff:0 ~len ~at:!off in
        let entries = got / entry_size in
        let i = ref 0 in
        while (not !stop) && !i < entries do
          (match decode ~verify buf ~off:(!i * entry_size) with
          | Empty -> stop := true
          | Torn ->
              trusted := false;
              incr torn;
              incr scanned
          | Valid e ->
              if !trusted then valid := e :: !valid else incr torn;
              incr scanned);
          incr i
        done;
        if got < len then stop := true;
        off := !off + got
      done;
      { valid = List.rev !valid; torn = !torn; scanned = !scanned })
