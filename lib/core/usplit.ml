(** U-Split: the user-space library file system of SplitFS (paper §3).

    Data operations (read, overwrite, append) are served in user space
    through a collection of memory-mappings and staging files; metadata
    operations pass through to the kernel file system (ext4 DAX). Appends —
    and, in strict mode, overwrites — are staged and then logically moved to
    the target file by the relink primitive on fsync or close.

    Each mounted instance has its own mode (POSIX / sync / strict), staging
    pool and operation log, so concurrent applications can pick different
    guarantees (§3.2). *)

open Pmem

let block_size = Kernelfs.Ext4.block_size

(* ------------------------------------------------------------------ *)
(* Per-file state                                                       *)
(* ------------------------------------------------------------------ *)

type file_state = {
  f_ino : int;
  mutable f_path : string;
  f_kfd : int;  (** canonical kernel fd, kept open while the state is cached *)
  mutable ksize : int;  (** size according to the kernel file system *)
  mutable usize : int;  (** size including staged appends *)
  shadow : Kernelfs.Extent_tree.t;
      (** byte-granular map: target offset -> staging-file offset, holding
          every staged byte not yet relinked; the newest write wins *)
  mutable staging : Staging.handle option;
  mutable mmaps : Kernelfs.Ext4.mapping list;  (** collection of mmaps *)
  mutable mmap_index : (int * int * Kernelfs.Ext4.mapping) array;
      (** lookup index over [mmaps]: disjoint [start, stop) file-offset
          spans sorted by start, each pointing at the mapping that the
          newest-first list scan would return for offsets in the span *)
  mutable mmap_index_stale : bool;  (** [mmaps] changed since last rebuild *)
  mutable mmap_last : int;  (** last-hit slot in [mmap_index] *)
  mutable open_count : int;
  mutable unlinked : bool;
  f_lock : Pmem.Lock.t;
      (** §3.5 fine-grained per-file lock: concurrent clients of one
          U-Split instance serialize writes to the same file; inert (and
          uncharged) outside multi-actor runs *)
}

type open_desc = {
  st : file_state;
  fpos : int ref;  (** shared between dup'ed descriptors *)
  oflags : Fsapi.Flags.t;
  od_kfd : int;  (** kernel fd backing this open; may equal [st.f_kfd] *)
}

type t = {
  cfg : Config.t;
  sys : Kernelfs.Syscall.t;
  env : Env.t;
  instance : int;
  staging_pool : Staging.t;
  oplog : Oplog.t option;  (** present in sync and strict modes *)
  files_by_ino : (int, file_state) Hashtbl.t;
  files_by_path : (string, file_state) Hashtbl.t;
  fds : (int, open_desc) Hashtbl.t;
  mutable next_fd : int;
  mutable checkpointing : bool;
      (** true while a log-full checkpoint relinks every file; suppresses
          recursive logging *)
  mutable checkpoint : unit -> unit;  (** wired to [relink_all] at mount *)
  mutable scratch : Bytes.t;
      (** reusable bounce buffer for relink boundary copies, grown on
          demand — keeps the staging->target copy path allocation-free *)
}

let bookkeeping t =
  Env.cpu_cat t.env Obs.Usplit t.env.Env.timing.Timing.usplit_bookkeeping

let fence ?site t = Device.fence ?site t.env.Env.dev

(* Registered fence sites (fence minimization, crashcheck litmus): every
   ordering point U-Split issues, by name. Eliding a site models deleting
   that sfence; Crashcheck.Minimize classifies each one. *)
let site_degraded_write = Device.register_fence_site "usplit:degraded-write"
let site_relink_pre = Device.register_fence_site "usplit:relink-pre"
let site_relink_publish = Device.register_fence_site "usplit:relink-publish"
let site_no_staging_write = Device.register_fence_site "usplit:no-staging-write"
let site_strict_write = Device.register_fence_site "usplit:strict-write"
let site_sync_write = Device.register_fence_site "usplit:sync-write"
let site_strict_truncate = Device.register_fence_site "usplit:strict-truncate"
let site_strict_unlink = Device.register_fence_site "usplit:strict-unlink"
let site_msync_pre = Device.register_fence_site "usplit:msync-pre"
let site_msync_publish = Device.register_fence_site "usplit:msync-publish"

(** Run a write-side operation under the §3.5 per-file lock. The take /
    release CPU cost only exists in multi-client runs; the single-client
    cost is part of the calibrated [usplit_bookkeeping] constant. *)
let with_file_lock t st f =
  if Simclock.multi t.env.Env.clock then
    Env.cpu_cat t.env Obs.Usplit t.env.Env.timing.Timing.usplit_lock_cpu;
  Env.with_lock t.env st.f_lock f

(** [uspan t name f] marks one U-Split entry point: charges inside it are
    attributed to [Obs.Usplit] unless a more specific region (media,
    syscall, log append, relink copy...) overrides from within, and a
    [u:<name>] trace span covering the whole operation is emitted when
    tracing. *)
let uspan t name f =
  Env.with_span t.env ~cat:Obs.Usplit ~name @@ fun () ->
  try f ()
  with Faults.Poisoned a ->
    (* a machine-check on a poisoned PM line under one of U-Split's own
       mmap loads — a real deployment takes SIGBUS; the library surfaces
       it as EIO instead of dying *)
    Fsapi.Errno.(
      error EIO
        (Printf.sprintf "u-split: poisoned PM line @0x%x (SIGBUS)" a))

(** Bounce buffer of at least [len] bytes, reused across relink copies so
    the staging->target path allocates nothing per call. *)
let scratch_buf t len =
  if Bytes.length t.scratch < len then
    t.scratch <- Bytes.create (max len (2 * Bytes.length t.scratch));
  t.scratch

(** Copy [len] staged bytes at [s_off] of [h] into [st]'s file at
    [t_off] with a kernel pwrite, charged to relink copying: fsync's
    path when relink is ablated or staging lives in DRAM, and the
    fallback when a relink fault is sticky. *)
let kernel_copy t st h ~t_off ~s_off ~len =
  Env.with_cat t.env Obs.Relink_copy @@ fun () ->
  let buf = scratch_buf t len in
  Staging.read t.staging_pool h ~off:s_off buf ~boff:0 ~len;
  let n = Kernelfs.Syscall.pwrite t.sys st.f_kfd ~buf ~boff:0 ~len ~at:t_off in
  assert (n = len);
  let stats = t.env.Env.stats in
  stats.Stats.relink_copied_bytes <- stats.Stats.relink_copied_bytes + len

let logs_ops t =
  match t.cfg.Config.mode with
  | Config.Posix -> false
  | Config.Sync | Config.Strict | Config.Fams -> true

(** Margin of log slots kept free so the checkpoint itself can finish. *)
let checkpoint_slack = 8

let log_entry t entry =
  match t.oplog with
  | Some log when logs_ops t && not t.checkpointing ->
      if Oplog.entries_written log >= Oplog.capacity log - checkpoint_slack
      then begin
        (* log full: relink every open file's staged data, then zero the
           log and reuse it (paper §3.3) *)
        t.checkpointing <- true;
        Fun.protect
          ~finally:(fun () -> t.checkpointing <- false)
          t.checkpoint
      end;
      Oplog.append log entry
  | _ -> ()

let config t = t.cfg
let oplog t = t.oplog

(* ------------------------------------------------------------------ *)
(* Collection of memory-mappings                                        *)
(* ------------------------------------------------------------------ *)

let kfs t = Kernelfs.Syscall.kernel t.sys

(** The collection of mmaps is consulted on every user-space read and
    write, so lookups must not scan the mapping list. [mmap_index] is a
    sorted array of disjoint file-offset spans, each resolved to the
    mapping a newest-first scan of [mmaps] would pick (mappings may
    overlap after relink retains fresh ones over older regions; the newest
    wins, exactly like the previous [List.find_opt] over the
    newest-first list). It is rebuilt lazily after [mmaps] changes, and a
    last-hit slot makes consecutive accesses to the same span O(1). *)

let invalidate_mmap_index st = st.mmap_index_stale <- true

let rebuild_mmap_index st =
  (* Walk newest-to-oldest, claiming only offsets no newer mapping covers.
     [covered] is kept as a sorted disjoint interval list. *)
  let segs = ref [] and covered = ref [] in
  let rec claim s e m cov =
    match cov with
    | [] -> if s < e then segs := (s, e, m) :: !segs
    | (cs, ce) :: rest ->
        if e <= cs then (if s < e then segs := (s, e, m) :: !segs)
        else if ce <= s then claim s e m rest
        else begin
          if s < cs then segs := (s, cs, m) :: !segs;
          if ce < e then claim ce e m rest
        end
  in
  let rec insert s e cov =
    match cov with
    | [] -> [ (s, e) ]
    | (cs, ce) :: rest ->
        if e < cs then (s, e) :: cov
        else if ce < s then (cs, ce) :: insert s e rest
        else insert (min s cs) (max e ce) rest
  in
  List.iter
    (fun m ->
      let s = m.Kernelfs.Ext4.m_off in
      let e = s + m.Kernelfs.Ext4.m_len in
      claim s e m !covered;
      covered := insert s e !covered)
    st.mmaps;
  let arr = Array.of_list !segs in
  Array.sort (fun (a, _, _) (b, _, _) -> compare a b) arr;
  st.mmap_index <- arr;
  st.mmap_index_stale <- false;
  st.mmap_last <- 0

(** Cached mapping covering file offset [off], if any. *)
let find_cached_mapping st ~off =
  if st.mmap_index_stale then rebuild_mmap_index st;
  let idx = st.mmap_index in
  let n = Array.length idx in
  if n = 0 then None
  else begin
    let within i =
      let s, e, _ = idx.(i) in
      off >= s && off < e
    in
    if st.mmap_last < n && within st.mmap_last then
      let _, _, m = idx.(st.mmap_last) in
      Some m
    else begin
      (* binary search for the last span starting at or before [off] *)
      let lo = ref 0 and hi = ref (n - 1) and found = ref (-1) in
      while !lo <= !hi do
        let mid = (!lo + !hi) / 2 in
        let s, _, _ = idx.(mid) in
        if s <= off then begin
          found := mid;
          lo := mid + 1
        end
        else hi := mid - 1
      done;
      if !found >= 0 && within !found then begin
        st.mmap_last <- !found;
        let _, _, m = idx.(!found) in
        Some m
      end
      else None
    end
  end

(** Find or establish the mapping covering file offset [off]; [None]
    past the kernel-visible blocks, where no mapping covers it. Newly
    created mappings cover the surrounding [cfg.mmap_size] region and
    are cached until unlink. *)
let get_mapping t st ~off =
  match find_cached_mapping st ~off with
  | Some m -> Some m
  | None ->
      let region = t.cfg.Config.mmap_size in
      let rstart = off / region * region in
      let kblocks = (st.ksize + block_size - 1) / block_size in
      let rlen = min region ((kblocks * block_size) - rstart) in
      if off >= kblocks * block_size then None
      else begin
        let m = Kernelfs.Syscall.mmap t.sys st.f_kfd ~off:rstart ~len:rlen in
        st.mmaps <- m :: st.mmaps;
        invalidate_mmap_index st;
        Some m
      end

(** Retain a mapping over a freshly relinked range without faults (§3.5).
    Every mapping of the file that the new one fully covers goes, and the
    kernel forgets it: the newest mapping serves each offset it covers
    ([rebuild_mmap_index]), so a covered one never serves a lookup, and
    repeated small appends and fsyncs to one block keep one mapping of
    it instead of one per relink. *)
let retain_mapping t st ~off ~len =
  let rstart = off / block_size * block_size in
  let rlen = (off + len + block_size - 1) / block_size * block_size - rstart in
  let inode = Kernelfs.Syscall.inode_of_fd t.sys st.f_kfd in
  let m = Kernelfs.Ext4.mmap_retained inode ~off:rstart ~len:rlen in
  let covered (c : Kernelfs.Ext4.mapping) =
    c.m_off >= rstart && c.m_off + c.m_len <= rstart + rlen
  in
  if List.exists covered st.mmaps then begin
    let dropped, kept = List.partition covered st.mmaps in
    Kernelfs.Ext4.forget_maps inode dropped;
    st.mmaps <- kept
  end;
  st.mmaps <- m :: st.mmaps;
  invalidate_mmap_index st

(** Drop every mapping of [st], and the kernel forgets them: no later
    extent change re-points a mapping nothing reads. *)
let drop_mappings t st =
  Kernelfs.Ext4.forget_maps
    (Kernelfs.Syscall.inode_of_fd t.sys st.f_kfd)
    st.mmaps;
  st.mmaps <- [];
  invalidate_mmap_index st

(* ------------------------------------------------------------------ *)
(* File-state lookup                                                    *)
(* ------------------------------------------------------------------ *)

let fd_entry t fd =
  match Hashtbl.find_opt t.fds fd with
  | Some od -> od
  | None -> Fsapi.Errno.(error EBADF (string_of_int fd))

let install_fd t od =
  let fd = t.next_fd in
  t.next_fd <- t.next_fd + 1;
  Hashtbl.replace t.fds fd od;
  fd

(* ------------------------------------------------------------------ *)
(* Staging writes                                                       *)
(* ------------------------------------------------------------------ *)

let ensure_staging t st =
  match st.staging with
  | Some h -> h
  | None ->
      let h = Staging.acquire t.staging_pool in
      st.staging <- Some h;
      h

(** Staging end of the shadow extent finishing exactly at [at], if any —
    enables coalescing consecutive appends into one staged run. *)
let staged_end_at st ~at =
  if at = 0 then None
  else
    match Kernelfs.Extent_tree.find st.shadow (at - 1) with
    | Some (s, _) -> Some (s + 1)
    | None -> None

(** In-place overwrite through the collection of mmaps (POSIX/sync modes);
    holes within the file fall back to a kernel pwrite. *)
let write_inplace t st ~at buf ~boff ~len =
  let pos = ref at and src = ref boff and remaining = ref len in
  while !remaining > 0 do
    let continue_at n =
      pos := !pos + n;
      src := !src + n;
      remaining := !remaining - n
    in
    match get_mapping t st ~off:!pos with
    | Some m -> (
        match Kernelfs.Ext4.translate (kfs t) m ~max:!remaining ~file_off:!pos with
        | Some (addr, run) ->
            let n = min run !remaining in
            if Kernelfs.Ext4.range_shared (kfs t) ~addr ~len:n then begin
              (* snapshot-shared blocks: route through the kernel so the
                 write breaks the share (copy-on-write) instead of storing
                 through the alias and corrupting the snapshot *)
              let n =
                Kernelfs.Syscall.pwrite t.sys st.f_kfd ~buf ~boff:!src ~len:n
                  ~at:!pos
              in
              continue_at n
            end
            else begin
              Device.store_nt t.env.Env.dev ~addr buf ~off:!src ~len:n;
              continue_at n
            end
        | None ->
            (* hole: the kernel allocates and writes this block, and
               re-points the cached mappings at the fresh block *)
            let n =
              min !remaining (block_size - (!pos mod block_size))
            in
            let n = Kernelfs.Syscall.pwrite t.sys st.f_kfd ~buf ~boff:!src ~len:n ~at:!pos in
            continue_at n)
    | None ->
        let n = Kernelfs.Syscall.pwrite t.sys st.f_kfd ~buf ~boff:!src ~len:!remaining ~at:!pos in
        continue_at n
  done


(** Staging pre-allocation failed (no space for a fresh staging file):
    degrade to the plain kernel write path at its honest cost instead of
    surfacing ENOSPC for a write the file system could still serve. The
    epoch advance lets transient allocator faults heal before the
    fallback's own allocations. Staged bytes between the kernel size and
    [at] are relinked first: the kernel write raises the size past them,
    and every later write below the size goes in place.
    [Env.checks.honest_degraded_writes] is the injected-bug switch for
    the fault oracle's self-test: when cleared, this path drops the data
    instead of routing it through the kernel — faultcheck must flag the
    resulting corruption. *)
let rec degraded_write t st ~at buf ~boff ~len =
  uspan t "u:degraded-write" @@ fun () ->
  (* fams cannot degrade to an in-place kernel write: published-before-
     commit data would break msync atomicity, so resource exhaustion
     surfaces as an honest ENOSPC instead of silently weakening the
     contract *)
  if t.cfg.Config.mode = Config.Fams then
    Fsapi.Errno.(
      error ENOSPC "fams: staging exhausted (failure-atomic msync needs staging)");
  let faults = t.env.Env.faults in
  Faults.new_epoch faults;
  Faults.note_degraded_write faults;
  if t.env.Env.checks.Env.honest_degraded_writes then begin
    (match Kernelfs.Extent_tree.next_mapped st.shadow st.ksize with
    | Some s when s < at -> relink_file t st
    | _ -> ());
    let n = Kernelfs.Syscall.pwrite t.sys st.f_kfd ~buf ~boff ~len ~at in
    assert (n = len);
    (* the kernel copy supersedes any staged bytes in the range *)
    ignore (Kernelfs.Extent_tree.remove_range st.shadow ~logical:at ~len);
    st.ksize <- max st.ksize (at + len);
    st.usize <- max st.usize (at + len);
    fence ~site:site_degraded_write t
  end

and stage_write t st ~at buf ~boff ~len =
  let h =
    match ensure_staging t st with
    | h -> Some h
    | exception Fsapi.Errno.Error (Fsapi.Errno.ENOSPC, _) -> None
  in
  match h with
  | None -> degraded_write t st ~at buf ~boff ~len
  | Some h ->
  let staged_off =
    let coalesced =
      match staged_end_at st ~at with
      | Some s when Staging.reserve_contiguous h ~at:s len -> Some s
      | _ -> None
    in
    match coalesced with
    | Some s -> Some s
    | None -> Staging.reserve h ~align_rem:(at mod block_size) len
  in
  let file_size = t.staging_pool.Staging.file_size in
  match staged_off with
  | None when len >= file_size || (at mod block_size) + len > file_size ->
      (* larger than any staging file could ever hold, counting the
         in-block offset a reservation must keep (degraded configurations
         with a shrunken pool): route straight through the kernel instead
         of relinking forever — a relink frees nothing here, and the pool
         hands the same empty file straight back *)
      degraded_write t st ~at buf ~boff ~len
  | None when t.cfg.Config.mode = Config.Fams ->
      (* relinking here would publish staged data mid-window; surface the
         full staging file as an honest ENOSPC instead of silently
         weakening the msync granularity *)
      Fsapi.Errno.(error ENOSPC "fams: staging file full before msync")
  | None ->
      (* staging file exhausted: relink now to free it, then retry on a
         fresh handle *)
      relink_file t st;
      stage_write t st ~at buf ~boff ~len
  | Some s ->
      Staging.write t.staging_pool h ~off:s buf ~boff ~len;
      ignore (Kernelfs.Extent_tree.remove_range st.shadow ~logical:at ~len);
      Kernelfs.Extent_tree.insert st.shadow ~logical:at ~physical:s ~len;
      let grew = at + len > st.usize in
      if grew then st.usize <- at + len;
      if logs_ops t then begin
        let op =
          {
            Oplog.target_ino = st.f_ino;
            file_off = at;
            staging_ino = Staging.s_ino h;
            staging_off = s;
            len;
            data_crc = Fsapi.Crc32.update 0 buf ~off:boff ~len;
          }
        in
        log_entry t
          (match t.cfg.Config.mode with
          | Config.Fams ->
              (* fams kinds: invisible to recovery until the inode's
                 msync commit record promotes them *)
              if grew then Oplog.Fams_append op else Oplog.Fams_overwrite op
          | _ -> if grew then Oplog.Append op else Oplog.Overwrite op)
      end

(* ------------------------------------------------------------------ *)
(* Relink (user-space half)                                             *)
(* ------------------------------------------------------------------ *)

(** Move one shadow extent into [st]'s file in up to three steps: head
    copy, block relink, tail copy. A step that lands bytes takes them out
    of the shadow and under [st.ksize] at once, so a fault in a later step
    neither hides them nor has a retry move them again (a second relink
    of a block frees it as its replaced range), and a relink step whose
    bytes end past the kernel size carries that size in its own
    transaction. *)
and relink_extent t st h (e : Kernelfs.Extent_tree.extent) =
  let stats = t.env.Env.stats in
  let landed ~t_off ~len =
    ignore (Kernelfs.Extent_tree.remove_range st.shadow ~logical:t_off ~len);
    st.ksize <- max st.ksize (t_off + len)
  in
  (* Boundary bytes are copied in user space: read staged bytes through the
     staging mapping, store them through the target's mapping (kernel
     pwrite only as a fallback for unmapped holes). *)
  let copy ~t_off ~s_off ~len =
    if len > 0 then begin
      Env.with_cat t.env Obs.Relink_copy (fun () ->
          let buf = scratch_buf t len in
          Staging.read t.staging_pool h ~off:s_off buf ~boff:0 ~len;
          write_inplace t st ~at:t_off buf ~boff:0 ~len;
          stats.Stats.relink_copied_bytes <-
            stats.Stats.relink_copied_bytes + len);
      landed ~t_off ~len
    end
  in
  let t_off = e.Kernelfs.Extent_tree.logical in
  let s_off = e.Kernelfs.Extent_tree.physical in
  let len = e.Kernelfs.Extent_tree.len in
  if (not t.cfg.Config.use_relink) || Staging.is_dram h then begin
    (* Figure 3 ablation (staging without relink) and the §4 DRAM-staging
       design: fsync copies the staged data into the target file through
       the kernel *)
    kernel_copy t st h ~t_off ~s_off ~len;
    landed ~t_off ~len
  end
  else begin
    (* partial head block: the target's block already exists (it is the old
       end of file, or an overwritten block); copy just those bytes *)
    let head =
      if t_off mod block_size = 0 then 0
      else min len (block_size - (t_off mod block_size))
    in
    copy ~t_off ~s_off ~len:head;
    let t2 = t_off + head and s2 = s_off + head and rem = len - head in
    let nfull = rem / block_size in
    let tail = rem - (nfull * block_size) in
    (* A partial tail block that reaches the (new) end of file is relinked
       whole: the file size caps reads, so the slack never becomes visible
       — but it is zeroed first so a later size extension reads zeros. *)
    let tail_reaches_eof = tail > 0 && t2 + rem >= st.usize in
    let relink_blocks = nfull + (if tail_reaches_eof then 1 else 0) in
    if tail_reaches_eof then begin
      let slack_off = s2 + rem in
      let slack = block_size - (slack_off mod block_size) in
      if slack < block_size then
        Staging.zero t.staging_pool h ~off:slack_off ~len:slack
    end;
    if relink_blocks > 0 then begin
      let moved = if tail_reaches_eof then rem else nfull * block_size in
      let dst_size =
        let inode = Kernelfs.Syscall.inode_of_fd t.sys st.f_kfd in
        if t2 + moved > inode.Kernelfs.Ext4.size then Some (t2 + moved)
        else None
      in
      (* Transient relink EIO is retried with capped exponential backoff;
         a fault still firing after [max_relink_attempts] is sticky and
         degrades to copying the staged bytes through the kernel — the
         fault is masked, only performance suffers. *)
      let faults = t.env.Env.faults in
      let max_relink_attempts = 6 in
      let rec attempt n =
        match
          Kernelfs.Syscall.relink t.sys ~src_fd:(Staging.sfd h)
            ~src_blk:(s2 / block_size) ~dst_fd:st.f_kfd
            ~dst_blk:(t2 / block_size) ~nblks:relink_blocks ~dst_size
        with
        | () -> if n > 1 then Faults.note_retried faults
        | exception Fsapi.Errno.Error (Fsapi.Errno.EIO, _)
          when n < max_relink_attempts ->
            Env.with_span t.env ~cat:Obs.Usplit ~name:"u:relink-retry"
              (fun () ->
                Env.cpu_cat t.env Obs.Usplit (Faults.backoff_ns ~attempt:n));
            Faults.new_epoch faults;
            Faults.note_relink_retry faults;
            attempt (n + 1)
        | exception Fsapi.Errno.Error (Fsapi.Errno.EIO, _) ->
            Faults.note_masked faults;
            kernel_copy t st h ~t_off:t2 ~s_off:s2 ~len:moved
      in
      attempt 1;
      landed ~t_off:t2 ~len:moved
    end;
    if (not tail_reaches_eof) && tail > 0 then
      copy
        ~t_off:(t2 + (nfull * block_size))
        ~s_off:(s2 + (nfull * block_size))
        ~len:tail
  end

(** Relink all staged data of [st] into its file: called on fsync, close and
    log checkpoint. Afterwards the staged ranges are part of the file, the
    mappings are retained, and the staging handle returns to the pool. *)
and relink_file t st =
  uspan t "u:relink" @@ fun () ->
  (match st.staging with
  | None -> ()
  | Some h ->
      let extents = Kernelfs.Extent_tree.to_list st.shadow in
      List.iter
        (fun (e : Kernelfs.Extent_tree.extent) ->
          relink_extent t st h e;
          (* this extent is now in the file: retain a mapping over it *)
          retain_mapping t st ~off:e.logical ~len:e.len)
        extents;
      (* boundary copies carry no size: if the last extent was copied
         only, the size still needs one metadata update *)
      let inode = Kernelfs.Syscall.inode_of_fd t.sys st.f_kfd in
      if inode.Kernelfs.Ext4.size <> st.usize then
        Kernelfs.Syscall.set_size t.sys st.f_kfd st.usize;
      st.ksize <- st.usize;
      st.staging <- None;
      Staging.release t.staging_pool h;
      if logs_ops t && extents <> [] then begin
        (* the boundary copies must be durable before the Relinked entry:
           the entry cancels replay of this file's logged data ops, so if
           it persisted while a copy was still in flight (and tore),
           recovery would have nothing left to heal the file with *)
        fence ~site:site_relink_pre t;
        log_entry t (Oplog.Relinked { target_ino = st.f_ino });
        fence ~site:site_relink_publish t
      end)

(** The failure-atomic msync publish. In fams mode the staged bytes and
    their log entries are made durable first, then the msync commit
    record is appended and made durable before the target mutates via
    relink: recovery replays fams-staged entries only when their commit
    record made it, so a crash anywhere in here resolves to the pre- or
    post-msync image, never a torn one. Other modes publish via plain
    [relink_file]. [Env.checks.fams_commit_record] is the injected-bug
    switch for the crash oracle's self-test: when cleared, the relink
    publishes without the commit barrier and a mid-publish crash can tear
    the file — crashcheck must flag it. *)
let publish_file t st =
  if
    t.cfg.Config.mode = Config.Fams
    && (not (Kernelfs.Extent_tree.is_empty st.shadow))
    && t.env.Env.checks.Env.fams_commit_record
  then begin
    (* staged data and fams entries before the record, the record before
       any relink mutation of the target: two orderings, two fences *)
    fence ~site:site_msync_pre t;
    log_entry t (Oplog.Msync_commit { target_ino = st.f_ino });
    fence ~site:site_msync_publish t
  end;
  relink_file t st

(** Checkpoint: publish every file with staged data, then clear the log
    (runs when the operation log fills up, §3.3). In fams mode each file
    goes through the commit-record protocol, so the checkpoint stays
    failure-atomic per file — it publishes earlier than the application's
    msync asked for, but never tears (experiments size the log so this
    backstop does not fire mid-window). *)
let relink_all t =
  Hashtbl.iter
    (fun _ st ->
      if not (Kernelfs.Extent_tree.is_empty st.shadow) then publish_file t st)
    t.files_by_ino;
  match t.oplog with Some log -> Oplog.clear log | None -> ()

(* ------------------------------------------------------------------ *)
(* Data path: writes                                                    *)
(* ------------------------------------------------------------------ *)

let do_pwrite t od ~buf ~boff ~len ~at =
  uspan t "u:write" @@ fun () ->
  if len < 0 || at < 0 then Fsapi.Errno.(error EINVAL "pwrite");
  if not (Fsapi.Flags.writable od.oflags) then Fsapi.Errno.(error EBADF "pwrite");
  bookkeeping t;
  let st = od.st in
  if len = 0 then 0
  else
    with_file_lock t st @@ fun () ->
    (if at > st.usize && t.cfg.Config.mode <> Config.Fams then begin
       (* write beyond EOF creating a hole: settle staged state first, then
          let the kernel produce the sparse file (not in fams — settling
          would publish staged data mid-window; the shadow tree handles
          the sparse layout and reads zero-fill the hole instead) *)
       relink_file t st;
       let n = Kernelfs.Syscall.pwrite t.sys st.f_kfd ~buf ~boff ~len ~at in
       assert (n = len);
       st.ksize <- max st.ksize (at + len);
       st.usize <- st.ksize
     end
     else if not t.cfg.Config.use_staging then begin
       (* Figure 3 ablation: split architecture without staging files —
          overwrites stay in user space, appends trap into the kernel *)
       let overwrite_len = max 0 (min len (st.ksize - at)) in
       if overwrite_len > 0 then
         write_inplace t st ~at buf ~boff ~len:overwrite_len;
       if len - overwrite_len > 0 then begin
         let n =
           Kernelfs.Syscall.pwrite t.sys st.f_kfd ~buf
             ~boff:(boff + overwrite_len) ~len:(len - overwrite_len)
             ~at:(at + overwrite_len)
         in
         assert (n = len - overwrite_len);
         st.ksize <- max st.ksize (at + len);
         st.usize <- max st.usize st.ksize
       end;
       fence ~site:site_no_staging_write t
     end
     else
       match t.cfg.Config.mode with
       | Config.Strict ->
           (* atomic data ops: everything is staged and logged *)
           stage_write t st ~at buf ~boff ~len;
           fence ~site:site_strict_write t
       | Config.Fams ->
           (* failure-atomic msync: every store — append, overwrite, even
              beyond EOF — stages in shadow extents, invisible to
              recovery until msync publishes it; no per-store fence, the
              ordering cost moves entirely to msync *)
           stage_write t st ~at buf ~boff ~len
       | Config.Posix | Config.Sync ->
           let overwrite_len = max 0 (min len (st.ksize - at)) in
           (* in-place part, below the kernel size and not shadowed *)
           if overwrite_len > 0 then
             write_inplace t st ~at buf ~boff ~len:overwrite_len;
           (* appends (and writes over staged appends) are staged *)
           if len - overwrite_len > 0 then
             stage_write t st ~at:(at + overwrite_len) buf
               ~boff:(boff + overwrite_len) ~len:(len - overwrite_len);
           let synchronous =
             t.cfg.Config.mode = Config.Sync || overwrite_len > 0
           in
           if synchronous then fence ~site:site_sync_write t);
    len

(* ------------------------------------------------------------------ *)
(* Data path: reads                                                     *)
(* ------------------------------------------------------------------ *)

(** Read via the collection of mmaps; zero-fills holes. *)
let read_mapped t st ~at buf ~boff ~len =
  let pos = ref at and dst = ref boff and remaining = ref len in
  while !remaining > 0 do
    let fill_zero n =
      Bytes.fill buf !dst n '\000';
      pos := !pos + n;
      dst := !dst + n;
      remaining := !remaining - n
    in
    match get_mapping t st ~off:!pos with
    | Some m -> (
        match Kernelfs.Ext4.translate (kfs t) m ~max:!remaining ~file_off:!pos with
        | Some (addr, run) ->
            let n = min run !remaining in
            Device.load t.env.Env.dev ~addr buf ~off:!dst ~len:n;
            pos := !pos + n;
            dst := !dst + n;
            remaining := !remaining - n
        | None -> fill_zero (min !remaining (block_size - (!pos mod block_size))))
    | None -> fill_zero !remaining
  done

let do_pread t od ~buf ~boff ~len ~at =
  uspan t "u:read" @@ fun () ->
  if len < 0 || at < 0 then Fsapi.Errno.(error EINVAL "pread");
  if not (Fsapi.Flags.readable od.oflags) then Fsapi.Errno.(error EBADF "pread");
  bookkeeping t;
  let st = od.st in
  if at >= st.usize then 0
  else begin
    let len = min len (st.usize - at) in
    let pos = ref at and dst = ref boff and remaining = ref len in
    while !remaining > 0 do
      (match Kernelfs.Extent_tree.find st.shadow !pos with
      | Some (s_off, run) ->
          (* staged data: newest bytes live in the staging file *)
          let n = min run !remaining in
          let h =
            match st.staging with
            | Some h -> h
            | None -> Fsapi.Errno.(error EINVAL "shadow without staging")
          in
          Staging.read t.staging_pool h ~off:s_off buf ~boff:!dst ~len:n;
          pos := !pos + n;
          dst := !dst + n;
          remaining := !remaining - n
      | None ->
          (* plain file data up to the next shadowed byte *)
          let bound =
            match Kernelfs.Extent_tree.next_mapped st.shadow !pos with
            | Some next -> min !remaining (next - !pos)
            | None -> !remaining
          in
          let n = min bound (max 1 bound) in
          if !pos < st.ksize then begin
            let n = min n (st.ksize - !pos) in
            read_mapped t st ~at:!pos buf ~boff:!dst ~len:n;
            pos := !pos + n;
            dst := !dst + n;
            remaining := !remaining - n
          end
          else begin
            (* hole beyond the kernel size (sparse ftruncate growth) *)
            Bytes.fill buf !dst n '\000';
            pos := !pos + n;
            dst := !dst + n;
            remaining := !remaining - n
          end);
    done;
    len
  end

(* ------------------------------------------------------------------ *)
(* Metadata operations (routed to the kernel, with U-Split bookkeeping) *)
(* ------------------------------------------------------------------ *)

(** A fresh file state over kernel fd [kfd], from the [kstat] its caller
    already took (a second fstat would be one more simulated syscall). *)
let new_state ~path kfd (kstat : Fsapi.Fs.stat) =
  {
    f_ino = kstat.st_ino;
    f_path = path;
    f_kfd = kfd;
    ksize = kstat.st_size;
    usize = kstat.st_size;
    shadow = Kernelfs.Extent_tree.create ();
    staging = None;
    mmaps = [];
    mmap_index = [||];
    mmap_index_stale = false;
    mmap_last = 0;
    open_count = 0;
    unlinked = kstat.st_nlink = 0;
    f_lock = Pmem.Lock.create ~id:kstat.st_ino "ufile:";
  }

let make_state t path kfd =
  let st = new_state ~path kfd (Kernelfs.Syscall.fstat t.sys kfd) in
  Hashtbl.replace t.files_by_ino st.f_ino st;
  Hashtbl.replace t.files_by_path path st;
  st

(** Drop every staged byte at or past [size]. *)
let trim_shadow st size =
  ignore
    (Kernelfs.Extent_tree.remove_range st.shadow ~logical:size
       ~len:(max_int - size))

let reset_after_truncate t st size =
  trim_shadow st size;
  drop_mappings t st

let open_ t path (flags : Fsapi.Flags.t) =
  uspan t "u:open" @@ fun () ->
  bookkeeping t;
  let st, od_kfd, created =
    match Hashtbl.find_opt t.files_by_path path with
    | Some st when not st.unlinked ->
        (* attribute-cache hit: the open still passes through the kernel *)
        let kfd = Kernelfs.Syscall.open_ t.sys path flags in
        if flags.trunc && Fsapi.Flags.writable flags then begin
          reset_after_truncate t st 0;
          st.ksize <- 0;
          st.usize <- 0
        end
        else if Kernelfs.Extent_tree.is_empty st.shadow then begin
          (* nothing staged locally: refresh cached attributes so changes
             made by other processes (fsync'ed appends) become visible *)
          let kstat = Kernelfs.Syscall.fstat t.sys kfd in
          if kstat.Fsapi.Fs.st_size <> st.ksize then begin
            st.ksize <- kstat.Fsapi.Fs.st_size;
            st.usize <- kstat.Fsapi.Fs.st_size
          end
        end;
        (st, kfd, false)
    | _ ->
        let existed =
          match Kernelfs.Syscall.stat t.sys path with
          | (_ : Fsapi.Fs.stat) -> true
          | exception Fsapi.Errno.Error (Fsapi.Errno.ENOENT, _) -> false
        in
        let kfd = Kernelfs.Syscall.open_ t.sys path flags in
        let st = make_state t path kfd in
        (st, kfd, not existed)
  in
  if created && logs_ops t then
    (* no fence, even in strict mode: replay of a Create entry is a
       no-op in recovery (the kernel create was journalled by K-Split),
       so the entry needs no durability of its own — proven redundant by
       exhaustive crash-state enumeration (EXPERIMENTS.md, PR 7) *)
    log_entry t (Oplog.Create { ino = st.f_ino });
  st.open_count <- st.open_count + 1;
  install_fd t { st; fpos = ref 0; oflags = flags; od_kfd }

(** Drop [st]'s staged data and mappings: its staging handle returns to
    the pool, its shadow and mapping index empty. *)
let drop_staged t st =
  (match st.staging with
  | Some h ->
      st.staging <- None;
      Staging.release t.staging_pool h
  | None -> ());
  Kernelfs.Extent_tree.clear st.shadow;
  drop_mappings t st

let cleanup_state t st =
  drop_staged t st;
  Hashtbl.remove t.files_by_ino st.f_ino;
  Kernelfs.Syscall.close t.sys st.f_kfd

let close t fd =
  uspan t "u:close" @@ fun () ->
  bookkeeping t;
  let od = fd_entry t fd in
  let st = od.st in
  Hashtbl.remove t.fds fd;
  st.open_count <- st.open_count - 1;
  if
    (not st.unlinked)
    && (not (Kernelfs.Extent_tree.is_empty st.shadow))
    && t.cfg.Config.mode <> Config.Fams
  then
    (* paper §3.4: staged data is relinked on fsync or close — except in
       fams, where close is not an msync: unpublished stores stay staged
       (readable through this instance, gone after a crash) until the
       application publishes them *)
    relink_file t st;
  if od.od_kfd <> st.f_kfd then Kernelfs.Syscall.close t.sys od.od_kfd;
  if st.unlinked && st.open_count = 0 then cleanup_state t st

let dup t fd =
  bookkeeping t;
  let od = fd_entry t fd in
  od.st.open_count <- od.st.open_count + 1;
  (* the new descriptor shares the offset reference, like the kernel's
     struct file (§3.5), but owns its own kernel fd *)
  let od_kfd = Kernelfs.Syscall.dup t.sys od.od_kfd in
  install_fd t { od with od_kfd }

let fsync t fd =
  uspan t "u:fsync" @@ fun () ->
  bookkeeping t;
  let od = fd_entry t fd in
  with_file_lock t od.st @@ fun () ->
  (* in fams mode fsync IS msync: the atomic publication point *)
  publish_file t od.st;
  Kernelfs.Syscall.fsync t.sys od.st.f_kfd

let ftruncate t fd size =
  if size < 0 then Fsapi.Errno.(error EINVAL "ftruncate");
  bookkeeping t;
  let od = fd_entry t fd in
  let st = od.st in
  with_file_lock t st @@ fun () ->
  if size < st.ksize then begin
    reset_after_truncate t st size;
    Kernelfs.Syscall.ftruncate t.sys st.f_kfd size;
    st.ksize <- size;
    st.usize <- size
  end
  else begin
    if size <= st.usize then trim_shadow st size;
    st.usize <- size;
    (* the new size is a metadata change and must be durable in the kernel
       (truncate is a metadata operation, routed to K-Split); the staged
       bytes below it are still served from the shadow until relink *)
    Kernelfs.Syscall.set_size t.sys st.f_kfd size
  end;
  if logs_ops t then begin
    log_entry t (Oplog.Truncate { ino = st.f_ino; size });
    if t.cfg.Config.mode = Config.Strict || t.cfg.Config.mode = Config.Fams
    then fence ~site:site_strict_truncate t
  end

let stat_of_state st =
  {
    Fsapi.Fs.st_ino = st.f_ino;
    st_kind = Fsapi.Fs.Regular;
    st_size = st.usize;
    st_nlink = if st.unlinked then 0 else 1;
  }

let fstat t fd =
  bookkeeping t;
  (* served from the U-Split attribute cache, no kernel trap (§3.5) *)
  stat_of_state (fd_entry t fd).st

let stat t path =
  bookkeeping t;
  match Hashtbl.find_opt t.files_by_path path with
  | Some st when not st.unlinked -> stat_of_state st
  | _ -> Kernelfs.Syscall.stat t.sys path

let unlink t path =
  bookkeeping t;
  (match Hashtbl.find_opt t.files_by_path path with
  | Some st when not st.unlinked ->
      (* the expensive part of unlink on SplitFS: dropping mappings and
         cached state (§5.4) *)
      Hashtbl.remove t.files_by_path path;
      st.unlinked <- true;
      Kernelfs.Syscall.unlink t.sys path;
      if logs_ops t then begin
        log_entry t (Oplog.Unlink { ino = st.f_ino });
        if t.cfg.Config.mode = Config.Strict || t.cfg.Config.mode = Config.Fams
        then fence ~site:site_strict_unlink t
      end;
      if st.open_count = 0 then cleanup_state t st
  | _ -> Kernelfs.Syscall.unlink t.sys path)

let rename t src dst =
  bookkeeping t;
  Kernelfs.Syscall.rename t.sys src dst;
  (* only after the kernel succeeded: the destination's cached identity
     dies with the rename *)
  (match Hashtbl.find_opt t.files_by_path dst with
  | Some st when not st.unlinked ->
      Hashtbl.remove t.files_by_path dst;
      st.unlinked <- true;
      if st.open_count = 0 then cleanup_state t st
  | _ -> ());
  (match Hashtbl.find_opt t.files_by_path src with
  | Some st ->
      Hashtbl.remove t.files_by_path src;
      st.f_path <- dst;
      Hashtbl.replace t.files_by_path dst st;
      if logs_ops t then
        (* no fence, even in strict mode: like Create, a Rename entry
           replays to nothing (the namespace change is K-Split's,
           journalled there), so its durability is irrelevant — proven
           redundant by exhaustive enumeration (EXPERIMENTS.md, PR 7) *)
        log_entry t (Oplog.Rename { ino = st.f_ino })
  | None -> ())

let mkdir t path =
  bookkeeping t;
  Kernelfs.Syscall.mkdir t.sys path

let rmdir t path =
  bookkeeping t;
  Kernelfs.Syscall.rmdir t.sys path

let readdir t path =
  bookkeeping t;
  Kernelfs.Syscall.readdir t.sys path

(* ------------------------------------------------------------------ *)
(* Instant snapshots                                                    *)
(* ------------------------------------------------------------------ *)

(** Snapshot one file: publish its staged data (an msync, commit-record
    protected in fams mode), then clone its extent map block-for-block
    into [snap_path] in a single kernel journal transaction — O(extents),
    no data copied. The shared blocks break copy-on-write on the next
    in-place store through either owner. *)
let snapshot_file t src_path snap_path =
  uspan t "u:snapshot" @@ fun () ->
  (* the snapshot captures the published image: staged-but-unpublished
     stores stay invisible to it, exactly as they are to a crash *)
  (match Hashtbl.find_opt t.files_by_path src_path with
  | Some st when not st.unlinked ->
      with_file_lock t st @@ fun () -> publish_file t st
  | _ -> ());
  let src_kfd, close_src =
    match Hashtbl.find_opt t.files_by_path src_path with
    | Some st when not st.unlinked -> (st.f_kfd, false)
    | _ -> (Kernelfs.Syscall.open_ t.sys src_path Fsapi.Flags.rdonly, true)
  in
  let dst_kfd = Kernelfs.Syscall.open_ t.sys snap_path Fsapi.Flags.create_rw in
  Fun.protect ~finally:(fun () ->
      Kernelfs.Syscall.close t.sys dst_kfd;
      if close_src then Kernelfs.Syscall.close t.sys src_kfd)
  @@ fun () ->
  Kernelfs.Syscall.ioctl_clone_extents t.sys ~src_fd:src_kfd ~dst_fd:dst_kfd;
  (* a cached state for the snapshot path (re-snapshot over an earlier
     one) holds staged data and a size from before the clone: drop its
     staged data and mappings, re-learn the size from the kernel *)
  (match Hashtbl.find_opt t.files_by_path snap_path with
  | Some dst when not dst.unlinked ->
      drop_staged t dst;
      let kstat = Kernelfs.Syscall.fstat t.sys dst.f_kfd in
      dst.ksize <- kstat.Fsapi.Fs.st_size;
      dst.usize <- kstat.Fsapi.Fs.st_size
  | _ -> ());
  if logs_ops t then begin
    (* a barrier marker like [Create]: replays to nothing (the clone was
       journalled by K-Split), so it needs no fence of its own *)
    let src_ino = (Kernelfs.Syscall.fstat t.sys src_kfd).Fsapi.Fs.st_ino in
    let snap_ino = (Kernelfs.Syscall.fstat t.sys dst_kfd).Fsapi.Fs.st_ino in
    log_entry t (Oplog.Snapshot { target_ino = src_ino; snap_ino })
  end

(** Snapshot a directory tree (the per-tenant case: [snapshot /t3 /snap]):
    every regular file is published and cloned, subdirectories recurse.
    The destination tree is skipped if it lives inside the source. *)
let rec snapshot_dir t src_dir snap_dir =
  (match Kernelfs.Syscall.stat t.sys snap_dir with
  | (_ : Fsapi.Fs.stat) -> ()
  | exception Fsapi.Errno.Error (Fsapi.Errno.ENOENT, _) ->
      Kernelfs.Syscall.mkdir t.sys snap_dir);
  List.iter
    (fun name ->
      let s = Filename.concat src_dir name in
      let d = Filename.concat snap_dir name in
      if s <> snap_dir then
        match (stat t s).Fsapi.Fs.st_kind with
        | Fsapi.Fs.Directory -> snapshot_dir t s d
        | Fsapi.Fs.Regular -> snapshot_file t s d)
    (Kernelfs.Syscall.readdir t.sys src_dir)

(** [snapshot t src dst] — instant snapshot of a file or a directory
    tree: publication is O(metadata) (one extent-map clone per file), the
    data is shared copy-on-write. *)
let snapshot t src dst =
  bookkeeping t;
  match (stat t src).Fsapi.Fs.st_kind with
  | Fsapi.Fs.Directory -> snapshot_dir t src dst
  | Fsapi.Fs.Regular -> snapshot_file t src dst

(* ------------------------------------------------------------------ *)
(* fd-offset wrappers                                                   *)
(* ------------------------------------------------------------------ *)

let pwrite t fd ~buf ~boff ~len ~at = do_pwrite t (fd_entry t fd) ~buf ~boff ~len ~at

let pread t fd ~buf ~boff ~len ~at = do_pread t (fd_entry t fd) ~buf ~boff ~len ~at

let write t fd ~buf ~boff ~len =
  let od = fd_entry t fd in
  let at = if od.oflags.Fsapi.Flags.append then od.st.usize else !(od.fpos) in
  let n = do_pwrite t od ~buf ~boff ~len ~at in
  od.fpos := at + n;
  n

let read t fd ~buf ~boff ~len =
  let od = fd_entry t fd in
  let n = do_pread t od ~buf ~boff ~len ~at:!(od.fpos) in
  od.fpos := !(od.fpos) + n;
  n

let lseek t fd off whence =
  bookkeeping t;
  let od = fd_entry t fd in
  let base =
    match whence with
    | Fsapi.Flags.Set -> 0
    | Fsapi.Flags.Cur -> !(od.fpos)
    | Fsapi.Flags.End -> od.st.usize
  in
  let npos = base + off in
  if npos < 0 then Fsapi.Errno.(error EINVAL "lseek");
  od.fpos := npos;
  npos

(* ------------------------------------------------------------------ *)
(* Mount, resource accounting, Fsapi view                               *)
(* ------------------------------------------------------------------ *)

let mount ?(cfg = Config.default) ~sys ~env ~instance () =
  let staging_pool =
    Staging.create ~in_dram:cfg.Config.staging_in_dram ~sys ~env ~instance
      ~count:cfg.Config.staging_files ~file_size:cfg.Config.staging_size ()
  in
  let oplog =
    match cfg.Config.mode with
    | Config.Posix -> None
    | Config.Sync | Config.Strict | Config.Fams ->
        Some
          (Oplog.create ~sys ~env ~path:(Oplog.instance_path instance)
             ~size:cfg.Config.oplog_size)
  in
  let t =
    {
      cfg;
      sys;
      env;
      instance;
      staging_pool;
      oplog;
      files_by_ino = Hashtbl.create 256;
      files_by_path = Hashtbl.create 256;
      fds = Hashtbl.create 64;
      next_fd = 3;
      checkpointing = false;
      checkpoint = (fun () -> ());
      scratch = Bytes.empty;
    }
  in
  t.checkpoint <- (fun () -> relink_all t);
  t

(** A copy of a quiescent [t] on [sys] and [env], clones of its own:
    file states, descriptors, staging pool and op log copied, each
    mapping replaced by [mapping]'s copy of it. A file state held by both
    tables and by descriptors stays one state, and so does a file offset
    shared by dup'ed descriptors. [relink_all] and [fork] iterate the
    inode and fd tables, so their copies keep the originals' order; the
    path table is only looked up. *)
let clone t ~sys ~env ~mapping =
  let staging_pool, handle = Staging.clone t.staging_pool ~sys ~env ~mapping in
  let states =
    Fsapi.Share.create (fun st ->
        {
          st with
          shadow = Kernelfs.Extent_tree.copy st.shadow;
          staging = Option.map handle st.staging;
          mmaps = List.map mapping st.mmaps;
          mmap_index =
            Array.map (fun (s, e, m) -> (s, e, mapping m)) st.mmap_index;
          f_lock = Lock.copy st.f_lock;
        })
  in
  let fpos = Fsapi.Share.create (fun r -> ref !r) in
  let fds =
    Fsapi.Share.table t.fds (fun od ->
        {
          od with
          st = Fsapi.Share.get states od.st;
          fpos = Fsapi.Share.get fpos od.fpos;
        })
  in
  let c =
    {
      t with
      sys;
      env;
      staging_pool;
      oplog = Option.map (fun log -> Oplog.clone log ~sys ~env ~mapping) t.oplog;
      files_by_ino = Fsapi.Share.table t.files_by_ino (Fsapi.Share.get states);
      files_by_path =
        Fsapi.Share.rebuild t.files_by_path (Fsapi.Share.get states);
      fds;
      scratch = Bytes.empty;
    }
  in
  c.checkpoint <- (fun () -> relink_all c);
  c

(** Background scrubber patrol: ask the kernel to migrate file data off
    worn or poisoned blocks and retire them (runs off the critical path,
    like staging replenishment). Returns the number of blocks migrated. *)
let scrub t ~wear_limit =
  Env.in_background t.env (fun () -> Kernelfs.Ext4.scrub (kfs t) ~wear_limit)

(** Approximate DRAM footprint of U-Split metadata, for the §5.10
    resource-consumption experiment. *)
let memory_usage t =
  let mapping_bytes (m : Kernelfs.Ext4.mapping) =
    64 + (8 * Array.length m.Kernelfs.Ext4.pages)
  in
  let per_file _ st acc =
    acc + 224
    + (48 * Kernelfs.Extent_tree.count st.shadow)
    + List.fold_left (fun a m -> a + mapping_bytes m) 0 st.mmaps
  in
  let files = Hashtbl.fold per_file t.files_by_ino 0 in
  let fds = 64 * Hashtbl.length t.fds in
  let staging = 256 * Staging.live_files t.staging_pool in
  files + fds + staging

(* ------------------------------------------------------------------ *)
(* fork / execve (paper section 3.5)                                    *)
(* ------------------------------------------------------------------ *)

(** Rebuild a file-state (and fd entry) in [t'] from a still-open kernel
    fd, preserving the shared offset structure of dup'ed descriptors. *)
let adopt_fd t' ~od_kfd ~fpos ~oflags =
  let kstat = Kernelfs.Syscall.fstat t'.sys od_kfd in
  let ino = kstat.Fsapi.Fs.st_ino in
  let st =
    match Hashtbl.find_opt t'.files_by_ino ino with
    | Some st -> st
    | None ->
        (* the path is re-learned on the next open by path *)
        let st = new_state ~path:"" od_kfd kstat in
        Hashtbl.replace t'.files_by_ino ino st;
        st
  in
  st.open_count <- st.open_count + 1;
  install_fd t' { st; fpos; oflags; od_kfd }

(** [fork t ~instance] models fork(): the U-Split library is copied into
    the child's address space with the parent's descriptor table, while
    kernel state (open files) is shared. Staged data is settled first so
    parent and child do not race on the parent's staging cursors; the
    child gets its own staging pool and operation log. Returns the child
    instance and a map from parent fds to child fds. *)
let fork t ~instance =
  relink_all t;
  let child = mount ~cfg:t.cfg ~sys:t.sys ~env:t.env ~instance () in
  (* duplicate every open descriptor into the child, preserving shared
     offsets across dup'ed fds *)
  let shared : (int ref, int ref) Hashtbl.t = Hashtbl.create 8 in
  let fd_map =
    Hashtbl.fold
      (fun fd od acc ->
        let fpos =
          match Hashtbl.find_opt shared od.fpos with
          | Some r -> r
          | None ->
              let r = ref !(od.fpos) in
              Hashtbl.replace shared od.fpos r;
              r
        in
        let od_kfd = Kernelfs.Syscall.dup t.sys od.od_kfd in
        (fd, adopt_fd child ~od_kfd ~fpos ~oflags:od.oflags) :: acc)
      t.fds []
  in
  (child, fd_map)

let exec_handoff_path instance = Printf.sprintf "/.splitfs-exec-%d" instance

(** [execve t] models exec(): the address space (all U-Split DRAM state)
    is destroyed but kernel file descriptors survive. Before the exec,
    U-Split settles staged data and writes its descriptor bookkeeping to a
    shared-memory file named after the process; the fresh library instance
    in the new image reads it back and re-adopts the still-open kernel
    fds. Returns the new instance and the old-fd -> new-fd mapping. *)
let execve t =
  relink_all t;
  (* serialize fd bookkeeping: fd, kernel fd, offset-group, offset, flags *)
  let groups : (int ref, int) Hashtbl.t = Hashtbl.create 8 in
  let next_group = ref 0 in
  let lines =
    Hashtbl.fold
      (fun fd od acc ->
        let group =
          match Hashtbl.find_opt groups od.fpos with
          | Some g -> g
          | None ->
              let g = !next_group in
              incr next_group;
              Hashtbl.replace groups od.fpos g;
              g
        in
        let access =
          match od.oflags.Fsapi.Flags.access with
          | Fsapi.Flags.Rdonly -> "r"
          | Fsapi.Flags.Wronly -> "w"
          | Fsapi.Flags.Rdwr -> "rw"
        in
        Printf.sprintf "%d %d %d %d %s%s" fd od.od_kfd group !(od.fpos) access
          (if od.oflags.Fsapi.Flags.append then "a" else "")
        :: acc)
      t.fds []
  in
  let handoff = exec_handoff_path t.instance in
  let kfd = Kernelfs.Syscall.open_ t.sys handoff Fsapi.Flags.create_trunc in
  let payload = String.concat "\n" lines in
  let buf = Bytes.of_string payload in
  if Bytes.length buf > 0 then
    ignore
      (Kernelfs.Syscall.pwrite t.sys kfd ~buf ~boff:0 ~len:(Bytes.length buf)
         ~at:0);
  Kernelfs.Syscall.close t.sys kfd;
  (* --- the exec boundary: all DRAM state of [t] is now dead --- *)
  let fresh = mount ~cfg:t.cfg ~sys:t.sys ~env:t.env ~instance:t.instance () in
  (* the new image reads the handoff file and re-adopts its kernel fds *)
  let kfd = Kernelfs.Syscall.open_ fresh.sys handoff Fsapi.Flags.rdonly in
  let size = (Kernelfs.Syscall.fstat fresh.sys kfd).Fsapi.Fs.st_size in
  let data = Bytes.create size in
  ignore (Kernelfs.Syscall.pread fresh.sys kfd ~buf:data ~boff:0 ~len:size ~at:0);
  Kernelfs.Syscall.close fresh.sys kfd;
  Kernelfs.Syscall.unlink fresh.sys handoff;
  let group_refs : (int, int ref) Hashtbl.t = Hashtbl.create 8 in
  let fd_map =
    Bytes.to_string data |> String.split_on_char '\n'
    |> List.filter_map (fun line ->
           match String.split_on_char ' ' line with
           | [ fd; od_kfd; group; pos; flags ] ->
               let group = int_of_string group in
               let fpos =
                 match Hashtbl.find_opt group_refs group with
                 | Some r -> r
                 | None ->
                     let r = ref (int_of_string pos) in
                     Hashtbl.replace group_refs group r;
                     r
               in
               let oflags =
                 let base =
                   if flags = "r" then Fsapi.Flags.rdonly
                   else if String.length flags > 0 && flags.[0] = 'w' then
                     Fsapi.Flags.wronly
                   else Fsapi.Flags.rdwr
                 in
                 if String.length flags > 0 && flags.[String.length flags - 1] = 'a'
                 then Fsapi.Flags.append base
                 else base
               in
               Some
                 ( int_of_string fd,
                   adopt_fd fresh ~od_kfd:(int_of_string od_kfd) ~fpos ~oflags )
           | _ -> None)
  in
  (fresh, fd_map)

let as_fsapi t : Fsapi.Fs.t =
  let name =
    Printf.sprintf "splitfs-%s" (Config.mode_to_string t.cfg.Config.mode)
  in
  {
    Fsapi.Fs.fs_name = name;
    open_ = open_ t;
    close = close t;
    dup = dup t;
    pread = (fun fd ~buf ~boff ~len ~at -> pread t fd ~buf ~boff ~len ~at);
    pwrite = (fun fd ~buf ~boff ~len ~at -> pwrite t fd ~buf ~boff ~len ~at);
    read = (fun fd ~buf ~boff ~len -> read t fd ~buf ~boff ~len);
    write = (fun fd ~buf ~boff ~len -> write t fd ~buf ~boff ~len);
    lseek = lseek t;
    fsync = fsync t;
    ftruncate = ftruncate t;
    fstat = fstat t;
    stat = stat t;
    unlink = unlink t;
    rename = rename t;
    mkdir = mkdir t;
    rmdir = rmdir t;
    readdir = readdir t;
  }
