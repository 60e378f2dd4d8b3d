(** Crash recovery for SplitFS (paper §5.3).

    POSIX and sync modes need nothing beyond ext4 DAX journal recovery
    (which the simulation's kernel provides by construction: metadata
    operations are atomic at journal commit). In strict mode the valid
    entries of the operation log are replayed on top: every staged data
    operation whose relink had not completed is relinked now, using the
    same kernel primitive. Replay is idempotent — an already-relinked range
    has no extents left in the staging file, so those blocks are skipped
    (re-running the swap would de-allocate the target blocks the completed
    relink just delivered), and boundary-block copies rewrite identical
    bytes.

    Recovery works at inode granularity (the log records inode numbers,
    not paths), exactly like the original implementation. *)

open Pmem

let block_size = Kernelfs.Ext4.block_size

type report = {
  entries_scanned : int;
  entries_replayed : int;
  torn_entries : int;
  torn_data_entries : int;
      (** valid-looking entries dropped because their staged data failed
          its checksum (entry persisted, data torn) *)
  files_recovered : int;
  replay_skipped : int;
      (** ops dropped because their staged source bytes were unreadable
          (poisoned PM lines) — the lines are quarantined and the target
          keeps its pre-op content instead of recovery failing outright *)
  replay_ns : float;  (** simulated time spent replaying *)
}

(** Pending staged ops per target inode, reconstructed in log order.

    Fams-staged entries are collected separately: they stay invisible
    until their inode's [Msync_commit] record promotes them to pending —
    everything still uncommitted when the scan ends is dropped, which is
    exactly the failure-atomic msync contract (the pre-msync image
    survives). A commit record is only ever appended after the fence that
    made the staged entries and their data durable, so promoted ops never
    need the torn-data check the per-op-fenced kinds get. *)
let collect entries =
  let pending : (int, Oplog.data_op list ref) Hashtbl.t = Hashtbl.create 64 in
  let uncommitted : (int, Oplog.data_op list ref) Hashtbl.t =
    Hashtbl.create 64
  in
  let touch tbl ino =
    match Hashtbl.find_opt tbl ino with
    | Some l -> l
    | None ->
        let l = ref [] in
        Hashtbl.replace tbl ino l;
        l
  in
  let trim_ops size ops =
    List.filter_map
      (fun (op : Oplog.data_op) ->
        if op.Oplog.file_off >= size then None
        else if op.Oplog.file_off + op.Oplog.len <= size then Some op
        else Some { op with Oplog.len = size - op.Oplog.file_off })
      ops
  in
  List.iter
    (fun entry ->
      match entry with
      | Oplog.Append op | Oplog.Overwrite op ->
          let l = touch pending op.Oplog.target_ino in
          l := op :: !l
      | Oplog.Fams_append op | Oplog.Fams_overwrite op ->
          let l = touch uncommitted op.Oplog.target_ino in
          l := op :: !l
      | Oplog.Msync_commit { target_ino } -> (
          match Hashtbl.find_opt uncommitted target_ino with
          | Some u ->
              Hashtbl.remove uncommitted target_ino;
              (* promoted ops are newer than anything already pending for
                 the inode; both lists are newest-first *)
              let p = touch pending target_ino in
              p := !u @ !p
          | None -> ())
      | Oplog.Relinked { target_ino } -> Hashtbl.remove pending target_ino
      | Oplog.Unlink { ino } ->
          Hashtbl.remove pending ino;
          Hashtbl.remove uncommitted ino
      | Oplog.Truncate { ino; size } ->
          let l = touch pending ino in
          l := trim_ops size !l;
          (match Hashtbl.find_opt uncommitted ino with
          | Some u -> u := trim_ops size !u
          | None -> ())
      | Oplog.Create _ | Oplog.Rename _ | Oplog.Snapshot _ -> ())
    entries;
  pending

(** Replay one staged op: copy partial boundary blocks, relink full
    blocks — the same protocol U-Split runs on fsync. *)
let replay_op kfs (env : Env.t) ~target ~staging (op : Oplog.data_op) =
  let copy ~t_off ~s_off ~len =
    (* skip ranges whose staging blocks are gone: a completed relink moved
       them into the target wholesale (the tail block reaching EOF is
       relinked, not copied), so "replaying" the copy would read the hole
       as zeros and destroy the very bytes the relink just delivered *)
    if len > 0 && Kernelfs.Ext4.range_mapped kfs staging ~off:s_off ~len
    then begin
      let buf = Bytes.create len in
      let got = Kernelfs.Ext4.pread kfs staging ~off:s_off buf ~boff:0 ~len in
      ignore (Kernelfs.Ext4.pwrite kfs target ~off:t_off buf ~boff:0 ~len:got)
    end
  in
  let t_off = op.Oplog.file_off and s_off = op.Oplog.staging_off in
  let len = op.Oplog.len in
  let head =
    if t_off mod block_size = 0 then 0
    else min len (block_size - (t_off mod block_size))
  in
  copy ~t_off ~s_off ~len:head;
  let t2 = t_off + head and s2 = s_off + head and rem = len - head in
  let nfull = rem / block_size in
  (* relink only the staging blocks that are still mapped: a relink that
     completed before the crash moved them into the target and left holes
     behind, and re-running the swap there would free — not refill — the
     target's fresh blocks. A crash between relink_file's per-extent
     transactions leaves the range partially moved, so test each block. *)
  for b = 0 to nfull - 1 do
    let sb = s2 + (b * block_size) in
    if Kernelfs.Ext4.range_mapped kfs staging ~off:sb ~len:block_size then
      Kernelfs.Ext4.relink kfs ~src:staging ~src_blk:(sb / block_size)
        ~dst:target
        ~dst_blk:((t2 + (b * block_size)) / block_size)
        ~nblks:1 ~dst_size:None
  done;
  let tail = rem - (nfull * block_size) in
  copy
    ~t_off:(t2 + (nfull * block_size))
    ~s_off:(s2 + (nfull * block_size))
    ~len:tail;
  if t_off + len > target.Kernelfs.Ext4.size then begin
    target.Kernelfs.Ext4.size <- t_off + len
  end;
  ignore env

(** [recover ~sys ~env ~instance] scans the instance's operation log,
    replays every pending staged operation, and zeroes the log. *)
let empty_report =
  {
    entries_scanned = 0;
    entries_replayed = 0;
    torn_entries = 0;
    torn_data_entries = 0;
    files_recovered = 0;
    replay_skipped = 0;
    replay_ns = 0.;
  }

(** The final logged data op may have torn staged data: the entry and its
    data share one sfence, so the entry can be durable while some of the
    data is not. Verify its data checksum and drop the entry when the
    bytes do not match. Earlier entries need no check — a later slot is
    only written after the preceding op's fence made its data durable.
    The check is skipped when the staging range is no longer fully mapped:
    relink already moved those blocks, so the op provably completed (and
    its fence with it) and replay of the half-moved range must stay
    idempotent. *)
let verify_final_data ~verify kfs valid =
  match List.rev valid with
  | (Oplog.Append op | Oplog.Overwrite op) :: earlier when verify -> (
      match Kernelfs.Ext4.inode_of kfs op.Oplog.staging_ino with
      | exception Fsapi.Errno.Error (Fsapi.Errno.ENOENT, _) -> (valid, 0)
      | staging ->
          if
            not
              (Kernelfs.Ext4.range_mapped kfs staging
                 ~off:op.Oplog.staging_off ~len:op.Oplog.len)
          then (valid, 0)
          else begin
            let buf = Bytes.create op.Oplog.len in
            let got =
              Kernelfs.Ext4.pread kfs staging ~off:op.Oplog.staging_off buf
                ~boff:0 ~len:op.Oplog.len
            in
            if
              got = op.Oplog.len
              && Fsapi.Crc32.bytes buf = op.Oplog.data_crc
            then (valid, 0)
            else (List.rev earlier, 1)
          end)
  | _ -> (valid, 0)

let recover ~sys ~env ~instance =
  Env.with_span env ~cat:Obs.Usplit ~name:"u:recover" @@ fun () ->
  let kfs = Kernelfs.Syscall.kernel sys in
  let dev = env.Env.dev in
  let faults = env.Env.faults in
  let verify = env.Env.checks.Env.verify_checksums in
  let path = Oplog.instance_path instance in
  let t0 = Env.now env in
  (* quarantine the PM line behind the most recent machine-check so the
     faulted range reads back as zeros instead of faulting forever *)
  let quarantine_last () =
    let a = Device.last_poison dev in
    if a >= 0 then Device.quarantine dev ~addr:a ~len:1
  in
  (* A poisoned line inside the log region surfaces as EIO from the scan's
     kernel reads. Recovery must not fail on it: quarantine the line (the
     slot then decodes as torn — checksums reject zeros with the entry's
     other bytes — or empty) and rescan. *)
  let max_scan_attempts = 64 in
  let rec scan_log attempt =
    match Oplog.scan ~verify sys path with
    | scan -> Some scan
    | exception Fsapi.Errno.Error (Fsapi.Errno.ENOENT, _) -> None
    | exception Fsapi.Errno.Error (Fsapi.Errno.EIO, _)
      when attempt < max_scan_attempts && Device.last_poison dev >= 0 ->
        quarantine_last ();
        Faults.note_retried faults;
        scan_log (attempt + 1)
  in
  match scan_log 1 with
  | None ->
      (* POSIX-mode instances have no operation log: ext4 journal recovery
         alone suffices (§5.3) *)
      empty_report
  | Some scan ->
  let valid, torn_data =
    match verify_final_data ~verify kfs scan.Oplog.valid with
    | r -> r
    | exception Faults.Poisoned a ->
        (* the final entry's staged data is unreadable: it certainly
           cannot pass its checksum — drop it and move on *)
        Device.quarantine dev ~addr:a ~len:1;
        (match List.rev scan.Oplog.valid with
        | _ :: earlier -> (List.rev earlier, 1)
        | [] -> ([], 0))
  in
  let pending = collect valid in
  let replayed = ref 0 and files = ref 0 and skipped = ref 0 in
  let skip_op () =
    quarantine_last ();
    Faults.note_replay_skipped faults;
    incr skipped
  in
  Hashtbl.iter
    (fun ino ops ->
      match Kernelfs.Ext4.inode_of kfs ino with
      | target ->
          incr files;
          List.iter
            (fun (op : Oplog.data_op) ->
              match Kernelfs.Ext4.inode_of kfs op.Oplog.staging_ino with
              | staging -> (
                  match replay_op kfs env ~target ~staging op with
                  | () -> incr replayed
                  | exception Faults.Poisoned a ->
                      (* staged source bytes are gone to a media fault:
                         quarantine and skip — the target keeps its
                         pre-op content for the unreplayed range *)
                      Device.quarantine dev ~addr:a ~len:1;
                      Faults.note_replay_skipped faults;
                      incr skipped
                  | exception Fsapi.Errno.Error (Fsapi.Errno.EIO, _) ->
                      skip_op ())
              | exception Fsapi.Errno.Error (Fsapi.Errno.ENOENT, _) -> ())
            (List.rev !ops)
      | exception Fsapi.Errno.Error (Fsapi.Errno.ENOENT, _) -> ())
    pending;
  (* make the replayed state durable, then reset the log for reuse *)
  Kernelfs.Ext4.fsync kfs (Kernelfs.Ext4.root_inode kfs);
  Oplog.reset sys path ~used:scan.Oplog.scanned;
  {
    entries_scanned = scan.Oplog.scanned;
    entries_replayed = !replayed;
    torn_entries = scan.Oplog.torn;
    torn_data_entries = torn_data;
    files_recovered = !files;
    replay_skipped = !skipped;
    replay_ns = Env.now env -. t0;
  }
