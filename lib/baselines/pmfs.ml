(** PMFS-like kernel PM file system (Dulloor et al., EuroSys '14) — the
    paper's sync-mode comparator.

    Protocol: synchronous in-place data writes (no data atomicity), with
    fine-grained undo logging for metadata. Every metadata change writes a
    few 64-byte undo-log entries, each flushed and fenced, before the
    in-place update — cheaper than jbd2 block journaling, pricier than
    SplitFS's user-space path. The POSIX surface is {!Pmbase}'s. *)

open Pmem

type t = {
  base : Pmbase.t;
  env : Env.t;
  mutable log_cursor : int;  (** in the undo-log ring at device address 0 *)
  entry : Bytes.t;
}

let log_reserved = 2 * 1024 * 1024

let mkfs (env : Env.t) =
  {
    base = Pmbase.create env ~reserved:log_reserved;
    env;
    log_cursor = 0;
    entry = Bytes.make 64 '\x02';
  }

(** A copy of [t] on [env], a clone of its environment. *)
let clone t ~env = { t with base = Pmbase.clone t.base ~env; env }

(** [undo_log t n] writes [n] 64-byte undo entries, fenced. *)
let undo_log t n =
  Env.with_cat t.env Obs.Journal @@ fun () ->
  let dev = t.env.Env.dev in
  for _ = 1 to n do
    if t.log_cursor + 64 > log_reserved then t.log_cursor <- 0;
    Device.store_nt dev ~addr:t.log_cursor t.entry ~off:0 ~len:64;
    t.log_cursor <- t.log_cursor + 64
  done;
  Device.fence dev;
  let stats = t.env.Env.stats in
  stats.Stats.log_entries <- stats.Stats.log_entries + n

let as_fsapi t =
  Pmbase.as_fsapi t.base
    (Pmbase.kernel t.base ~name:"pmfs"
       ~op_cpu:t.env.Env.timing.Timing.pmfs_op_cpu
       ~persist:(function
         | Pmbase.Truncate -> undo_log t 2
         | Rename -> undo_log t 4
         | Create | Unlink _ | Mkdir | Rmdir -> undo_log t 3)
       ~write:(fun file ~buf ~boff ~len ~at ->
         let fresh =
           Pmbase.write_data t.base file ~buf ~boff ~len ~at ~cow:false
         in
         (* inode + allocator undo entries when the file grew *)
         undo_log t (if fresh > 0 then 2 else 1);
         Device.fence t.env.Env.dev))
