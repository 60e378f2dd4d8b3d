(** NOVA-like log-structured PM file system (Xu & Swanson, FAST '16) —
    the paper's main strict-mode comparator.

    Modelled protocol, per operation: append one log entry to the inode's
    log (one cache-line NT store), then persist the log tail (a second
    cache-line write plus flush), with two fences — the "at least two cache
    lines and two fences" the paper contrasts with SplitFS's single
    checksummed line and single fence (§3.3).

    Two configurations, as defined in paper §3.2:
    - [Strict] — copy-on-write data updates, atomic data operations
      (NOVA-strict);
    - [Relaxed] — in-place data updates, log only for metadata
      (NOVA-relaxed), equivalent to SplitFS-sync guarantees.

    The POSIX surface is {!Pmbase}'s. *)

open Pmem

type mode = Strict | Relaxed

type t = {
  base : Pmbase.t;
  env : Env.t;
  mode : mode;
  mutable log_cursor : int;  (** in the log ring at device address 0 *)
  entry : Bytes.t;  (** scratch 64 B log entry *)
}

let log_reserved = 4 * 1024 * 1024

let mkfs (env : Env.t) ~mode =
  {
    base = Pmbase.create env ~reserved:log_reserved;
    env;
    mode;
    log_cursor = 0;
    entry = Bytes.make 64 '\x01';
  }

(** A copy of [t] on [env], a clone of its environment. *)
let clone t ~env = { t with base = Pmbase.clone t.base ~env; env }

(** One logged operation: log entry + persisted tail = two cache lines,
    two fences. *)
let log_op t =
  Env.with_cat t.env Obs.Journal @@ fun () ->
  let dev = t.env.Env.dev in
  if t.log_cursor + 128 > log_reserved then t.log_cursor <- 0;
  Device.store_nt dev ~addr:t.log_cursor t.entry ~off:0 ~len:64;
  Device.fence dev;
  (* tail update: temporal store + clflush + fence *)
  Device.store dev ~addr:(t.log_cursor + 64) t.entry ~off:0 ~len:8;
  Device.flush dev ~addr:(t.log_cursor + 64) ~len:8;
  Device.fence dev;
  t.log_cursor <- t.log_cursor + 128;
  let stats = t.env.Env.stats in
  stats.Stats.log_entries <- stats.Stats.log_entries + 1

let as_fsapi t =
  let tm = t.env.Env.timing in
  Pmbase.as_fsapi t.base
    (Pmbase.kernel t.base
       ~name:(match t.mode with Strict -> "nova-strict" | Relaxed -> "nova-relaxed")
       ~op_cpu:tm.Timing.nova_op_cpu
       ~persist:(function
         | Pmbase.Rename ->
             (* rename journals entries in both directory logs *)
             log_op t;
             log_op t
         | Create | Truncate | Unlink _ | Mkdir | Rmdir -> log_op t)
       ~write:(fun file ~buf ~boff ~len ~at ->
         let fresh =
           Pmbase.write_data t.base file ~buf ~boff ~len ~at
             ~cow:(t.mode = Strict)
         in
         Env.cpu_cat t.env Obs.Alloc
           (tm.Timing.nova_alloc_cpu *. float_of_int (max 1 fresh));
         log_op t))
