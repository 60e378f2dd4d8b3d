(** Shared pieces of the benchmark: span names, the exact-metric record,
    the host-throughput meter and small statistics helpers. *)

(* --- span names, one per layer boundary the benchmark times --- *)

let l_open = Span.name "splitfs.open"
let l_close = Span.name "splitfs.close"
let l_write = Span.name "splitfs.write"
let l_pread = Span.name "splitfs.pread"
let l_pwrite = Span.name "splitfs.pwrite"
let l_fsync = Span.name "splitfs.fsync"
let l_unlink = Span.name "splitfs.unlink"
let l_relink_all = Span.name "splitfs.relink_all"
let l_env_create = Span.name "pmem.env_create"
let l_mkfs = Span.name "kernelfs.mkfs"
let l_mount = Span.name "splitfs.mount"
let l_recover = Span.name "splitfs.recover"
let l_make = Span.name "harness.make"
let l_prefill = Span.name "harness.prefill"
let l_generate = Span.name "crashcheck.generate"
let l_profile = Span.name "crashcheck.profile"
let l_sample = Span.name "crashcheck.sample"
let l_trial = Span.name "crashcheck.trial"
let l_setup = Span.name "crashcheck.setup"
let l_replay = Span.name "crashcheck.replay"
let l_read_back = Span.name "crashcheck.read_back"
let l_check = Span.name "crashcheck.check"
let l_oracle = Span.name "fsapi.oracle"
let l_run_trial = Span.name "crashcheck.run_trial"
let l_gen = Span.name "workloads.gen"
let l_verify = Span.name "perfbench.verify"
let l_iter = Span.name "perfbench.unit"

(* --- exact metrics: deterministic functions of the seed --- *)

(** Everything measured on the simulated clock or counted by the
    simulator over a fixed window of work. Two runs at one seed must
    produce equal records, traced or not. *)
type exact = {
  ops : int;  (** Fsapi ops in the window (replayed ops on crash-strict) *)
  lat : float array;  (** simulated latency of every op in the window *)
  user_bytes : int;  (** bytes the workload asked to write *)
  stats : Pmem.Stats.t;  (** counter deltas over the window *)
  cats : float array;  (** [Obs] attribution delta, by category index *)
  digest : int;  (** hash of the op stream or crash-state sample *)
  states : int;  (** crash states in the window (0 on data workloads) *)
  recover_sim_ns : float;  (** summed simulated time across recovery *)
  entries_replayed : int;
  verdicts : int;  (** digest of verdicts and recovered bytes *)
}

let sum_lat e = Array.fold_left ( +. ) 0. e.lat

let sim_ns_per_op e = sum_lat e /. float_of_int (max 1 e.ops)

let write_amp e =
  float_of_int e.stats.Pmem.Stats.pm_write_bytes
  /. float_of_int (max 1 e.user_bytes)

(** Exact percentile: the smallest sample with at least [q] of the
    samples at or below it. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) k))

let sorted_lat e =
  let a = Array.copy e.lat in
  Array.sort Float.compare a;
  a

(** A growable float buffer for per-op latencies. *)
module Fbuf = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 4096 0.; n = 0 }

  let push b x =
    if b.n = Array.length b.a then
      b.a <- Array.append b.a (Array.make b.n 0.);
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  let contents b = Array.sub b.a 0 b.n
end

(** Running accumulation of simulator counters across many short-lived
    environments (one per crash state) or one long-lived one. *)
let stats_add (acc : Pmem.Stats.t) (d : Pmem.Stats.t) =
  let open Pmem.Stats in
  acc.pm_read_bytes <- acc.pm_read_bytes + d.pm_read_bytes;
  acc.pm_write_bytes <- acc.pm_write_bytes + d.pm_write_bytes;
  acc.nt_stores <- acc.nt_stores + d.nt_stores;
  acc.flushes <- acc.flushes + d.flushes;
  acc.fences <- acc.fences + d.fences;
  acc.syscalls <- acc.syscalls + d.syscalls;
  acc.page_faults <- acc.page_faults + d.page_faults;
  acc.page_faults_huge <- acc.page_faults_huge + d.page_faults_huge;
  acc.journal_commits <- acc.journal_commits + d.journal_commits;
  acc.journal_bytes <- acc.journal_bytes + d.journal_bytes;
  acc.relinks <- acc.relinks + d.relinks;
  acc.relink_copied_bytes <- acc.relink_copied_bytes + d.relink_copied_bytes;
  acc.log_entries <- acc.log_entries + d.log_entries;
  acc.staged_bytes <- acc.staged_bytes + d.staged_bytes;
  acc.mmap_setups <- acc.mmap_setups + d.mmap_setups;
  acc.media_ns <- acc.media_ns +. d.media_ns;
  acc.background_ns <- acc.background_ns +. d.background_ns;
  acc.lock_wait_ns <- acc.lock_wait_ns +. d.lock_wait_ns;
  acc.bw_wait_ns <- acc.bw_wait_ns +. d.bw_wait_ns;
  acc.dirty_lines_hwm <- max acc.dirty_lines_hwm d.dirty_lines_hwm;
  acc.fast_path_hits <- acc.fast_path_hits + d.fast_path_hits;
  acc.slow_path_hits <- acc.slow_path_hits + d.slow_path_hits;
  acc.partial_crashes <- acc.partial_crashes + d.partial_crashes

let cats_add acc (obs : Obs.t) snap =
  Array.iteri (fun i x -> acc.(i) <- acc.(i) +. (x -. snap.(i))) obs.Obs.attr

(** Order-sensitive hash step for digests. *)
let mix h x = ((h * 0x100000001B3) lxor x) land max_int

(* --- host throughput --- *)

(** The host's current speed, as the time a fixed kernel of the
    benchmark's own code takes: 2000 4 KiB blits around a 1 MiB ring, each
    followed by a byte hash, about 0.6 ms. The ring does not stay in the
    core's caches across a slice of the workload, so the kernel also
    pays for reaching the shared cache and memory, which the other
    tenants of a shared host slow down as well. They slow the whole
    machine down for seconds at a time; dividing a slice's rate by the
    kernel's slowdown right after it takes most of that out, while the
    workload's own code still sets the rate. *)
let probe_ring = 1 lsl 20
let probe_buf = Bytes.create probe_ring
let probe_src = Bytes.make 4096 'p'
let probe_sink = ref 0

let probe_ns () =
  let t0 = Span.now_ns () in
  let h = ref 0 in
  for i = 0 to 1999 do
    Bytes.blit probe_src 0 probe_buf ((i * 4096) land (probe_ring - 1)) 4096;
    for k = 0 to 63 do
      let c =
        Char.code (Bytes.unsafe_get probe_buf (((i * 64) + k) land (probe_ring - 1)))
      in
      h := ((!h * 0x100000001B3) lxor (c + k)) land max_int
    done
  done;
  probe_sink := !h;
  Span.now_ns () - t0

(** A fixed constant near the kernel's time on a quiet 2-core host, in
    ns, so that scaled rates read in work per second of such a host. *)
let probe_ref_ns = 600_000.

(** Host-clock meter over the timed phase. Work is counted in units (a
    varmail iteration, a batch of Zipf ops, a round of crash states); the
    phase is cut into slices of at least [slice_ns]. After each slice the
    probe measures the host's speed; its time is in no slice. *)
type meter = {
  slice_ns : int;
  t_start : int;
  mutable t_last : int;
  mutable t_slice : int;
  mutable w_slice : int;
  mutable work : int;
  mutable rates : float list;  (** raw work per second, per slice *)
  mutable scaled : float list;  (** the same, scaled by the probe *)
}

let meter ~slice_ns =
  let t = Span.now_ns () in
  {
    slice_ns;
    t_start = t;
    t_last = t;
    t_slice = t;
    w_slice = 0;
    work = 0;
    rates = [];
    scaled = [];
  }

(** [tick m w] records [w] more units of work done; returns the host ns
    elapsed since the meter started. *)
let tick m w =
  m.work <- m.work + w;
  m.w_slice <- m.w_slice + w;
  let t = Span.now_ns () in
  m.t_last <- t;
  if t - m.t_slice >= m.slice_ns then begin
    let r = float_of_int m.w_slice *. 1e9 /. float_of_int (t - m.t_slice) in
    let p = probe_ns () in
    m.rates <- r :: m.rates;
    m.scaled <- (r *. float_of_int p /. probe_ref_ns) :: m.scaled;
    m.w_slice <- 0;
    m.t_slice <- Span.now_ns ()
  end;
  t - m.t_start

let median l =
  match List.sort Float.compare l with
  | [] -> 0.
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(** Raw work per host second over the whole timed phase, probes
    included. *)
let rate m =
  float_of_int m.work *. 1e9 /. float_of_int (max 1 (m.t_last - m.t_start))

(** The [q]-quantile of a list (0 when empty). *)
let quantile l q =
  match List.sort Float.compare l with
  | [] -> 0.
  | s ->
      let a = Array.of_list s in
      a.(int_of_float (q *. float_of_int (Array.length a - 1)))

(** The throughput a run reports: the 90th percentile of the scaled slice
    rates. A slice the probe's correction misses is one the other tenants
    slowed down, so the fast end of the scaled rates is the steady one. *)
let throughput m = quantile m.scaled 0.9

(** Slowest, quartiles, 90th percentile and fastest of slice rates. *)
let rate_spread l =
  if l = [] then "no slice"
  else
    let q = quantile l in
    Printf.sprintf "min %.1f q1 %.1f median %.1f q3 %.1f p90 %.1f max %.1f"
      (q 0.) (q 0.25) (q 0.5) (q 0.75) (q 0.9) (q 1.)

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

(** [timed f] is [f ()] with its host duration in seconds, scaled by the
    probe run just before it as a slice's rate is: a set-up the other
    tenants slowed down counts as if the host had been quiet. *)
let timed f =
  let p = probe_ns () in
  let t0 = Span.now_ns () in
  let x = f () in
  let dt = float_of_int (Span.now_ns () - t0) /. 1e9 in
  (x, dt *. probe_ref_ns /. float_of_int p)
