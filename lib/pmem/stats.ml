(** Counters for everything the evaluation needs to report: PM traffic,
    ordering instructions, kernel crossings, page faults, journal activity.

    One [t] is shared by the device, the kernel file system and the
    user-space library so that a single snapshot describes a whole
    experiment. *)

type t = {
  mutable pm_read_bytes : int;
  mutable pm_write_bytes : int;  (** bytes that reached the PM media *)
  mutable nt_stores : int;  (** non-temporal store instructions issued *)
  mutable flushes : int;  (** clwb/clflush instructions *)
  mutable fences : int;  (** sfence instructions *)
  mutable syscalls : int;  (** kernel traps *)
  mutable page_faults : int;
  mutable page_faults_huge : int;  (** subset of faults served by 2MB pages *)
  mutable journal_commits : int;
  mutable journal_bytes : int;
  mutable relinks : int;
  mutable relink_copied_bytes : int;  (** partial-block copies during relink *)
  mutable log_entries : int;  (** U-Split operation-log entries written *)
  mutable staged_bytes : int;  (** bytes routed to staging files *)
  mutable mmap_setups : int;  (** new memory-mappings established *)
  mutable media_ns : float;
      (** simulated time spent on the PM media itself; software overhead of
          an experiment = total simulated time - media_ns *)
  mutable background_ns : float;
      (** work done by background threads (staging pre-allocation, deferred
          closes); charged here instead of the foreground clock, and
          reported by the resource-consumption experiment (§5.10) *)
  mutable lock_wait_ns : float;
      (** virtual time actors spent waiting on contended locks (inode,
          journal-commit, per-file); zero in single-actor runs *)
  mutable bw_wait_ns : float;
      (** virtual time actors spent queued behind other actors' transfers
          on the shared PM bandwidth; zero in single-actor runs *)
  (* --- host-side simulator observability (no simulated-time impact) --- *)
  mutable dirty_lines_hwm : int;
      (** high-water mark of simultaneously dirty cache lines on the device *)
  mutable fast_path_hits : int;
      (** device load/store_nt/flush calls served by the clean-range fast
          path (zero dirty lines: one blit, no per-line probes) *)
  mutable slow_path_hits : int;
      (** device calls that had to walk the dirty-line bitmap *)
  mutable partial_crashes : int;
      (** crash states applied via [Device.crash_partial] (crashcheck) *)
}

let create () =
  {
    pm_read_bytes = 0;
    pm_write_bytes = 0;
    nt_stores = 0;
    flushes = 0;
    fences = 0;
    syscalls = 0;
    page_faults = 0;
    page_faults_huge = 0;
    journal_commits = 0;
    journal_bytes = 0;
    relinks = 0;
    relink_copied_bytes = 0;
    log_entries = 0;
    staged_bytes = 0;
    mmap_setups = 0;
    media_ns = 0.;
    background_ns = 0.;
    lock_wait_ns = 0.;
    bw_wait_ns = 0.;
    dirty_lines_hwm = 0;
    fast_path_hits = 0;
    slow_path_hits = 0;
    partial_crashes = 0;
  }

let copy t = { t with pm_read_bytes = t.pm_read_bytes }

(** [diff later earlier] gives the counters accumulated between two
    snapshots. *)
let diff a b =
  {
    pm_read_bytes = a.pm_read_bytes - b.pm_read_bytes;
    pm_write_bytes = a.pm_write_bytes - b.pm_write_bytes;
    nt_stores = a.nt_stores - b.nt_stores;
    flushes = a.flushes - b.flushes;
    fences = a.fences - b.fences;
    syscalls = a.syscalls - b.syscalls;
    page_faults = a.page_faults - b.page_faults;
    page_faults_huge = a.page_faults_huge - b.page_faults_huge;
    journal_commits = a.journal_commits - b.journal_commits;
    journal_bytes = a.journal_bytes - b.journal_bytes;
    relinks = a.relinks - b.relinks;
    relink_copied_bytes = a.relink_copied_bytes - b.relink_copied_bytes;
    log_entries = a.log_entries - b.log_entries;
    staged_bytes = a.staged_bytes - b.staged_bytes;
    mmap_setups = a.mmap_setups - b.mmap_setups;
    media_ns = a.media_ns -. b.media_ns;
    background_ns = a.background_ns -. b.background_ns;
    lock_wait_ns = a.lock_wait_ns -. b.lock_wait_ns;
    bw_wait_ns = a.bw_wait_ns -. b.bw_wait_ns;
    (* a high-water mark is not additive: report the later snapshot's *)
    dirty_lines_hwm = a.dirty_lines_hwm;
    fast_path_hits = a.fast_path_hits - b.fast_path_hits;
    slow_path_hits = a.slow_path_hits - b.slow_path_hits;
    partial_crashes = a.partial_crashes - b.partial_crashes;
  }

let pp ppf t =
  Fmt.pf ppf
    "pm_read=%dB pm_write=%dB nt_stores=%d flushes=%d fences=%d syscalls=%d \
     faults=%d(huge %d) jcommits=%d jbytes=%d relinks=%d relink_copy=%dB \
     log_entries=%d staged=%dB mmaps=%d media=%.0fns bg=%.0fns \
     lockw=%.0fns bww=%.0fns dirty_hwm=%d fast=%d slow=%d pcrashes=%d"
    t.pm_read_bytes t.pm_write_bytes t.nt_stores t.flushes t.fences t.syscalls
    t.page_faults t.page_faults_huge t.journal_commits t.journal_bytes
    t.relinks t.relink_copied_bytes t.log_entries t.staged_bytes t.mmap_setups
    t.media_ns t.background_ns t.lock_wait_ns t.bw_wait_ns t.dirty_lines_hwm
    t.fast_path_hits t.slow_path_hits t.partial_crashes

(** Every counter as a (label, rendered value) row — the single source
    both human-readable tables below print from, so no field can be
    forgotten in one of them. *)
let rows t =
  let i = string_of_int and ns v = Printf.sprintf "%.0f ns" v in
  [
    ("pm read bytes", i t.pm_read_bytes);
    ("pm write bytes", i t.pm_write_bytes);
    ("nt stores", i t.nt_stores);
    ("flushes (clwb)", i t.flushes);
    ("fences (sfence)", i t.fences);
    ("syscalls", i t.syscalls);
    ("page faults", i t.page_faults);
    ("page faults (huge)", i t.page_faults_huge);
    ("journal commits", i t.journal_commits);
    ("journal bytes", i t.journal_bytes);
    ("relinks", i t.relinks);
    ("relink copied bytes", i t.relink_copied_bytes);
    ("log entries", i t.log_entries);
    ("staged bytes", i t.staged_bytes);
    ("mmap setups", i t.mmap_setups);
    ("media time", ns t.media_ns);
    ("background time", ns t.background_ns);
    ("lock wait", ns t.lock_wait_ns);
    ("bandwidth wait", ns t.bw_wait_ns);
    ("dirty lines HWM", i t.dirty_lines_hwm);
    ("fast-path hits", i t.fast_path_hits);
    ("slow-path hits", i t.slow_path_hits);
    ("partial crashes", i t.partial_crashes);
  ]

(** Multi-line human-readable dump of every counter (including the PR-3
    contention fields [lock_wait_ns]/[bw_wait_ns] the one-line [pp]
    render is easy to lose in). *)
let pp_table ppf t =
  let rows = rows t in
  let w = List.fold_left (fun w (l, _) -> max w (String.length l)) 0 rows in
  List.iter (fun (l, v) -> Fmt.pf ppf "  %-*s  %s@." w l v) rows

(** [pp_delta ppf (later, earlier)] prints the counters accumulated
    between two snapshots, skipping rows whose delta is zero. *)
let pp_delta ppf (later, earlier) =
  let d = diff later earlier in
  let rows =
    List.filter
      (fun (_, v) -> v <> "0" && v <> "0 ns" && v <> "-0 ns")
      (rows d)
  in
  if rows = [] then Fmt.pf ppf "  (no change)@."
  else
    let w = List.fold_left (fun w (l, _) -> max w (String.length l)) 0 rows in
    List.iter (fun (l, v) -> Fmt.pf ppf "  %-*s  +%s@." w l v) rows
