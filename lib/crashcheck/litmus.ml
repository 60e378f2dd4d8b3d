(** Litmus corpus: small named crash-consistency workloads explored in
    exhaustive reordering mode across seven persistent-memory stacks
    (DESIGN.md §5i).

    Where {!Crashcheck} samples the crash-state space of long random
    workloads, each litmus pattern is a handful of operations chosen so
    that the persist-order journal's state space stays exhaustively
    enumerable — every legal combination of lost cache lines at every
    fence is replayed, recovered and checked. The patterns are the
    classic application idioms from the Ferrite line of work
    (create-then-rename, unfenced double append, the Chrome
    append-and-rename profile, replace-via-truncate) plus four shapes
    specific to this code base: a WAL commit with log rotation, the
    staged-append/relink-publish sequence that SplitFS strict mode lives
    on, the failure-atomic msync publish, and the snapshot
    copy-on-write idiom.

    Enumerability rests on the persist-order journal's one rule: a store
    that leaves a line's content unchanged adds no version. jbd2 journal
    blocks and fresh-block zeroing write all-zero content over all-zero
    lines, and dropping those stores is what keeps a pattern's crash
    space in the thousands instead of 2^60.

    Each stack is checked against the strongest contract it claims
    (paper Table 3): SplitFS strict is atomic, SplitFS sync and the
    kernel file systems are synchronous-but-tearable, SplitFS POSIX
    promises only fsync'd data, and SplitFS fams promises exactly the
    pre- or post-msync image. On top of the per-file differential
    check every pattern carries a claim — a cross-file safety property
    ("the destination of the rename always exists") evaluated on every
    recovered crash state. A pattern is a {!Trial.program} with that
    claim, and its crash states run through the one explorer
    ({!Trial.explore}) crashcheck runs too. *)

(* ------------------------------------------------------------------ *)
(* Patterns                                                             *)
(* ------------------------------------------------------------------ *)

type pattern = { p_name : string; p_program : Trial.program }

(** A one-client pattern: [initial] lists (path, length, payload seed),
    created and fsync'd before the crash window opens, bound to slots
    0..n-1; every path in [paths] is checked after recovery, and
    [claim] over the recovered state on top. *)
let pattern name ~initial ~paths ~claim ops =
  {
    p_name = name;
    p_program =
      {
        Trial.initial =
          List.map
            (fun (path, len, seed) -> { Trial.client = 0; path; len; seed })
            initial;
        paths = Array.of_list paths;
        ops = List.map (fun op -> (0, op)) ops;
        claim;
      };
  }

let must_exist path what lookup =
  match lookup path with
  | Some _ -> None
  | None -> Some (Printf.sprintf "%s: %s" path what)

(** create + write + fsync + rename: the textbook atomic-replace idiom.
    The destination must exist in every crash state, and under the
    atomic contract its content is exactly the old or the new file. *)
let create_rename =
  pattern "create-rename"
    ~initial:[ ("/f", 96, 1) ]
    ~paths:[ "/f"; "/f.tmp" ]
    Trial.
      [
        Create { slot = 1; path = "/f.tmp" };
        Op (Workload.Write { file = 1; at = 0; len = 96; seed = 2 });
        Op (Workload.Fsync { file = 1 });
        Rename { src = "/f.tmp"; dst = "/f" };
      ]
    ~claim:(fun contract lookup ->
      match lookup "/f" with
      | None -> Some "/f lost: no crash state may drop the rename target"
      | Some b when contract = Check.Atomic ->
          if
            Bytes.equal b (Workload.payload ~seed:1 96)
            || Bytes.equal b (Workload.payload ~seed:2 96)
          then None
          else Some "/f is neither the old nor the new content"
      | Some _ -> None)

(** Two appends with no fsync between them. Under the atomic contract
    the second append must never be durable without the first — the
    Ferrite prefix-append litmus. *)
let two_appends =
  pattern "two-appends"
    ~initial:[ ("/log", 64, 3) ]
    ~paths:[ "/log" ]
    Trial.
      [
        Op (Workload.Write { file = 0; at = 64; len = 64; seed = 4 });
        Op (Workload.Write { file = 0; at = 128; len = 64; seed = 5 });
      ]
    ~claim:(fun contract lookup ->
      match (contract, lookup "/log") with
      | _, None -> Some "/log lost"
      | Check.Atomic, Some b ->
          let init = Workload.payload ~seed:3 64 in
          let a = Bytes.cat init (Workload.payload ~seed:4 64) in
          let ab = Bytes.cat a (Workload.payload ~seed:5 64) in
          if List.exists (Bytes.equal b) [ init; a; ab ] then None
          else Some "/log holds append B without append A (or a tear)"
      | _ -> None)

(** The Chrome profile-save bug shape: append into a temp file and
    rename it over the live one with no fsync. The destination must
    still exist in every crash state; its content is only constrained
    by each stack's own contract (on POSIX-grade stacks it may well be
    empty — that is the documented bug, not a violation). *)
let chrome =
  pattern "chrome"
    ~initial:[ ("/prefs", 64, 6) ]
    ~paths:[ "/prefs"; "/prefs.tmp" ]
    Trial.
      [
        Create { slot = 1; path = "/prefs.tmp" };
        Op (Workload.Write { file = 1; at = 0; len = 128; seed = 7 });
        Rename { src = "/prefs.tmp"; dst = "/prefs" };
      ]
    ~claim:(fun _ lookup -> must_exist "/prefs" "rename target lost" lookup)

(** Replace a file's content in place: truncate to zero, rewrite,
    fsync twice (the second fsync has no new data and exercises the
    kernel fsync fast path). *)
let replace_truncate =
  pattern "replace-truncate"
    ~initial:[ ("/cfg", 128, 8) ]
    ~paths:[ "/cfg" ]
    Trial.
      [
        Truncate { slot = 0; size = 0 };
        Op (Workload.Write { file = 0; at = 0; len = 128; seed = 9 });
        Op (Workload.Fsync { file = 0 });
        Op (Workload.Fsync { file = 0 });
      ]
    ~claim:(fun contract lookup ->
      match (contract, lookup "/cfg") with
      | _, None -> Some "/cfg lost"
      | Check.Atomic, Some b ->
          if
            Bytes.length b = 0
            || Bytes.equal b (Workload.payload ~seed:8 128)
            || Bytes.equal b (Workload.payload ~seed:9 128)
          then None
          else Some "/cfg is neither old, empty, nor the new content"
      | _ -> None)

(** Write-ahead-log commit with rotation: append a record, fsync it,
    drop the previous log generation, checkpoint. Exercises the oplog
    clear path and strict unlink logging. *)
let wal_commit =
  pattern "wal-commit"
    ~initial:[ ("/wal", 64, 10); ("/wal.old", 64, 11) ]
    ~paths:[ "/wal"; "/wal.old" ]
    Trial.
      [
        Op (Workload.Write { file = 0; at = 64; len = 64; seed = 12 });
        Op (Workload.Fsync { file = 0 });
        Unlink { path = "/wal.old" };
        Op Workload.Checkpoint;
      ]
    ~claim:(fun _ lookup -> must_exist "/wal" "live log lost" lookup)

(** The SplitFS bread-and-butter sequence: staged appends, a relink at
    fsync (boundary copies, publish entry), more staged appends, then a
    checkpoint clearing the operation log. *)
let relink_publish =
  pattern "relink-publish"
    ~initial:[ ("/data", 64, 13) ]
    ~paths:[ "/data" ]
    Trial.
      [
        Op (Workload.Write { file = 0; at = 64; len = 64; seed = 14 });
        Op (Workload.Write { file = 0; at = 128; len = 64; seed = 15 });
        Op (Workload.Fsync { file = 0 });
        Op (Workload.Write { file = 0; at = 192; len = 64; seed = 16 });
        Op Workload.Checkpoint;
      ]
    ~claim:(fun _ lookup -> must_exist "/data" "file lost" lookup)

(** Overlay a write on top of [base], growing it if the write lands past
    the end — the oracle-side image algebra the fams claims are stated
    in. *)
let overlay base ~at ~len ~seed =
  let size = max (Bytes.length base) (at + len) in
  let b = Bytes.make size '\000' in
  Bytes.blit base 0 b 0 (Bytes.length base);
  Bytes.blit (Workload.payload ~seed len) 0 b at len;
  b

(** The failure-atomic msync idiom: unfenced stores (overwrite crossing
    EOF, then a pure append), an msync publishing both atomically, an
    in-place overwrite published by a second msync, and a trailing store
    no msync ever publishes. Under the fams contract every crash state
    must recover to exactly one of the three msync images — the trailing
    store must never be visible, a half-published msync never survives. *)
let msync_publish =
  let img0 = Workload.payload ~seed:20 96 in
  let img1 =
    overlay (overlay img0 ~at:64 ~len:96 ~seed:21) ~at:160 ~len:64 ~seed:22
  in
  let img2 = overlay img1 ~at:0 ~len:48 ~seed:23 in
  pattern "msync-publish"
    ~initial:[ ("/db", 96, 20) ]
    ~paths:[ "/db" ]
    Trial.
      [
        Op (Workload.Write { file = 0; at = 64; len = 96; seed = 21 });
        Op (Workload.Write { file = 0; at = 160; len = 64; seed = 22 });
        Op (Workload.Fsync { file = 0 });
        Op (Workload.Write { file = 0; at = 0; len = 48; seed = 23 });
        Op (Workload.Fsync { file = 0 });
        Op (Workload.Write { file = 0; at = 224; len = 32; seed = 24 });
      ]
    ~claim:(fun contract lookup ->
      match (contract, lookup "/db") with
      | _, None -> Some "/db lost"
      | Check.Fams, Some b ->
          if List.exists (Bytes.equal b) [ img0; img1; img2 ] then None
          else Some "/db is not one of the three msync images"
      | _ -> None)

(** Snapshot copy-on-write: stage a write, snapshot the file (publish +
    extent-map clone), then overwrite the source over the now-shared
    blocks and publish that too. The snapshot must keep the published
    image it captured — an in-place store through the source that fails
    to break the share corrupts it. *)
let snapshot_cow =
  let img_pub =
    overlay (Workload.payload ~seed:30 160) ~at:64 ~len:64 ~seed:31
  in
  pattern "snapshot-cow"
    ~initial:[ ("/src", 160, 30) ]
    ~paths:[ "/src"; "/snap" ]
    Trial.
      [
        Op (Workload.Write { file = 0; at = 64; len = 64; seed = 31 });
        Snapshot { src = "/src"; dst = "/snap" };
        Op (Workload.Write { file = 0; at = 0; len = 96; seed = 32 });
        Op (Workload.Fsync { file = 0 });
      ]
    ~claim:(fun contract lookup ->
      match contract with
      | Check.Fams | Check.Atomic -> (
          match lookup "/snap" with
          | None -> None (* crash before the clone committed *)
          | Some b ->
              if Bytes.length b = 0 || Bytes.equal b img_pub then None
              else Some "/snap is neither empty nor the published image")
      | _ -> None)

(** The four Ferrite-style application patterns. *)
let ferrite = [ create_rename; two_appends; chrome; replace_truncate ]

let corpus =
  ferrite @ [ wal_commit; relink_publish; msync_publish; snapshot_cow ]

let find_pattern name = List.find_opt (fun p -> p.p_name = name) corpus

(* ------------------------------------------------------------------ *)
(* Combinations                                                         *)
(* ------------------------------------------------------------------ *)

module Fs_config = Stacks.Fs_config

(** One pattern on one configuration, held to one contract. [c_build]
    mounts a fresh crash-trial-sized stack from the {!Fs_config}
    registry: the combo's start ({!Trial.start}), which every enumerated
    crash state clones. *)
type combo = {
  c_config : string;  (** stack name, or an auxiliary configuration name *)
  c_contract : Check.contract;
  c_pattern : pattern;
  c_build : unit -> Fs_config.stack;
}

let combo_name c = c.c_pattern.p_name ^ "/" ^ c.c_config

(** The seven stacks the corpus runs on. *)
let stacks =
  Fs_config.
    [
      Ext4_dax;
      Pmfs;
      Nova_relaxed;
      Splitfs_posix;
      Splitfs_sync;
      Splitfs_strict;
      Splitfs_fams;
    ]

let on_stack p spec =
  {
    c_config = Fs_config.name spec;
    c_contract = Check.contract_of spec;
    c_pattern = p;
    c_build = (fun () -> Fs_config.make_small spec);
  }

(** A degraded SplitFS: a sticky staging-preallocation fault forces
    every staged write down the honest kernel-passthrough path, hitting
    the [usplit:degraded-write] fence. *)
let degraded () =
  (* an empty pool forces every acquire through foreground
     pre-allocation, where the sticky fault fires *)
  let st =
    Fs_config.make_small
      ~tweak:(fun c -> { c with Splitfs.Config.staging_files = 0 })
      Fs_config.Splitfs_sync
  in
  Faults.inject st.env.Pmem.Env.faults
    (Faults.rfault ~origin:Faults.Staging_prealloc Faults.Alloc ~from:0
       Faults.Sticky);
  st

(** Configurations exercising fence sites the seven main stacks never
    reach: the degraded kernel-passthrough write and the Figure-3
    split-without-staging ablation. Both route appends through the
    kernel, so they are held to the kernel contract, not SplitFS sync. *)
let aux_combos =
  [
    {
      c_config = "splitfs-sync-degraded";
      c_contract = Check.Sync_dax;
      c_pattern = two_appends;
      c_build = degraded;
    };
    {
      c_config = "splitfs-sync-nostaging";
      c_contract = Check.Sync_dax;
      c_pattern = two_appends;
      c_build =
        (fun () ->
          Fs_config.make_small
            ~tweak:(fun c -> { c with Splitfs.Config.use_staging = false })
            Fs_config.Splitfs_sync);
    };
  ]

(** Every pattern on every stack in corpus order, then the auxiliary
    configurations: everything litmus checks and the fence minimizer
    re-explores. *)
let combos =
  List.concat_map (fun p -> List.map (on_stack p) stacks) corpus @ aux_combos

(* ------------------------------------------------------------------ *)
(* Profiling                                                            *)
(* ------------------------------------------------------------------ *)

let start c = Trial.start ~build:c.c_build c.c_pattern.p_program

(** Every crash point of the combo, and the fence sites that fire inside
    its crash window (the evidence the minimizer works from): one run to
    completion with the persist-order journal on ({!Trial.profile}), on
    a clone of [s], the combo's {!start}. *)
let profile s c =
  let points, before, after = Trial.profile s c.c_pattern.p_program in
  let fired =
    List.filter_map
      (fun ((site, _), (h0, h1)) -> if h1 > h0 then Some site else None)
      (List.combine (Pmem.Device.fence_sites ()) (List.combine before after))
  in
  (points, fired)

(** Per-site execution totals over one profiling pass of every combo,
    *including* mount/setup-time traffic (the in-window [profile] hits
    miss mount-only sites like [oplog:init]). Feeds the coverage test: a
    site with zero total is one no workload reaches and the minimizer
    cannot vouch for. *)
let site_coverage () =
  let per_combo =
    Par.map
      (fun _ c ->
        let _, _, after = Trial.profile (start c) c.c_pattern.p_program in
        after)
      combos
  in
  List.mapi
    (fun k (site, name) ->
      ( site,
        name,
        List.fold_left (fun acc hits -> acc + List.nth hits k) 0 per_combo ))
    (Pmem.Device.fence_sites ())

(* ------------------------------------------------------------------ *)
(* Exhaustive driver                                                    *)
(* ------------------------------------------------------------------ *)

(** Litmus is exhaustive by construction: a pattern whose crash space
    outgrows this per-point cap is a corpus bug, not a sampling
    opportunity. *)
let max_point_states = 4096

(** Every crash state of the combo ({!Trial.explore}), on the calling
    domain, on clones of one start: the corpus and the minimizer fan out
    over combos and sites above it. *)
let run_combo c =
  let s = start c in
  let points, _ = profile s c in
  List.iter
    (fun (pt : Explore.point) ->
      let n = Explore.state_count pt.Explore.pending in
      if n > max_point_states then
        failwith
          (Printf.sprintf
             "litmus %s on %s: %d crash states at fence %d exceed the \
              exhaustive cap %d"
             c.c_pattern.p_name c.c_config n pt.Explore.fence max_point_states))
    points;
  Trial.explore ~jobs:1 ~contract:c.c_contract s c.c_pattern.p_program points

(** [combos], each exhaustively, each report with its combo. Combos are
    independent — each sets up its own start — so they fan over the
    {!Par} domain pool; results come back in combo order, identical at
    any job count. *)
let run_corpus ?jobs combos =
  Par.map ?jobs (fun _ c -> (c, run_combo c)) combos

(** Harness self-test: break the fams publish protocol (no commit record
    before the relink — [Env.checks.fams_commit_record]) and re-explore
    the msync pattern exhaustively. Mid-publish crash states must then
    recover to a torn image and violate the fams contract; returns [true]
    when the corpus caught the injected bug. A harness that stays green
    with the commit record deleted would be vouching for nothing. *)
let catches_torn_msync () =
  let checks =
    { Pmem.Env.default_checks with Pmem.Env.fams_commit_record = false }
  in
  let c =
    {
      (on_stack msync_publish Fs_config.Splitfs_fams) with
      c_config = "splitfs-fams-nocommit";
      c_build = (fun () -> Fs_config.make_small ~checks Fs_config.Splitfs_fams);
    }
  in
  (run_combo c).Trial.r_violations <> []

let pp_run ppf (c, (r : Trial.report)) =
  Fmt.pf ppf
    "@[<v2>%-16s %-22s %-8s %3d points %5d states (exhaustive)  %d \
     violation(s)%a@]"
    c.c_pattern.p_name c.c_config
    (Check.contract_name c.c_contract)
    r.r_points r.r_states
    (List.length r.r_violations)
    Fmt.(list ~sep:nop (fun ppf v -> Fmt.pf ppf "@,%a" Trial.pp_violation v))
    r.r_violations
