(** Named file-system configurations: everything the evaluation compares,
    and the one registry every verification campaign builds its stacks
    from (DESIGN.md §5d).

    Each [make] builds a fresh PM device and the full stack on top of it,
    so experiments are isolated and deterministic. [make_small] builds
    the same stack at crash-trial size: every crash state re-runs its
    workload on a fresh stack, so size is latency. *)

type spec =
  | Ext4_dax
  | Splitfs_posix
  | Splitfs_sync
  | Splitfs_strict
  | Splitfs_fams  (** failure-atomic msync: staged stores, atomic publish *)
  | Splitfs_split_only  (** Fig. 3 ablation: no staging, no relink *)
  | Splitfs_staging_only  (** Fig. 3 ablation: staging but copy on fsync *)
  | Pmfs
  | Nova_relaxed
  | Nova_strict
  | Strata

let all =
  [
    Ext4_dax;
    Splitfs_posix;
    Splitfs_sync;
    Splitfs_strict;
    Splitfs_fams;
    Splitfs_split_only;
    Splitfs_staging_only;
    Pmfs;
    Nova_relaxed;
    Nova_strict;
    Strata;
  ]

let name = function
  | Ext4_dax -> "ext4-dax"
  | Splitfs_posix -> "splitfs-posix"
  | Splitfs_sync -> "splitfs-sync"
  | Splitfs_strict -> "splitfs-strict"
  | Splitfs_fams -> "splitfs-fams"
  | Splitfs_split_only -> "splitfs-split-only"
  | Splitfs_staging_only -> "splitfs-staging-only"
  | Pmfs -> "pmfs"
  | Nova_relaxed -> "nova-relaxed"
  | Nova_strict -> "nova-strict"
  | Strata -> "strata"

let of_name s =
  match List.find_opt (fun spec -> name spec = s) all with
  | Some spec -> spec
  | None -> invalid_arg (Printf.sprintf "unknown file system %S" s)

(** The SplitFS mode a stack runs in; [None] for the other file systems. *)
let mode = function
  | Splitfs_posix | Splitfs_split_only | Splitfs_staging_only ->
      Some Splitfs.Config.Posix
  | Splitfs_sync -> Some Splitfs.Config.Sync
  | Splitfs_strict -> Some Splitfs.Config.Strict
  | Splitfs_fams -> Some Splitfs.Config.Fams
  | Ext4_dax | Pmfs | Nova_relaxed | Nova_strict | Strata -> None

(** The full SplitFS stack of one mode. *)
let of_mode = function
  | Splitfs.Config.Posix -> Splitfs_posix
  | Splitfs.Config.Sync -> Splitfs_sync
  | Splitfs.Config.Strict -> Splitfs_strict
  | Splitfs.Config.Fams -> Splitfs_fams

type stack = {
  spec : spec;
  env : Pmem.Env.t;
  fs : Fsapi.Fs.t;
  sys : Kernelfs.Syscall.t option;  (** the kernel below SplitFS / ext4 *)
  usplit : Splitfs.Usplit.t option;
}

let splitfs_experiment_cfg mode =
  {
    Splitfs.Config.default with
    Splitfs.Config.mode;
    staging_files = 4;
    staging_size = 20 * 1024 * 1024;
    oplog_size = 4 * 1024 * 1024;
  }

let crash_trial_cfg mode =
  {
    (Splitfs.Config.with_mode mode) with
    Splitfs.Config.staging_files = 2;
    staging_size = 256 * 1024;
    oplog_size = 16 * 1024;
  }

(** [spec]'s SplitFS configuration with [sized] supplying the sizes. *)
let splitfs_cfg_of sized spec =
  Option.map
    (fun m ->
      let c = sized m in
      match spec with
      | Splitfs_split_only ->
          { c with Splitfs.Config.use_staging = false; use_relink = false }
      | Splitfs_staging_only -> { c with Splitfs.Config.use_relink = false }
      | _ -> c)
    (mode spec)

(** The baseline file system [spec] (PMFS, NOVA or Strata) on [env]. *)
let baseline env = function
  | Pmfs -> Baselines.Pmfs.as_fsapi (Baselines.Pmfs.mkfs env)
  | Nova_relaxed ->
      Baselines.Nova.as_fsapi (Baselines.Nova.mkfs env ~mode:Baselines.Nova.Relaxed)
  | Nova_strict ->
      Baselines.Nova.as_fsapi (Baselines.Nova.mkfs env ~mode:Baselines.Nova.Strict)
  | Strata ->
      Baselines.Strata.as_fsapi
        (Baselines.Strata.mkfs ~log_len:(4 * 1024 * 1024) env)
  | spec -> invalid_arg (Printf.sprintf "Fs_config: %s is no baseline" (name spec))

let build ~capacity ~journal_len ~timing ~checks ~cfg spec =
  let env = Pmem.Env.create ~capacity ?timing ?checks () in
  let bare fs = { spec; env; fs; sys = None; usplit = None } in
  let kernel () =
    Kernelfs.Syscall.make (Kernelfs.Ext4.mkfs ~journal_len env)
  in
  match (spec, cfg) with
  | _, Some cfg ->
      let sys = kernel () in
      let u = Splitfs.Usplit.mount ~cfg ~sys ~env ~instance:0 () in
      let fs = Splitfs.Usplit.as_fsapi u in
      { (bare fs) with sys = Some sys; usplit = Some u }
  | Ext4_dax, None ->
      let sys = kernel () in
      { (bare (Kernelfs.Syscall.as_fsapi sys)) with sys = Some sys }
  | _, None -> bare (baseline env spec)

(** Build a stack at experiment size. [capacity] sizes the simulated PM
    device; [splitfs_cfg] replaces the SplitFS configuration outright. *)
let make ?(capacity = 256 * 1024 * 1024) ?timing ?splitfs_cfg spec =
  let cfg = splitfs_cfg_of splitfs_experiment_cfg spec in
  build ~capacity ~journal_len:(8 * 1024 * 1024) ~timing ~checks:None spec
    ~cfg:(Option.map (fun c -> Option.value splitfs_cfg ~default:c) cfg)

(** Build a stack at crash-trial size: an 8 MiB device, a 1 MiB jbd2
    journal and, on SplitFS, two 256 KiB staging files and a 16 KiB op
    log. [tweak] adjusts that SplitFS configuration (degraded and
    ablation configurations); [checks] sets the environment's
    oracle/recovery toggles (the injected-bug canaries). *)
let make_small ?checks ?(tweak = Fun.id) spec =
  build ~capacity:(8 * 1024 * 1024) ~journal_len:(1024 * 1024) ~timing:None
    ~checks spec
    ~cfg:(Option.map tweak (splitfs_cfg_of crash_trial_cfg spec))

(** A checkpoint: relink every staged byte on SplitFS; nothing to do on
    the other file systems. *)
let checkpoint st = Option.iter Splitfs.Usplit.relink_all st.usplit
