(** Named file-system configurations: everything the evaluation compares,
    and the one registry every verification campaign builds its stacks
    from (DESIGN.md §5d).

    Each [make] builds a fresh PM device and the full stack on top of it,
    so experiments are isolated and deterministic. [make_small] builds
    the same stack at crash-trial size, and [clone] copies one: every
    crash state runs its workload on a clone of one set-up stack. *)

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

(** The state behind a baseline's [fs], kept for {!clone}. *)
type baseline =
  | Pmfs_fs of Baselines.Pmfs.t
  | Nova_fs of Baselines.Nova.t
  | Strata_fs of Baselines.Strata.t

type stack = {
  spec : spec;
  env : Pmem.Env.t;
  fs : Fsapi.Fs.t;
  sys : Kernelfs.Syscall.t option;  (** the kernel below SplitFS / ext4 *)
  usplit : Splitfs.Usplit.t option;
  base : baseline option;  (** PMFS, NOVA or Strata *)
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

let baseline_fs = function
  | Pmfs_fs p -> Baselines.Pmfs.as_fsapi p
  | Nova_fs n -> Baselines.Nova.as_fsapi n
  | Strata_fs s -> Baselines.Strata.as_fsapi s

let mkfs_baseline env = function
  | Pmfs -> Pmfs_fs (Baselines.Pmfs.mkfs env)
  | Nova_relaxed -> Nova_fs (Baselines.Nova.mkfs env ~mode:Baselines.Nova.Relaxed)
  | Nova_strict -> Nova_fs (Baselines.Nova.mkfs env ~mode:Baselines.Nova.Strict)
  | Strata -> Strata_fs (Baselines.Strata.mkfs ~log_len:(4 * 1024 * 1024) env)
  | spec -> invalid_arg (Printf.sprintf "Fs_config: %s is no baseline" (name spec))

(** The baseline file system [spec] (PMFS, NOVA or Strata) on [env]. *)
let baseline env spec = baseline_fs (mkfs_baseline env spec)

let build ~capacity ~journal_len ~timing ?checks ~cfg spec =
  let env = Pmem.Env.create ~capacity ?timing ?checks () in
  let bare fs = { spec; env; fs; sys = None; usplit = None; base = None } in
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
  | _, None ->
      let b = mkfs_baseline env spec in
      { (bare (baseline_fs b)) with base = Some b }

(** Build a stack at experiment size, on a 256 MiB device with an 8 MiB
    jbd2 journal. [splitfs_cfg] replaces the SplitFS configuration
    outright. *)
let make ?timing ?splitfs_cfg spec =
  let cfg = splitfs_cfg_of splitfs_experiment_cfg spec in
  build ~capacity:(256 * 1024 * 1024) ~journal_len:(8 * 1024 * 1024) ~timing
    spec
    ~cfg:(Option.map (fun c -> Option.value splitfs_cfg ~default:c) cfg)

(** Build a stack at crash-trial size: an 8 MiB device, a 1 MiB jbd2
    journal and, on SplitFS, two 256 KiB staging files and a 16 KiB op
    log. [tweak] adjusts that SplitFS configuration (degraded and
    ablation configurations); [checks] sets the environment's
    oracle/recovery toggles (the injected-bug canaries). *)
let make_small ?checks ?(tweak = Fun.id) spec =
  build ~capacity:(8 * 1024 * 1024) ~journal_len:(1024 * 1024) ~timing:None
    ?checks spec
    ~cfg:(Option.map tweak (splitfs_cfg_of crash_trial_cfg spec))

(** Copies of quiescent [stacks], a stack and the further clients
    mounted on it (DESIGN.md §5d). The copies share a clone of the
    stacks' environment ({!Pmem.Env.clone}, which keeps its checks)
    and, on ext4 and SplitFS, a clone of their kernel; each
    client's fd table and U-Split instance is copied over those, and a
    mapping the kernel and U-Split share stays shared. Every [fs] is
    rebuilt over the copies. Nothing mutable is shared with [stacks], so
    a copy runs while [stacks] stay as they were; a stack made by
    {!make_small} and then only set up is quiescent. Strata does not
    clone. *)
let clone stacks =
  let st0 = stacks.(0) in
  let env = Pmem.Env.clone st0.env in
  match (st0.sys, st0.base) with
  | Some sys0, _ ->
      let kfs, mapping =
        Kernelfs.Ext4.clone (Kernelfs.Syscall.kernel sys0) ~env
      in
      Array.map
        (fun st ->
          let sys = Kernelfs.Syscall.clone (Option.get st.sys) ~kfs in
          match st.usplit with
          | Some u ->
              let u = Splitfs.Usplit.clone u ~sys ~env ~mapping in
              {
                st with
                env;
                fs = Splitfs.Usplit.as_fsapi u;
                sys = Some sys;
                usplit = Some u;
              }
          | None ->
              { st with env; fs = Kernelfs.Syscall.as_fsapi sys; sys = Some sys })
        stacks
  | None, Some b ->
      let b =
        match b with
        | Pmfs_fs p -> Pmfs_fs (Baselines.Pmfs.clone p ~env)
        | Nova_fs n -> Nova_fs (Baselines.Nova.clone n ~env)
        | Strata_fs _ -> invalid_arg "Fs_config.clone: strata does not clone"
      in
      [| { st0 with env; fs = baseline_fs b; base = Some b } |]
  | None, None -> invalid_arg "Fs_config.clone: no file system to clone"

(** A checkpoint: relink every staged byte on SplitFS; nothing to do on
    the other file systems. *)
let checkpoint st = Option.iter Splitfs.Usplit.relink_all st.usplit
