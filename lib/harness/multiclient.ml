(** Closed-loop multi-client driver: N concurrent clients over one shared
    PM device and kernel, dispatched by {!Sched}.

    Process model per file system:
    - ext4 DAX: one shared kernel instance; each client is a process with
      its own fd table ([Kernelfs.Syscall.make] over the shared [Ext4.t]),
      so all clients contend on the same jbd2 journal, inode locks and PM
      bandwidth.
    - SplitFS: the same shared kernel, plus a private U-Split instance per
      client (its own staging pool and op-log, paper §3.2) — exactly how
      independent applications share a SplitFS mount.
    - PMFS / NOVA: one shared in-kernel file system; clients share it the
      way processes share a mount (their file sets are disjoint).

    The workload is the paper's concurrency stressor: each client appends
    [write_size]-byte records to a private file, fsyncing every
    [fsync_every] appends. Private files mean no lock contention between
    SplitFS clients — what remains shared is the kernel journal (ext4's
    scaling bottleneck) and PM bandwidth, which is the comparison the
    scaling experiment is after. *)

let mb = 1024 * 1024
let write_size = 4096
let fsync_every = 10

type result = {
  spec : Fs_config.spec;
  nclients : int;
  total_ops : int;  (** scheduler dispatches across all clients *)
  makespan_ns : float;  (** first spawn to last client completion *)
  kops_per_s : float;  (** aggregate throughput in simulated kops/s *)
  lock_wait_ns : float;
  bw_wait_ns : float;
  trace_hash : int;  (** fingerprint of the dispatch interleaving *)
}

(** Small staging footprint so 16 U-Split instances fit one device. *)
let scaling_cfg mode =
  {
    Splitfs.Config.default with
    Splitfs.Config.mode;
    staging_files = 2;
    staging_size = 2 * mb;
    oplog_size = 1 * mb;
  }

(** [n] file-system views of one [spec] stack on [env]: a syscall table
    each over one ext4 from [kernel], or a U-Split instance each (in
    [cfg mode]) over it; the baselines share one instance. Returns the
    ext4 below, if any. *)
let views spec ~n ~kernel ~cfg env =
  match (spec, Fs_config.mode spec) with
  | Fs_config.Ext4_dax, _ ->
      let kfs = kernel () in
      ( Array.init n (fun _ ->
            Kernelfs.Syscall.as_fsapi (Kernelfs.Syscall.make kfs)),
        Some kfs )
  | ( (Fs_config.Splitfs_posix | Fs_config.Splitfs_sync
      | Fs_config.Splitfs_strict),
      Some mode ) ->
      let kfs = kernel () in
      ( Array.init n (fun i ->
            let sys = Kernelfs.Syscall.make kfs in
            let u =
              Splitfs.Usplit.mount ~cfg:(cfg mode) ~sys ~env ~instance:i ()
            in
            Splitfs.Usplit.as_fsapi u),
        Some kfs )
  | (Fs_config.Pmfs | Fs_config.Nova_relaxed | Fs_config.Nova_strict), _ ->
      (Array.make n (Fs_config.baseline env spec), None)
  | _ ->
      invalid_arg
        (Printf.sprintf "Multiclient: no multi-client model for %s"
           (Fs_config.name spec))

(** Build one shared stack and a per-client [Fsapi.Fs.t] view of it. *)
let build spec ~nclients =
  let env = Pmem.Env.create ~capacity:(256 * mb) () in
  let kernel () = Kernelfs.Ext4.mkfs ~journal_len:(8 * mb) env in
  (env, fst (views spec ~n:nclients ~kernel ~cfg:scaling_cfg env))

(** One client's closed loop: open a private file, append, fsync
    periodically, close. Step 0 opens, steps 1..ops append, the final step
    fsyncs and closes. *)
let client_step (fs : Fsapi.Fs.t) ~path ~ops_per_client =
  let fd = ref (-1) in
  let buf = Bytes.make write_size 'w' in
  fun (_ : Sched.client) i ->
    if i = 0 then begin
      fd := fs.Fsapi.Fs.open_ path Fsapi.Flags.create_rw;
      true
    end
    else if i <= ops_per_client then begin
      let at = (i - 1) * write_size in
      let n = fs.Fsapi.Fs.pwrite !fd ~buf ~boff:0 ~len:write_size ~at in
      assert (n = write_size);
      if i mod fsync_every = 0 then fs.Fsapi.Fs.fsync !fd;
      true
    end
    else if i = ops_per_client + 1 then begin
      fs.Fsapi.Fs.fsync !fd;
      fs.Fsapi.Fs.close !fd;
      true
    end
    else false

(** Run [nclients] concurrent clients of [spec], [ops_per_client] appends
    each (default 200), and report aggregate throughput plus the
    contention breakdown. Fully deterministic.
    [on_env] sees the environment after the stack is built and before any
    client runs (the CLI uses it to enable tracing); [instrument] wraps
    every client's [Fsapi.Fs.t] in {!Instrument.fs} so per-op latency
    histograms and [op:*] spans are collected. *)
let run ?(ops_per_client = 200) ?(instrument = false) ?on_env spec ~nclients =
  let env, fss = build spec ~nclients in
  (match on_env with Some f -> f env | None -> ());
  let fss =
    if instrument then
      Array.map (Instrument.fs ~key:(Fs_config.name spec) env) fss
    else fss
  in
  let s = Sched.create env in
  for c = 0 to nclients - 1 do
    let path = Printf.sprintf "/client%d" c in
    ignore
      (Sched.spawn s
         ~name:(Printf.sprintf "%s-c%d" (Fs_config.name spec) c)
         ~step:(client_step fss.(c) ~path ~ops_per_client))
  done;
  Sched.run s;
  let makespan_ns = Sched.makespan s in
  let total_ops = Sched.total_ops s in
  let stats = env.Pmem.Env.stats in
  {
    spec;
    nclients;
    total_ops;
    makespan_ns;
    kops_per_s = float_of_int total_ops /. makespan_ns *. 1e6;
    lock_wait_ns = stats.Pmem.Stats.lock_wait_ns;
    bw_wait_ns = stats.Pmem.Stats.bw_wait_ns;
    trace_hash = Sched.trace_hash s;
  }

(* ------------------------------------------------------------------ *)
(* Scale-out serving tier: tenant-sharded namespace, 10k actors (PR 6)  *)
(* ------------------------------------------------------------------ *)

(** Result of one multi-tenant scale run. Latency numbers come from the
    merged per-op obs histograms of the run's instrumented file-system
    views (simulated ns). *)
type scale_result = {
  sr_spec : Fs_config.spec;
  sr_nactors : int;
  sr_tenants : int;
  sr_total_ops : int;
  sr_makespan_ns : float;
  sr_kops_per_s : float;
  sr_trace_hash : int;
  sr_p50_ns : float;
  sr_p999_ns : float;
  sr_slo_attainment : float;  (** fraction of fs ops within 100 us *)
  sr_alloc_steals : int;  (** cross-shard allocator steals (K-Split stacks) *)
  sr_timeline : Obs.Timeline.t option;
      (** virtual-time telemetry of the run, when [~timeline:true] *)
  sr_forensics : Obs.span Obs.Forensics.t option;
      (** top-k slowest-op exemplars per op, when [~forensics:true] *)
}

(** Tenant count for an actor fleet: one tenant per 8 actors, capped so
    per-tenant state (staging pools, op-logs) fits one device. *)
let tenants_for nactors = max 1 (min 32 (nactors / 8))

(** Per-tenant U-Split footprint sized for fleets: a staging handle is
    held by every actor with unsynced staged bytes, so concurrent staging
    consumption is ~[nactors * staging_size] — small files keep a 10k-actor
    fleet inside the device. The pool is pre-created at mount with one
    handle per tenant actor plus slack: foreground staging-file creation
    (fallocate plus a journal commit each) is exactly the media traffic
    the paper's background pre-allocation thread keeps off the serving
    path, so it belongs in setup, not in the measured window. *)
let scale_cfg mode ~actors_per_tenant =
  {
    Splitfs.Config.default with
    Splitfs.Config.mode;
    staging_files = actors_per_tenant + 4;
    staging_size = 64 * 1024;
    oplog_size = mb / 4;
  }

(** Device capacity for an N-actor run: a fixed floor for tenant data,
    journal and op-logs, plus the per-actor staging/WAL footprint. *)
let scale_capacity nactors =
  max (256 * mb) ((160 * mb) + (nactors * 128 * 1024))

(** Build the tenant-sharded stack: one kernel with [shards] allocator
    groups and journal streams, and one file-system view per tenant
    (per-tenant fd table, plus a per-tenant U-Split instance for SplitFS
    — a tenant's actors share their tenant's staging pool and op-log). *)
let build_scale spec ~nactors ~tenants ~shards env =
  let actors_per_tenant = (nactors + tenants - 1) / tenants in
  let kernel () =
    Kernelfs.Ext4.mkfs ~journal_len:(8 * mb) ~alloc_shards:shards
      ~journal_streams:shards env
  in
  views spec ~n:tenants ~kernel ~cfg:(scale_cfg ~actors_per_tenant) env

(** Run [nactors] multi-tenant serving actors of [spec], [ops_per_actor]
    ops each ({!Workloads.Multitenant.step}) — the 10k-actor
    experiment — over [tenants_for nactors] tenants, one allocator group
    and journal stream per tenant up to 16, on a [scale_capacity nactors]
    device. Tenant roots are set up unmetered-by-histogram before the
    fleet spawns; every actor's file-system view is instrumented so p999
    and attainment of a 100 us SLO come from the same obs histograms the
    latency experiment uses. Fully deterministic in simulated time. *)
let run_scale ~ops_per_actor ?on_env ?(timeline = false) ?(forensics = false)
    spec ~nactors =
  let slo_ns = 100_000. in
  let tenants = tenants_for nactors in
  let shards = min 16 tenants in
  let env = Pmem.Env.create ~capacity:(scale_capacity nactors) () in
  let tl =
    if timeline then
      match Obs.timeline env.Pmem.Env.obs with
      | Some tl -> Some tl  (* SPLITFS_TIMELINE already attached one *)
      | None -> Some (Pmem.Env.enable_timeline env)
    else Obs.timeline env.Pmem.Env.obs
  in
  let fo =
    if forensics then Some (Obs.Forensics.create ~ncats:Obs.ncats ())
    else None
  in
  (match fo with
  | Some fo ->
      Obs.set_capture env.Pmem.Env.obs
        (Some (fun s -> Obs.Forensics.on_span fo s))
  | None -> ());
  (match on_env with Some f -> f env | None -> ());
  let raw_fss, kfs = build_scale spec ~nactors ~tenants ~shards env in
  (* kernel-side telemetry: cross-shard allocator steals and the fill
     level of every journal stream (the per-shard serialization KucoFS
     warns about is visible as one stream's depth running hot) *)
  (match (tl, kfs) with
  | Some tl, Some kfs ->
      Obs.Timeline.add_source tl ~name:"alloc/steals" (fun () ->
          float_of_int (Kernelfs.Alloc.steals (Kernelfs.Ext4.allocator kfs)));
      Array.iteri
        (fun k (st : Kernelfs.Journal.stream) ->
          Obs.Timeline.add_source tl
            ~name:(Printf.sprintf "journal/stream%d/bytes" k)
            (fun () -> float_of_int st.Kernelfs.Journal.head))
        (Kernelfs.Ext4.journal kfs).Kernelfs.Journal.streams
  | _ -> ());
  (* setup through the raw views: tenant roots and preallocated data files
     must not pollute the serving-path latency histograms *)
  Array.iteri
    (fun k fs -> Workloads.Multitenant.setup_tenant fs ~tenant:k)
    raw_fss;
  let fss =
    Array.map (Instrument.fs ~key:(Fs_config.name spec) ?forensics:fo env)
      raw_fss
  in
  let zipf =
    Workloads.Zipf.create ~theta:Workloads.Multitenant.zipf_theta
      Workloads.Multitenant.data_records
  in
  let think () = Pmem.Env.cpu env Workloads.Multitenant.think_ns in
  let s = Sched.create env in
  for a = 0 to nactors - 1 do
    let tenant = a mod tenants in
    let st =
      Workloads.Multitenant.make_actor ~fs:fss.(tenant) ~think ~zipf ~tenant
        ~idx:a
    in
    ignore
      (Sched.spawn s
         ~name:(Printf.sprintf "t%d-a%d" tenant a)
         ~step:(fun _ i -> Workloads.Multitenant.step ~ops_per_actor st i))
  done;
  (* per-tenant throughput series: one source per tenant summing its
     actors' completed ops — a (stack x tenant) time series at <= 32
     tenants, readable mid-run without touching the simulated clock *)
  (match tl with
  | Some tl ->
      let all = Sched.clients s in
      for k = 0 to tenants - 1 do
        let mine =
          Array.of_list
            (List.filter (fun (c : Sched.client) -> c.Sched.c_id mod tenants = k) all)
        in
        Obs.Timeline.add_source tl ~name:(Printf.sprintf "tenant%d/ops" k)
          (fun () ->
            Array.fold_left
              (fun acc (c : Sched.client) ->
                acc +. float_of_int c.Sched.ops_done)
              0. mine)
      done
  | None -> ());
  Sched.run s;
  (* close the books at the fleet's absolute end time (sample times are
     absolute actor clocks, makespan is relative to the first spawn) *)
  (match tl with
  | Some tl ->
      let end_ns =
        List.fold_left
          (fun acc (c : Sched.client) ->
            Float.max acc c.Sched.actor.Pmem.Simclock.a_now)
          (Pmem.Env.now env) (Sched.clients s)
      in
      Obs.Timeline.flush tl ~now:end_ns
  | None -> ());
  let merged = Obs.Hist.create () in
  let prefix = Fs_config.name spec ^ "/" in
  List.iter
    (fun (key, h) ->
      if String.length key >= String.length prefix
         && String.sub key 0 (String.length prefix) = prefix
      then Obs.Hist.merge ~into:merged h)
    (Obs.hists env.Pmem.Env.obs);
  let makespan_ns = Sched.makespan s in
  let total_ops = Sched.total_ops s in
  {
    sr_spec = spec;
    sr_nactors = nactors;
    sr_tenants = tenants;
    sr_total_ops = total_ops;
    sr_makespan_ns = makespan_ns;
    sr_kops_per_s = float_of_int total_ops /. makespan_ns *. 1e6;
    sr_trace_hash = Sched.trace_hash s;
    sr_p50_ns = Obs.Hist.percentile merged 50.;
    sr_p999_ns = Obs.Hist.percentile merged 99.9;
    sr_slo_attainment = Obs.Hist.frac_below merged slo_ns;
    sr_alloc_steals =
      (match kfs with
      | Some kfs -> Kernelfs.Alloc.steals (Kernelfs.Ext4.allocator kfs)
      | None -> 0);
    sr_timeline = tl;
    sr_forensics = fo;
  }
