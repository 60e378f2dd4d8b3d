(** Benchmark harness: regenerates every table and figure of the paper's
    evaluation (printed as paper-style tables from the simulated clock),
    and registers one Bechamel [Test.make] per table/figure measuring the
    wall-clock cost of the simulator itself on that experiment's kernel
    operation.

    Usage: [dune exec bench/main.exe] (paper tables + bechamel)
           [dune exec bench/main.exe -- --fast] (paper tables only)
           [dune exec bench/main.exe -- --json <path>] (also write every
           recorded value to [path] as a perf-trajectory point: each key
           with its unit and declared gate, see {!Harness.Benchdiff}) *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Bechamel micro-closures: one per table/figure. Each closure performs *)
(* a small self-contained batch on a persistent stack so it can run     *)
(* repeatedly; what Bechamel measures is the real-time cost of the      *)
(* simulation, complementing the simulated-time tables.                 *)
(* ------------------------------------------------------------------ *)

let append_closure spec =
  let stack = Harness.Fs_config.make spec in
  let fs = stack.Harness.Fs_config.fs in
  let fd = fs.Fsapi.Fs.open_ "/bench-append" Fsapi.Flags.create_rw in
  let buf = Bytes.make 4096 'b' in
  let count = ref 0 in
  fun () ->
    ignore (fs.Fsapi.Fs.write fd ~buf ~boff:0 ~len:4096);
    incr count;
    if !count mod 256 = 0 then begin
      fs.Fsapi.Fs.fsync fd;
      fs.Fsapi.Fs.ftruncate fd 0
    end

let overwrite_closure spec =
  let stack = Harness.Fs_config.make spec in
  let fs = stack.Harness.Fs_config.fs in
  Fsapi.Fs.write_file fs "/bench-ow" (String.make 65536 'o');
  let fd = fs.Fsapi.Fs.open_ "/bench-ow" Fsapi.Flags.rdwr in
  let buf = Bytes.make 4096 'w' in
  let i = ref 0 in
  fun () ->
    ignore (fs.Fsapi.Fs.pwrite fd ~buf ~boff:0 ~len:4096 ~at:(!i mod 16 * 4096));
    incr i

let read_closure spec =
  let stack = Harness.Fs_config.make spec in
  let fs = stack.Harness.Fs_config.fs in
  Fsapi.Fs.write_file fs "/bench-rd" (String.make 65536 'r');
  let fd = fs.Fsapi.Fs.open_ "/bench-rd" Fsapi.Flags.rdonly in
  let buf = Bytes.make 4096 '\000' in
  let i = ref 0 in
  fun () ->
    ignore (fs.Fsapi.Fs.pread fd ~buf ~boff:0 ~len:4096 ~at:(!i mod 16 * 4096));
    incr i

let varmail_closure spec =
  let stack = Harness.Fs_config.make spec in
  let fs = stack.Harness.Fs_config.fs in
  let buf = Bytes.make 4096 'v' in
  let i = ref 0 in
  fun () ->
    let path = Printf.sprintf "/vm-%d" (!i mod 64) in
    incr i;
    let fd = fs.Fsapi.Fs.open_ path Fsapi.Flags.create_rw in
    ignore (fs.Fsapi.Fs.write fd ~buf ~boff:0 ~len:4096);
    fs.Fsapi.Fs.fsync fd;
    fs.Fsapi.Fs.close fd;
    fs.Fsapi.Fs.unlink path

let kv_closure spec =
  let stack = Harness.Fs_config.make spec in
  let lsm = Apps.Lsm.open_ stack.Harness.Fs_config.fs "/bench-lsm" in
  let rng = Workloads.Rng.create 1 in
  fun () ->
    let k = Printf.sprintf "key%06d" (Workloads.Rng.int rng 4096) in
    Apps.Lsm.put lsm k (Workloads.Rng.payload rng 256);
    ignore (Apps.Lsm.get lsm k)

let db_closure spec =
  let stack = Harness.Fs_config.make spec in
  let db = Apps.Waldb.open_ stack.Harness.Fs_config.fs "/bench-db" () in
  let rng = Workloads.Rng.create 2 in
  fun () ->
    Apps.Waldb.transaction db (fun () ->
        let k = Printf.sprintf "%06d" (Workloads.Rng.int rng 4096) in
        Apps.Waldb.put db ~table:"t" k (Workloads.Rng.payload rng 128))

let recovery_closure () =
  fun () ->
    let env, kfs, sys =
      let env = Pmem.Env.create ~capacity:(8 * 1024 * 1024) () in
      let kfs = Kernelfs.Ext4.mkfs ~journal_len:(2 * 1024 * 1024) env in
      (env, kfs, Kernelfs.Syscall.make kfs)
    in
    ignore kfs;
    let cfg =
      {
        Splitfs.Config.strict with
        Splitfs.Config.staging_files = 1;
        staging_size = 512 * 1024;
        oplog_size = 64 * 1024;
      }
    in
    let u = Splitfs.Usplit.mount ~cfg ~sys ~env ~instance:0 () in
    let fs = Splitfs.Usplit.as_fsapi u in
    let fd = fs.Fsapi.Fs.open_ "/f" Fsapi.Flags.create_rw in
    let buf = Bytes.make 64 'x' in
    for _ = 1 to 100 do
      ignore (fs.Fsapi.Fs.write fd ~buf ~boff:0 ~len:64)
    done;
    Pmem.Device.crash env.Pmem.Env.dev;
    ignore (Splitfs.Recovery.recover ~sys ~env ~instance:0)

(* Per-layer kernels (one layer's host cost, beside the end-to-end
   kernels above). The staged pwrite overwrites one of 16 blocks of a
   64 KiB file on splitfs-strict: a staging reservation and NT store, the
   staged-data CRC, one op-log entry and one fence; every 256th call also
   fsyncs, so the relink that frees staging space is amortized in. *)
let crc32_closure () =
  let buf = Bytes.init 4096 (fun i -> Char.unsafe_chr (i * 7 land 0xFF)) in
  fun () ->
    ignore (Sys.opaque_identity (Fsapi.Crc32.update 0 buf ~off:0 ~len:4096))

let strict_pwrite_closure () =
  let stack = Harness.Fs_config.make Harness.Fs_config.Splitfs_strict in
  let fs = stack.Harness.Fs_config.fs in
  Fsapi.Fs.write_file fs "/bench-pw" (String.make 65536 'p');
  let fd = fs.Fsapi.Fs.open_ "/bench-pw" Fsapi.Flags.rdwr in
  let buf = Bytes.make 4096 's' in
  let i = ref 0 in
  let pwrite () =
    ignore
      (fs.Fsapi.Fs.pwrite fd ~buf ~boff:0 ~len:4096 ~at:(!i mod 16 * 4096));
    incr i;
    if !i mod 256 = 0 then fs.Fsapi.Fs.fsync fd
  in
  (* warm: the staging pool, log and mappings have served a full cycle *)
  for _ = 1 to 256 do
    pwrite ()
  done;
  pwrite

(* ------------------------------------------------------------------ *)
(* Perf trajectory: every recorded value with its unit and gate, one     *)
(* file per PR (Harness.Benchdiff writes, reads and diffs them)          *)
(* ------------------------------------------------------------------ *)

module B = Harness.Benchdiff

let point gate unit key value = { B.key; value; unit; gate }
let sim_ns = point B.Sim_lower "ns"
let host_ns = point B.Host_lower "ns"
let host_speedup = point B.Host_higher "x"
let count unit key n = point B.Exact unit key (float_of_int n)

(* Each entry is a constructor so the test's FS stack is built right
   before its measurement and becomes garbage right after: keeping all
   eleven stacks live at once made the incremental major GC's marking
   work — proportional to the scanned live heap — dominate every
   estimate (3-6x inflation over the same closure measured alone). *)
let bechamel_tests : (unit -> Test.t) list =
  [
    (* Table 1: the 4K append on the two headline systems *)
    (fun () ->
      Test.make ~name:"table1/append-ext4-dax"
        (Staged.stage (append_closure Harness.Fs_config.Ext4_dax)));
    (fun () ->
      Test.make ~name:"table1/append-splitfs-posix"
        (Staged.stage (append_closure Harness.Fs_config.Splitfs_posix)));
    (* Table 2: raw device op *)
    (fun () ->
      Test.make ~name:"table2/device-4k-write"
        (let env = Pmem.Env.create ~capacity:(1024 * 1024) () in
         let buf = Bytes.make 4096 'd' in
         Staged.stage (fun () ->
             Pmem.Device.store_nt env.Pmem.Env.dev ~addr:0 buf ~off:0 ~len:4096)));
    (* Table 6: the varmail create/append/fsync/unlink sequence *)
    (fun () ->
      Test.make ~name:"table6/varmail-splitfs-strict"
        (Staged.stage (varmail_closure Harness.Fs_config.Splitfs_strict)));
    (* Table 7: the LSM KV op mix on SplitFS-strict *)
    (fun () ->
      Test.make ~name:"table7/lsm-splitfs-strict"
        (Staged.stage (kv_closure Harness.Fs_config.Splitfs_strict)));
    (* Figure 3: staged append with periodic fsync (relink path) *)
    (fun () ->
      Test.make ~name:"fig3/append-relink"
        (Staged.stage (append_closure Harness.Fs_config.Splitfs_posix)));
    (* Figure 4: overwrite and read patterns *)
    (fun () ->
      Test.make ~name:"fig4/overwrite-splitfs"
        (Staged.stage (overwrite_closure Harness.Fs_config.Splitfs_posix)));
    (fun () ->
      Test.make ~name:"fig4/read-splitfs"
        (Staged.stage (read_closure Harness.Fs_config.Splitfs_posix)));
    (* Figure 5/6: the embedded database transaction *)
    (fun () ->
      Test.make ~name:"fig5/tpcc-tx-splitfs-sync"
        (Staged.stage (db_closure Harness.Fs_config.Splitfs_sync)));
    (fun () ->
      Test.make ~name:"fig6/kv-nova-strict"
        (Staged.stage (kv_closure Harness.Fs_config.Nova_strict)));
    (* §5.3 recovery *)
    (fun () ->
      Test.make ~name:"recovery/crash-replay"
        (Staged.stage (recovery_closure ())));
    (* per layer: the checksum every strict data op computes, and one
       strict staged write with its log entry and fence *)
    (fun () ->
      Test.make ~name:"layer/crc32-4k" (Staged.stage (crc32_closure ())));
    (fun () ->
      Test.make ~name:"layer/strict-pwrite-4k"
        (Staged.stage (strict_pwrite_closure ())));
  ]

(** Run every bechamel test, print one line per test and return the host
    ns/op estimates in declaration order. *)
let run_bechamel () =
  let instances = Instance.[ monotonic_clock ] in
  (* long enough for the OLS estimate to converge on closures that mutate
     FS state (growing files, periodic relink batches); 0.5 s gave
     estimates that swung 2-3x between runs *)
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 2.0) ~kde:(Some 100) () in
  Printf.printf "\n== Bechamel: wall-clock cost of the simulator per operation ==\n";
  List.concat_map
    (fun mk ->
      (* reclaim the previous test's stack (and, on the first test, the
         experiment phase's garbage) so marking cost reflects this test *)
      Gc.compact ();
      let test = mk () in
      let results = Benchmark.all cfg instances test in
      let ols =
        Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
          (Instance.monotonic_clock) results
      in
      Hashtbl.fold
        (fun name result acc ->
          match Analyze.OLS.estimates result with
          | Some [ est ] ->
              Printf.printf "%-34s %10.0f ns/op (host)\n" name est;
              host_ns name est :: acc
          | _ ->
              Printf.printf "%-34s (no estimate)\n" name;
              acc)
        ols [])
    bechamel_tests

let write_trajectory ~mode points path =
  B.write ~mode ~seed:0x51ED ~jobs:(Par.resolve_jobs ())
    ~stacks:(List.map Harness.Fs_config.name Harness.Experiments.scale_specs)
    path points;
  Printf.printf "\nwrote perf trajectory point to %s\n" path

(* The scaling experiment's trajectory entries carry *simulated* ns/op
   (aggregate makespan over total ops at each client count) — the quantity
   the acceptance test pins — rather than host-clock cost: contention
   results need to stay comparable across machines. *)
let scaling_estimates results =
  List.concat_map
    (fun (spec, rs) ->
      List.map
        (fun (r : Harness.Multiclient.result) ->
          sim_ns
            (Printf.sprintf "scaling/%s-%dc" (Harness.Fs_config.name spec)
               r.Harness.Multiclient.nclients)
            (r.Harness.Multiclient.makespan_ns
            /. float_of_int (max 1 r.Harness.Multiclient.total_ops)))
        rs)
    results

(* The 10k-actor serving-tier sweep: simulated ns/op, tail latency and
   SLO attainment per (stack, actor count), plus the host-side dispatch
   overhead of the event-heap scheduler against the retained min-scan —
   the one host-clock number here, since the heap's win *is* host
   overhead. *)
let scale_estimates results (d : Harness.Experiments.dispatch_result) =
  List.concat_map
    (fun (spec, rs) ->
      List.concat_map
        (fun (r : Harness.Multiclient.scale_result) ->
          let base =
            Printf.sprintf "scale10k/%s-%da" (Harness.Fs_config.name spec)
              r.Harness.Multiclient.sr_nactors
          in
          [
            sim_ns base
              (r.Harness.Multiclient.sr_makespan_ns
              /. float_of_int (max 1 r.Harness.Multiclient.sr_total_ops));
            sim_ns (base ^ "/p999") r.Harness.Multiclient.sr_p999_ns;
            point B.Sim_higher "fraction" (base ^ "/slo")
              r.Harness.Multiclient.sr_slo_attainment;
          ])
        rs)
    results
  @ [
      host_ns "scale10k/dispatch/heap_host_ns"
        d.Harness.Experiments.db_heap_ns_per_dispatch;
      host_ns "scale10k/dispatch/scan_host_ns"
        d.Harness.Experiments.db_scan_ns_per_dispatch;
      host_speedup "scale10k/dispatch/speedup" d.Harness.Experiments.db_speedup;
    ]

(* Latency percentiles and the overhead attribution likewise carry
   simulated ns — stable across machines, so the trajectory can watch the
   cost model rather than the host. *)
let latency_estimates rows =
  List.concat_map
    (fun (r : Harness.Experiments.latency_row) ->
      let base =
        Printf.sprintf "lat/%s/%s"
          (Harness.Fs_config.name r.Harness.Experiments.lat_spec)
          r.Harness.Experiments.lat_op
      in
      [
        sim_ns (base ^ "/p50") r.Harness.Experiments.lat_p50;
        sim_ns (base ^ "/p90") r.Harness.Experiments.lat_p90;
        sim_ns (base ^ "/p99") r.Harness.Experiments.lat_p99;
        sim_ns (base ^ "/p999") r.Harness.Experiments.lat_p999;
      ])
    rows

(* Faultcheck outcome counts per stack: how many injected-fault trials
   were masked / retried / surfaced an honest errno. A shift in these
   counts at a pinned seed means a degradation path changed behaviour —
   exactly what a robustness trajectory should catch. *)
let fault_estimates reports =
  List.concat_map
    (fun (r : Faultcheck.stack_report) ->
      let trials outcome =
        count "trials" (Printf.sprintf "faults/%s/%s" r.Faultcheck.s_stack outcome)
      in
      [
        trials "untriggered" r.Faultcheck.s_untriggered;
        trials "masked" r.Faultcheck.s_masked;
        trials "retried" r.Faultcheck.s_retried;
        trials "errno" r.Faultcheck.s_errno;
      ])
    reports

(* Degraded-mode write latency (staging starved by a sticky allocator
   fault) vs the healthy stack, simulated ns per percentile. *)
let degraded_estimates rows =
  List.concat_map
    (fun (r : Harness.Experiments.degraded_row) ->
      let base =
        Printf.sprintf "faults/degraded-lat/%s/%s"
          (Harness.Fs_config.name r.Harness.Experiments.dg_spec)
          r.Harness.Experiments.dg_variant
      in
      [
        sim_ns (base ^ "/p50") r.Harness.Experiments.dg_p50;
        sim_ns (base ^ "/p90") r.Harness.Experiments.dg_p90;
        sim_ns (base ^ "/p99") r.Harness.Experiments.dg_p99;
      ])
    rows

let profile_estimates rows =
  List.concat_map
    (fun (r : Harness.Experiments.profile_row) ->
      List.filter_map
        (fun (cat, ns) ->
          if ns = 0. then None
          else
            Some
              (sim_ns
                 (Printf.sprintf "profile/%s/%s"
                    (Harness.Fs_config.name r.Harness.Experiments.pr_spec)
                    (Obs.cat_name cat))
                 (ns /. float_of_int r.Harness.Experiments.pr_ops)))
        r.Harness.Experiments.pr_breakdown)
    rows

(* Litmus trajectory entries carry the *exhaustive crash-state count*
   per (pattern, stack) — not ns — so a change that silently grows or
   shrinks the enumerated space shows up in the BENCH_PR*.json diff.
   table1/sim carries the simulated append cost per stack: the fences
   physically removed after the minimizer's REDUNDANT proofs (PR 7)
   show there as a drop against earlier PRs. *)
let litmus_estimates runs =
  List.map
    (fun (r : Crashcheck.Litmus.run) ->
      count "states"
        (Printf.sprintf "litmus/%s/%s" r.Crashcheck.Litmus.r_pattern
           r.Crashcheck.Litmus.r_config)
        r.Crashcheck.Litmus.r_states)
    runs

(* FAMS-vs-WAL: per-commit simulated latency of the mmap-native page
   store on failure-atomic msync against the WAL pager everywhere else,
   plus the simulated crash-to-consistent-reopen time. *)
let fams_estimates rows =
  List.concat_map
    (fun (r : Harness.Experiments.fams_row) ->
      let base =
        Printf.sprintf "fams/%s"
          (Harness.Fs_config.name r.Harness.Experiments.fw_spec)
      in
      [
        sim_ns (base ^ "/p50") r.Harness.Experiments.fw_p50_ns;
        sim_ns (base ^ "/p99") r.Harness.Experiments.fw_p99_ns;
        point B.Sim_lower "ms" (base ^ "/recovery-ms")
          r.Harness.Experiments.fw_recovery_ms;
      ])
    rows

let table1_sim_estimates rows =
  List.map
    (fun (r : Harness.Experiments.table1_row) ->
      sim_ns
        ("table1/sim/" ^ r.Harness.Experiments.t1_fs)
        r.Harness.Experiments.t1_append_ns)
    rows

(* fig4/sim and table6/sim carry simulated ns/op per cell. The Table-1 /
   Fig-4 hot loops contain none of the removed fences (their fences were
   proven REQUIRED and stayed), so those entries double as a
   bit-identity pin; the removal delta lands on the metadata/fsync paths
   that table6/sim records (varmail open/fsync). *)
let fig4_sim_estimates results =
  List.concat_map
    (fun (_, base, challengers) ->
      List.concat_map
        (fun (spec, runs) ->
          List.map
            (fun (p, m) ->
              sim_ns
                (Printf.sprintf "fig4/sim/%s/%s"
                   (Harness.Fs_config.name spec)
                   (Workloads.Iopattern.pattern_name p))
                (Harness.Runner.ns_per_op m))
            runs)
        (base :: challengers))
    results

(* Domain-parallel campaign sweep (§5j): host wall ns per campaign at
   each job count, plus the speedup vs one job. Host-dependent like the
   bechamel entries; the speedups are the comparable numbers. *)
let par_estimates rows =
  List.concat_map
    (fun (r : Harness.Experiments.par_row) ->
      let c = r.Harness.Experiments.pb_campaign in
      let j = r.Harness.Experiments.pb_jobs in
      let entry =
        host_ns (Printf.sprintf "par/%s/walltime-j%d" c j)
          r.Harness.Experiments.pb_wall_ns
      in
      if j = 1 then [ entry ]
      else
        [
          entry;
          host_speedup
            (Printf.sprintf "par/%s/speedup-j%d" c j)
            (Harness.Experiments.par_wall rows c 1
            /. r.Harness.Experiments.pb_wall_ns);
        ])
    rows

let table6_sim_estimates rows =
  List.concat_map
    (fun (fs, (l : Workloads.Varmail.latencies)) ->
      List.map
        (fun (op, ns) -> sim_ns (Printf.sprintf "table6/sim/%s/%s" fs op) ns)
        [
          ("open", l.Workloads.Varmail.open_ns);
          ("close", l.Workloads.Varmail.close_ns);
          ("append", l.Workloads.Varmail.append_ns);
          ("fsync", l.Workloads.Varmail.fsync_ns);
          ("read", l.Workloads.Varmail.read_ns);
          ("unlink", l.Workloads.Varmail.unlink_ns);
        ])
    rows

let () =
  let fast = Array.exists (fun a -> a = "--fast") Sys.argv in
  let json_path =
    let rec find = function
      | "--json" :: path :: _ -> Some path
      | _ :: rest -> find rest
      | [] -> None
    in
    find (Array.to_list Sys.argv)
  in
  let table1 = Harness.Experiments.table1 () in
  ignore (Harness.Experiments.table2 ());
  let table6 = Harness.Experiments.table6 () in
  ignore (Harness.Experiments.fig3 ());
  let fig4 = Harness.Experiments.fig4 () in
  ignore (Harness.Experiments.fig5 ());
  ignore (Harness.Experiments.fig6 ());
  ignore (Harness.Experiments.table7 ());
  ignore (Harness.Experiments.recovery ());
  ignore (Harness.Experiments.resources ());
  ignore (Harness.Experiments.ablations ());
  let scaling = Harness.Experiments.scaling () in
  let profile = Harness.Experiments.profile () in
  let latency = Harness.Experiments.latency () in
  let faultcheck = Harness.Experiments.faultcheck () in
  let degraded = Harness.Experiments.degraded_latency () in
  let fams = Harness.Experiments.fams_vs_wal () in
  (* the minimizer re-explores the corpus once per fence site; skip it
     in --fast smoke runs, keep the corpus itself (it is the crash
     regression gate) *)
  let litmus, _verdicts = Harness.Experiments.litmus ~minimize:(not fast) () in
  (* every entry below is simulated ns (or a deterministic count): cheap
     to produce and exact to compare, so --fast runs now write a
     trajectory point too — the sim-only subset the CI regression gate
     diffs against the last committed full snapshot *)
  let sim_estimates =
    table1_sim_estimates table1 @ fig4_sim_estimates fig4
    @ table6_sim_estimates table6 @ scaling_estimates scaling
    @ profile_estimates profile @ latency_estimates latency
    @ fault_estimates faultcheck @ degraded_estimates degraded
    @ fams_estimates fams @ litmus_estimates litmus
  in
  if fast then
    Option.iter (write_trajectory ~mode:"fast" sim_estimates) json_path
  else begin
    let scale = Harness.Experiments.scale () in
    let dispatch = Harness.Experiments.dispatch_bench () in
    let par = Harness.Experiments.par_bench () in
    let estimates = run_bechamel () in
    Option.iter
      (write_trajectory ~mode:"full"
         (estimates @ sim_estimates
         @ scale_estimates scale dispatch @ par_estimates par))
      json_path
  end;
  print_endline "\nAll experiments completed."
