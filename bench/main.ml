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

(* [Crashcheck.trial] clones the strict crash-trial stack with its files
   set up (the domain's start), replays the 24-op workload at
   crashcheck's default seed to the armed fence with the persist-order
   journal on, recovers, reads the files back and checks them. The state is fixed: the workload's crash
   point with the most pending lines, with the survivor vector the
   sampler draws for it from that seed. *)
let crash_trial_closure () =
  let mode = Splitfs.Config.Strict in
  let p =
    Crashcheck.Trial.of_workload
      (Crashcheck.Workload.generate ~mode ~seed:0x51ED ~nops:24 ())
  in
  let points = Crashcheck.points mode p in
  let most (a : Crashcheck.Explore.point) (b : Crashcheck.Explore.point) =
    if Array.length b.pending > Array.length a.pending then b else a
  in
  let point = List.fold_left most (List.hd points) points in
  let survivors =
    Crashcheck.Explore.sample (Workloads.Rng.create 0x51ED)
      point.Crashcheck.Explore.pending
  in
  fun () ->
    ignore (Sys.opaque_identity (Crashcheck.trial mode p ~point ~survivors))

module B = Harness.Benchdiff

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
    (* per layer: the checksum every strict data op computes, one
       strict staged write with its log entry and fence, and one crash
       state of the strict crash campaign *)
    (fun () ->
      Test.make ~name:"layer/crc32-4k" (Staged.stage (crc32_closure ())));
    (fun () ->
      Test.make ~name:"layer/strict-pwrite-4k"
        (Staged.stage (strict_pwrite_closure ())));
    (fun () ->
      Test.make ~name:"layer/crash-trial-strict"
        (Staged.stage (crash_trial_closure ())));
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
              B.host_ns name est :: acc
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
  let module E = Harness.Experiments in
  (* print an experiment's tables; keep its trajectory points *)
  let run (r : _ Harness.Runner.report) =
    print_string r.text;
    r.points
  in
  let table1 = run (E.table1 ()) in
  let _ = run (E.table2 ()) in
  let table6 = run (E.table6 ()) in
  let _ = run (E.fig3 ()) in
  let fig4 = run (E.fig4 ()) in
  let _ = run (E.fig5 ()) in
  let _ = run (E.fig6 ()) in
  let _ = run (E.table7 ()) in
  let _ = run (E.recovery ()) in
  let _ = run (E.resources ()) in
  let _ = run (E.ablations ()) in
  let scaling = run (E.scaling ()) in
  let profile = run (E.profile ()) in
  let latency = run (E.latency ()) in
  let faults = run (E.faultcheck ()) in
  let degraded = run (E.degraded_latency ()) in
  let fams = run (E.fams_vs_wal ()) in
  (* the minimizer re-explores the corpus once per fence site; skip it
     in --fast smoke runs, keep the corpus itself (it is the crash
     regression gate) *)
  let litmus = run (E.litmus ~minimize:(not fast) ()) in
  (* every point so far is simulated ns or a deterministic count: cheap
     to produce and exact to compare, so --fast runs write a trajectory
     point too — the sim-only subset the CI regression gate diffs
     against the last committed full snapshot *)
  let sim =
    List.concat
      [ table1; fig4; table6; scaling; profile; latency; faults; degraded;
        fams; litmus ]
  in
  if fast then Option.iter (write_trajectory ~mode:"fast" sim) json_path
  else begin
    let scale = run (E.scale ()) in
    let dispatch = run (E.dispatch_bench ()) in
    let par = run (E.par_bench ()) in
    let bechamel = run_bechamel () in
    Option.iter
      (write_trajectory ~mode:"full"
         (List.concat [ bechamel; sim; scale; dispatch; par ]))
      json_path
  end;
  print_endline "\nAll experiments completed."
