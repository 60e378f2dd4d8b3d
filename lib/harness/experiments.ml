(** One function per table/figure of the paper's evaluation. Every function
    returns a {!Runner.report} and prints nothing: the measurements tests
    assert the expected shapes on (who wins, by roughly what factor), the
    paper-style tables as text, and the perf-trajectory points the
    experiment adds to a BENCH_PR*.json file, each built beside the row
    it comes from.

    Absolute numbers come from the simulation's cost model (see
    [Pmem.Timing]); the paper's published values are printed alongside
    where the paper gives them. *)

open Fs_config
module B = Benchdiff

let mb = 1024 * 1024

(* the paper's media baseline: writing 4 KB to PM takes 671 ns (§1) *)
let media_4k = 671.

(* ------------------------------------------------------------------ *)
(* Table 1: software overhead of a 4 KB append                          *)
(* ------------------------------------------------------------------ *)

let append_bench stack ~total_bytes =
  (* the paper's Table 1 measures the bare append operation: no periodic
     fsync (relink amortises over the whole run via staging turnover) *)
  let cfg =
    {
      Workloads.Iopattern.default_config with
      Workloads.Iopattern.file_size = total_bytes;
      fsync_every = max_int;
    }
  in
  Runner.measure stack "append" (fun () ->
      Workloads.Iopattern.run stack.fs cfg Workloads.Iopattern.Append)

(* the paper's append and overhead columns (ns) *)
let table1_specs =
  [
    (Ext4_dax, (9002., 8331.));
    (Pmfs, (4150., 3479.));
    (Nova_strict, (3021., 2350.));
    (Splitfs_strict, (1251., 580.));
    (Splitfs_posix, (1160., 488.));
  ]

(** Simulated ns per 4 KB append, per file system. The points
    [table1/sim/<fs>] carry the same numbers. *)
let table1 ?(total_mb = 16) () =
  let rows =
    List.map
      (fun (spec, paper) ->
        let stack = make spec in
        let m = append_bench stack ~total_bytes:(total_mb * mb) in
        (name spec, Runner.ns_per_op m, paper))
      table1_specs
  in
  let text =
    Runner.table ~title:"Table 1: software overhead of a 4K append"
      [ "file system"; "append (ns)"; "overhead (ns)"; "overhead (%)";
        "paper append"; "paper overhead" ]
      (List.map
         (fun (fs, ns, (pa, po)) ->
           let overhead = ns -. media_4k in
           [
             fs;
             Runner.f0 ns;
             Runner.f0 overhead;
             Runner.f0 (overhead /. media_4k *. 100.) ^ "%";
             Runner.f0 pa;
             Runner.f0 po;
           ])
         rows)
  in
  let points = List.map (fun (fs, ns, _) -> B.sim_ns ("table1/sim/" ^ fs) ns) rows in
  { Runner.value = List.map (fun (fs, ns, _) -> (fs, ns)) rows; text; points }

(* ------------------------------------------------------------------ *)
(* Table 2: PM performance characteristics                              *)
(* ------------------------------------------------------------------ *)

let table2 () =
  let env = Pmem.Env.create ~capacity:(16 * mb) () in
  let dev = env.Pmem.Env.dev in
  let timed f =
    let t0 = Pmem.Env.now env in
    f ();
    Pmem.Env.now env -. t0
  in
  let line = Bytes.make 64 'x' in
  let buf = Bytes.create 64 in
  (* sequential read latency: second of two adjacent line loads *)
  Pmem.Device.load dev ~addr:0 buf ~off:0 ~len:64;
  let seq_read = timed (fun () -> Pmem.Device.load dev ~addr:64 buf ~off:0 ~len:64) in
  (* random read latency: non-adjacent load *)
  let rand_read = timed (fun () -> Pmem.Device.load dev ~addr:524288 buf ~off:0 ~len:64) in
  (* store + flush + fence of one cache line *)
  let sff =
    timed (fun () ->
        Pmem.Device.store dev ~addr:4096 line ~off:0 ~len:64;
        Pmem.Device.flush dev ~addr:4096 ~len:64;
        Pmem.Device.fence dev)
  in
  (* bandwidths over a 4 MB transfer *)
  let big = Bytes.make (4 * mb) 'b' in
  let wr = timed (fun () -> Pmem.Device.store_nt dev ~addr:0 big ~off:0 ~len:(4 * mb)) in
  Pmem.Device.load dev ~addr:(8 * mb) buf ~off:0 ~len:64;
  let rd = timed (fun () -> Pmem.Device.load dev ~addr:0 big ~off:0 ~len:(4 * mb)) in
  let read_bw = float_of_int (4 * mb) /. rd in
  let write_bw = float_of_int (4 * mb) /. wr in
  let rows =
    [
      ("sequential read latency (ns)", seq_read, 169.);
      ("random read latency (ns)", rand_read, 305.);
      ("store + flush + fence (ns)", sff, 91.);
      ("read bandwidth (GB/s)", read_bw, 39.4);
      ("effective 4K write (ns)", Pmem.Timing.nt_write_cost env.Pmem.Env.timing 4096, 671.);
      ("write bandwidth (GB/s)", write_bw, float_of_int (4 * mb) /. (671. /. 4096. *. float_of_int (4 * mb)));
    ]
  in
  let text =
    Runner.table ~title:"Table 2: PM performance characteristics"
      [ "property"; "measured"; "paper / target" ]
      (List.map (fun (p, m, t) -> [ p; Runner.f1 m; Runner.f1 t ]) rows)
  in
  { Runner.value = rows; text; points = [] }

(* ------------------------------------------------------------------ *)
(* Table 6: system call latencies (varmail microbenchmark)              *)
(* ------------------------------------------------------------------ *)

(* the varmail sequence's syscalls: the table's rows and the points' keys *)
let varmail_ops =
  Workloads.Varmail.
    [
      ("open", fun l -> l.open_ns);
      ("close", fun l -> l.close_ns);
      ("append", fun l -> l.append_ns);
      ("fsync", fun l -> l.fsync_ns);
      ("read", fun l -> l.read_ns);
      ("unlink", fun l -> l.unlink_ns);
    ]

(** Varmail syscall latencies per stack. The points
    [table6/sim/<fs>/<op>] carry every cell in simulated ns. *)
let table6 ?(iterations = 200) () =
  let specs = [ Splitfs_strict; Splitfs_sync; Splitfs_posix; Ext4_dax ] in
  let rows =
    List.map
      (fun spec ->
        let stack = make spec in
        let env = stack.env in
        let lat =
          Workloads.Varmail.run stack.fs
            ~now:(fun () -> Pmem.Env.now env)
            ~iterations
        in
        (name spec, lat))
      specs
  in
  let us x = Runner.f2 (x /. 1000.) in
  let text =
    Runner.table ~title:"Table 6: system call latency (us), varmail sequence"
      ("syscall" :: List.map fst rows)
      (List.map
         (fun (op, get) -> op :: List.map (fun (_, l) -> us (get l)) rows)
         varmail_ops)
  in
  let points =
    List.concat_map
      (fun (fs, l) ->
        List.map
          (fun (op, get) ->
            B.sim_ns (Printf.sprintf "table6/sim/%s/%s" fs op) (get l))
          varmail_ops)
      rows
  in
  { Runner.value = rows; text; points }

(* ------------------------------------------------------------------ *)
(* YCSB on the LSM store (Figure 6 data-intensive part, Table 7)        *)
(* ------------------------------------------------------------------ *)

let ycsb_workloads =
  Workloads.Ycsb.[ Load; A; B; C; D; E; F ]

(** Run LoadA then each Run workload on one stack; returns
    (workload, measurement) pairs. *)
let ycsb_series stack ~records ~operations =
  (* per-op application CPU: request handling, memtable walk, comparisons *)
  let think () = Pmem.Env.cpu stack.env 2500. in
  let cfg =
    { Workloads.Ycsb.records; operations; value_size = 1024 }
  in
  let lsm =
    Apps.Lsm.open_ stack.fs
      ~cfg:{ Apps.Lsm.default_config with Apps.Lsm.memtable_budget = 512 * 1024 }
      "/leveldb"
  in
  let results =
    List.map
      (fun w ->
        let operations =
          (* workload E is scan-heavy; the paper also halves its op count *)
          if w = Workloads.Ycsb.E then { cfg with Workloads.Ycsb.operations = operations / 2 }
          else cfg
        in
        let m =
          Runner.measure stack (Workloads.Ycsb.workload_name w) (fun () ->
              (Workloads.Ycsb.run ~think lsm w operations).Workloads.Ycsb.ops_done)
        in
        (w, m))
      ycsb_workloads
  in
  Apps.Lsm.close lsm;
  results

let table7 ?(records = 4000) ?(operations = 4000) () =
  let strata_stack = make Strata in
  let split_stack = make Splitfs_strict in
  let strata = ycsb_series strata_stack ~records ~operations in
  let split = ycsb_series split_stack ~records ~operations in
  let rows =
    List.map2
      (fun (w, (ms : Runner.measurement)) (_, mp) ->
        (Workloads.Ycsb.workload_name w, Runner.kops ms, Runner.kops mp))
      strata split
  in
  let text =
    Runner.table ~title:"Table 7: Strata vs SplitFS-strict (YCSB on LSM store)"
      [ "workload"; "strata kops/s"; "splitfs kops/s"; "splitfs/strata"; "paper" ]
      (List.map2
         (fun (w, s, p) paper ->
           [ w; Runner.f1 s; Runner.f1 p; Runner.f2 (p /. s) ^ "x"; paper ])
         rows
         [ "1.73x"; "1.76x"; "2.16x"; "2.14x"; "2.25x"; "2.03x"; "2.25x" ])
  in
  { Runner.value = (); text; points = [] }

(* ------------------------------------------------------------------ *)
(* Figure 3: contribution of each technique                             *)
(* ------------------------------------------------------------------ *)

let fig3 ?(total_mb = 16) () =
  let specs =
    [ Ext4_dax; Splitfs_split_only; Splitfs_staging_only; Splitfs_posix ]
  in
  let run spec pattern =
    let stack = make spec in
    let cfg =
      {
        Workloads.Iopattern.default_config with
        Workloads.Iopattern.file_size = total_mb * mb;
      }
    in
    (match pattern with
    | Workloads.Iopattern.Append -> ()
    | _ -> Workloads.Iopattern.prepare stack.fs cfg);
    Runner.measure stack (Workloads.Iopattern.pattern_name pattern) (fun () ->
        Workloads.Iopattern.run stack.fs cfg pattern)
  in
  let rows =
    List.map
      (fun spec ->
        let ow = run spec Workloads.Iopattern.Seq_write in
        let ap = run spec Workloads.Iopattern.Append in
        (name spec, Runner.kops ow, Runner.kops ap))
      specs
  in
  let base_ow, base_ap =
    match rows with (_, ow, ap) :: _ -> (ow, ap) | [] -> (1., 1.)
  in
  let text =
    Runner.table
      ~title:"Figure 3: technique contributions (4K ops, fsync every 10)"
      [ "configuration"; "seq-overwrite kops/s"; "vs ext4"; "append kops/s"; "vs ext4" ]
      (List.map
         (fun (n, ow, ap) ->
           [
             n;
             Runner.f1 ow;
             Runner.f2 (ow /. base_ow) ^ "x";
             Runner.f1 ap;
             Runner.f2 (ap /. base_ap) ^ "x";
           ])
         rows)
  in
  { Runner.value = rows; text; points = [] }

(* ------------------------------------------------------------------ *)
(* Figure 4: IO patterns per guarantee group                            *)
(* ------------------------------------------------------------------ *)

let fig4_groups =
  [
    ("POSIX", Ext4_dax, [ Splitfs_posix ]);
    ("sync", Pmfs, [ Splitfs_sync ]);
    ("strict", Nova_strict, [ Strata; Splitfs_strict ]);
  ]

(** Throughput per IO pattern within each guarantee group. The points
    [fig4/sim/<fs>/<pattern>] carry simulated ns/op per cell. *)
let fig4 ?(total_mb = 16) () =
  let patterns =
    Workloads.Iopattern.[ Seq_read; Rand_read; Seq_write; Rand_write; Append ]
  in
  let run_all spec =
    let stack = make spec in
    (* §5.6: whole file in 4K ops, no periodic fsync; the timed section is
       the op loop, the final fsync/close are outside it *)
    let cfg =
      {
        Workloads.Iopattern.default_config with
        Workloads.Iopattern.file_size = total_mb * mb;
        fsync_every = max_int;
      }
    in
    Workloads.Iopattern.prepare stack.fs cfg;
    List.map
      (fun p ->
        let fd = Workloads.Iopattern.open_for stack.fs p in
        let m =
          Runner.measure stack (Workloads.Iopattern.pattern_name p) (fun () ->
              Workloads.Iopattern.run_ops stack.fs fd cfg p)
        in
        Workloads.Iopattern.finish stack.fs fd p;
        (p, m))
      patterns
  in
  let results =
    List.map
      (fun (group, baseline, challengers) ->
        (group, (baseline, run_all baseline),
         List.map (fun c -> (c, run_all c)) challengers))
      fig4_groups
  in
  let text =
    String.concat ""
      (List.map
         (fun (group, (bspec, bruns), cruns) ->
           Runner.table
             ~title:(Printf.sprintf "Figure 4 (%s mode): throughput, normalised to %s" group (name bspec))
             ("pattern" :: (name bspec ^ " kops/s")
              :: List.concat_map (fun (c, _) -> [ name c ^ " kops/s"; "vs base" ]) cruns)
             (List.map
                (fun (p, bm) ->
                  let base = Runner.kops bm in
                  Workloads.Iopattern.pattern_name p :: Runner.f1 base
                  :: List.concat_map
                       (fun (_, runs) ->
                         let m = List.assoc p runs in
                         [ Runner.f1 (Runner.kops m); Runner.f2 (Runner.kops m /. base) ^ "x" ])
                       cruns)
                bruns))
         results)
  in
  let points =
    List.concat_map
      (fun (_, base, challengers) ->
        List.concat_map
          (fun (spec, runs) ->
            List.map
              (fun (p, m) ->
                B.sim_ns
                  (Printf.sprintf "fig4/sim/%s/%s" (name spec)
                     (Workloads.Iopattern.pattern_name p))
                  (Runner.ns_per_op m))
              runs)
          (base :: challengers))
      results
  in
  { Runner.value = results; text; points }

(* ------------------------------------------------------------------ *)
(* Figure 5: relative software overhead on applications                 *)
(* ------------------------------------------------------------------ *)

(** Software overhead = simulated time − ideal media time for the logical
    IO volume (§5.7's definition, with the ideal modelled from the
    workload's logical reads/writes). *)
let software_overhead (m : Runner.measurement) =
  m.Runner.sim_ns -. m.Runner.media_ns

(** TPC-C on the WAL database of a fresh [spec] stack: [operations / 4]
    transactions, each with 30 us of application CPU (Figures 5 and 6). *)
let tpcc_run spec ~operations =
  let stack = make spec in
  let db = Apps.Waldb.open_ stack.fs "/tpcc.db" () in
  let cfg =
    {
      Workloads.Tpcc.transactions = operations / 4;
      customers_per_district = 30;
      items = 200;
    }
  in
  Workloads.Tpcc.load db cfg;
  let think () = Pmem.Env.cpu stack.env 30000. in
  let m =
    Runner.measure stack "tpcc" (fun () ->
        Workloads.Tpcc.total (Workloads.Tpcc.run ~think db cfg))
  in
  Apps.Waldb.close db;
  m

let fig5_groups =
  [
    ("POSIX", [ Ext4_dax ], Splitfs_posix);
    ("sync", [ Pmfs; Nova_relaxed ], Splitfs_sync);
    ("strict", [ Nova_strict ], Splitfs_strict);
  ]

let fig5 ?(records = 3000) ?(operations = 3000) () =
  let ycsb_load_run spec =
    let series = ycsb_series (make spec) ~records ~operations in
    (List.assoc Workloads.Ycsb.Load series, List.assoc Workloads.Ycsb.A series)
  in
  let results =
    List.map
      (fun (group, others, split_spec) ->
        let per_fs =
          List.map
            (fun spec ->
              let load, runa = ycsb_load_run spec in
              let tpcc = tpcc_run spec ~operations in
              (spec, [ ("LoadA", load); ("RunA", runa); ("TPCC", tpcc) ]))
            (others @ [ split_spec ])
        in
        (group, per_fs))
      fig5_groups
  in
  let text =
    String.concat ""
      (List.map
         (fun (group, per_fs) ->
           let split_spec, split_runs = List.nth per_fs (List.length per_fs - 1) in
           Runner.table
             ~title:
               (Printf.sprintf
                  "Figure 5 (%s mode): software overhead relative to %s" group
                  (name split_spec))
             ("workload" :: List.map (fun (spec, _) -> name spec) per_fs)
             (List.map
                (fun wname ->
                  let base = software_overhead (List.assoc wname split_runs) in
                  wname
                  :: List.map
                       (fun (_, runs) ->
                         Runner.f2 (software_overhead (List.assoc wname runs) /. base)
                         ^ "x")
                       per_fs)
                [ "LoadA"; "RunA"; "TPCC" ]))
         results)
  in
  { Runner.value = (); text; points = [] }

(* ------------------------------------------------------------------ *)
(* Figure 6: real applications                                          *)
(* ------------------------------------------------------------------ *)

let redis_run stack ~sets =
  let env = stack.env in
  let kv =
    Apps.Aof.open_ stack.fs ~path:"/redis.aof"
      ~now:(fun () -> Pmem.Env.now env)
      ()
  in
  let rng = Workloads.Rng.create 5 in
  let m =
    Runner.measure stack "redis-set" (fun () ->
        for i = 0 to sets - 1 do
          (* command parsing + hash table work *)
          Pmem.Env.cpu env 10000.;
          Apps.Aof.set kv
            (Printf.sprintf "key:%08d" (Workloads.Rng.int rng sets))
            (Workloads.Rng.payload rng 100)
          |> ignore;
          ignore i
        done;
        sets)
  in
  Apps.Aof.close kv;
  m

let utility_run stack ~files =
  let fs = stack.fs in
  let paths = Workloads.Utility.make_tree fs ~root:"/src" ~files ~seed:2 in
  (* application CPU per byte processed: git hashes and deflates (~3 ns/B),
     tar gzip-compresses (~15 ns/B), rsync checksums (~1 ns/B) *)
  let per_byte rate n = Pmem.Env.cpu stack.env (rate *. float_of_int n) in
  let git =
    Runner.measure stack "git" (fun () ->
        (Workloads.Utility.git fs ~think_bytes:(per_byte 3.) ~root:"/src" ~paths
           ~commits:8 ~seed:3).Workloads.Utility.files)
  in
  let tar =
    Runner.measure stack "tar" (fun () ->
        (Workloads.Utility.tar fs ~think_bytes:(per_byte 15.) ~paths
           ~archive:"/backup.tar").Workloads.Utility.files)
  in
  let rsync =
    Runner.measure stack "rsync" (fun () ->
        (Workloads.Utility.rsync fs ~think_bytes:(per_byte 1.) ~paths
           ~src_root:"/src" ~dst_root:"/dst").Workloads.Utility.files)
  in
  [ ("git", git); ("tar", tar); ("rsync", rsync) ]

let fig6_groups =
  [
    ("POSIX", Ext4_dax, Splitfs_posix);
    ("sync", Pmfs, Splitfs_sync);
    ("strict", Nova_strict, Splitfs_strict);
  ]

let fig6 ?(records = 3000) ?(operations = 3000) () =
  let app_suite spec =
    let stack = make spec in
    let ycsb = ycsb_series stack ~records ~operations in
    let redis = redis_run stack ~sets:operations in
    let tpcc = tpcc_run spec ~operations in
    let utils = utility_run (make spec) ~files:200 in
    (ycsb, redis, tpcc, utils)
  in
  let results =
    List.map
      (fun (group, base_spec, split_spec) ->
        (group, (base_spec, app_suite base_spec), (split_spec, app_suite split_spec)))
      fig6_groups
  in
  let row label (bm : Runner.measurement) (sm : Runner.measurement) =
    let b = Runner.kops bm and s = Runner.kops sm in
    [ label; Runner.f1 b; Runner.f1 s; Runner.f2 (s /. b) ^ "x" ]
  in
  let text =
    String.concat ""
      (List.map
         (fun (group, (bspec, (bycsb, bredis, btpcc, butils)), (sspec, (sycsb, sredis, stpcc, sutils))) ->
           Runner.table
             ~title:(Printf.sprintf "Figure 6 (%s mode): application performance" group)
             [ "workload"; name bspec ^ " kops/s"; name sspec ^ " kops/s"; "splitfs speedup" ]
             (List.map
                (fun (w, bm) -> row (Workloads.Ycsb.workload_name w) bm (List.assoc w sycsb))
                bycsb
             @ [ row "Redis-SET" bredis sredis; row "TPCC" btpcc stpcc ]
             @ List.map
                 (fun (n, bm) ->
                   let sm = List.assoc n sutils in
                   (* utilities are runtime (lower better): report as relative
                      runtime of splitfs vs baseline *)
                   [
                     n;
                     Runner.f2 (bm.Runner.sim_ns /. 1e9) ^ "s";
                     Runner.f2 (sm.Runner.sim_ns /. 1e9) ^ "s";
                     Runner.f2 (bm.Runner.sim_ns /. sm.Runner.sim_ns) ^ "x";
                   ])
                 butils))
         results)
  in
  { Runner.value = (); text; points = [] }

(* ------------------------------------------------------------------ *)
(* §5.3: recovery time vs number of valid log entries                   *)
(* ------------------------------------------------------------------ *)

let recovery () =
  let entry_counts = [ 1_000; 5_000; 18_000; 50_000 ] in
  let rows =
    List.map
      (fun entries ->
        let stack =
          make Splitfs_strict
            ~splitfs_cfg:
              {
                (splitfs_experiment_cfg Splitfs.Config.Strict) with
                Splitfs.Config.oplog_size = 8 * mb;
                staging_size = 16 * mb;
              }
        in
        let fs = stack.fs in
        let fd = fs.open_ "/victim" Fsapi.Flags.create_rw in
        (* cache-line-sized appends like the paper's worst case (§5.3) *)
        let buf = Bytes.make 64 'r' in
        for _ = 1 to entries do
          ignore (fs.write fd ~buf ~boff:0 ~len:64)
        done;
        Pmem.Device.crash stack.env.Pmem.Env.dev;
        let sys = Option.get stack.sys in
        let report = Splitfs.Recovery.recover ~sys ~env:stack.env ~instance:0 in
        (entries, report))
      entry_counts
  in
  let text =
    Runner.table ~title:"Recovery time vs valid log entries (section 5.3)"
      [ "log entries"; "replayed"; "torn"; "files"; "replay time (ms, simulated)" ]
      (List.map
         (fun (entries, (r : Splitfs.Recovery.report)) ->
           [
             string_of_int entries;
             string_of_int r.Splitfs.Recovery.entries_replayed;
             string_of_int r.Splitfs.Recovery.torn_entries;
             string_of_int r.Splitfs.Recovery.files_recovered;
             Runner.f2 (r.Splitfs.Recovery.replay_ns /. 1e6);
           ])
         rows)
  in
  { Runner.value = rows; text; points = [] }

(* ------------------------------------------------------------------ *)
(* Failure-atomic msync vs write-ahead logging                          *)
(* ------------------------------------------------------------------ *)

(** The workload failure-atomic msync exists for: an mmap-native page
    store ({!Apps.Mmapdb}) that updates pages in place and commits a
    transaction with one msync. On [Splitfs_fams] that commit is atomic,
    so the store needs no write-ahead log. Every other stack runs the
    same transaction stream through {!Apps.Pager}, which must write each
    page twice (WAL frame now, checkpoint later) and scan the log on
    open to get the same guarantee.

    Columns: per-commit simulated latency (p50/p99 over 200 commits of 4
    dirty pages out of 64) and the simulated time from crash to a
    consistent reopen — SplitFS oplog replay where the stack has one,
    plus the application's own open (WAL scan-and-settle for the pager,
    a bare fstat for mmapdb). The points [fams/<fs>/p50], [.../p99] and
    [.../recovery-ms] carry the same cells. *)
let fams_vs_wal () =
  let ntx = 200 and pages_per_tx = 4 and npages = 64 in
  let percentile sorted p =
    let n = Array.length sorted in
    let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) rank))
  in
  let run spec =
    let stack = make spec in
    let fs = stack.fs in
    let rng = Workloads.Rng.create 0xFA35 in
    let page () =
      Bytes.of_string (Workloads.Rng.payload rng Apps.Mmapdb.page_size)
    in
    let lat = Array.make ntx 0. in
    let is_fams = spec = Splitfs_fams in
    (if is_fams then begin
       let db = Apps.Mmapdb.open_ fs "/db" in
       Apps.Mmapdb.preallocate db npages;
       for i = 0 to ntx - 1 do
         let t0 = Pmem.Env.now stack.env in
         for _ = 1 to pages_per_tx do
           Apps.Mmapdb.write_page db (Workloads.Rng.int rng npages) (page ())
         done;
         Apps.Mmapdb.commit db;
         lat.(i) <- Pmem.Env.now stack.env -. t0
       done
     end
     else begin
       let pg = Apps.Pager.open_ fs "/db" ~checkpoint_frames:64 in
       (* same starting point as mmapdb: npages of durable zeros *)
       let zero = Bytes.make Apps.Pager.page_size '\000' in
       Apps.Pager.commit pg (List.init npages (fun i -> (i, zero)));
       Apps.Pager.checkpoint pg;
       for i = 0 to ntx - 1 do
         let t0 = Pmem.Env.now stack.env in
         let dirty =
           List.init pages_per_tx (fun _ ->
               (Workloads.Rng.int rng npages, page ()))
         in
         Apps.Pager.commit pg dirty;
         lat.(i) <- Pmem.Env.now stack.env -. t0
       done
     end);
    Pmem.Device.crash stack.env.Pmem.Env.dev;
    let replay_ns =
      match stack.sys with
      | Some sys when stack.usplit <> None ->
          (Splitfs.Recovery.recover ~sys ~env:stack.env ~instance:0)
            .Splitfs.Recovery.replay_ns
      | _ -> 0.
    in
    (* the surviving U-Split instance is stale after a crash: the app
       reopens through the kernel stack, like a restarted process would *)
    let read_fs =
      match stack.sys with
      | Some sys -> Kernelfs.Syscall.as_fsapi sys
      | None -> fs
    in
    let t0 = Pmem.Env.now stack.env in
    (if is_fams then ignore (Apps.Mmapdb.open_ read_fs "/db")
     else ignore (Apps.Pager.open_ read_fs "/db" ~checkpoint_frames:64));
    let reopen_ns = Pmem.Env.now stack.env -. t0 in
    Array.sort compare lat;
    let p50 = percentile lat 50. and p99 = percentile lat 99. in
    let recovery_ms = (replay_ns +. reopen_ns) /. 1e6 in
    let key = "fams/" ^ name spec in
    ( [
        name spec;
        (if is_fams then "mmapdb-msync" else "pager-wal");
        string_of_int ntx;
        Runner.f0 p50;
        Runner.f0 p99;
        Runner.f2 recovery_ms;
      ],
      [
        B.sim_ns (key ^ "/p50") p50;
        B.sim_ns (key ^ "/p99") p99;
        B.point B.Sim_lower "ms" (key ^ "/recovery-ms") recovery_ms;
      ] )
  in
  let rows =
    List.map run
      [ Splitfs_fams; Splitfs_strict; Splitfs_sync; Ext4_dax; Nova_relaxed ]
  in
  let text =
    Runner.table
      ~title:"Failure-atomic msync vs WAL (per-commit, simulated)"
      [ "stack"; "app"; "commits"; "p50 (ns)"; "p99 (ns)"; "recovery (ms)" ]
      (List.map fst rows)
  in
  let points = List.concat_map snd rows in
  { Runner.value = (); text; points }

(* ------------------------------------------------------------------ *)
(* Ablations: the design choices discussed in paper sections 4 and 3.6  *)
(* ------------------------------------------------------------------ *)

type ablation_row = { ab_name : string; ab_variant : string; ab_kops : float }

(** Three ablations:
    - staging in DRAM vs PM (the authors tried DRAM staging and found the
      fsync-time copy overshadowed the cheaper staging, section 4);
    - huge pages on vs off (reads drop ~50% without huge pages, section 4);
    - mmap region size sweep (section 3.6 tunable). *)
let ablations ?(total_mb = 8) () =
  let io_cfg fsync_every =
    {
      Workloads.Iopattern.default_config with
      Workloads.Iopattern.file_size = total_mb * mb;
      fsync_every;
    }
  in
  let staging_row variant ~in_dram =
    let stack =
      make Splitfs_posix
        ~splitfs_cfg:
          {
            (splitfs_experiment_cfg Splitfs.Config.Posix) with
            Splitfs.Config.staging_in_dram = in_dram;
          }
    in
    let m =
      Runner.measure stack "append" (fun () ->
          Workloads.Iopattern.run stack.fs (io_cfg 10) Workloads.Iopattern.Append)
    in
    { ab_name = "staging medium (append+fsync/10)"; ab_variant = variant; ab_kops = Runner.kops m }
  in
  (* huge pages: sequential read of a kernel-written file, so U-Split must
     establish fresh mappings and pay the faults *)
  let huge_row variant ~enabled =
    let timing = { Pmem.Timing.default with Pmem.Timing.huge_pages_enabled = enabled } in
    let stack = make Splitfs_posix ~timing in
    let sys = Option.get stack.sys in
    let kernel_fs = Kernelfs.Syscall.as_fsapi sys in
    Workloads.Iopattern.prepare kernel_fs (io_cfg max_int);
    let m =
      Runner.measure stack "seq-read" (fun () ->
          Workloads.Iopattern.run stack.fs (io_cfg max_int) Workloads.Iopattern.Seq_read)
    in
    { ab_name = "huge pages (seq-read, cold mmaps)"; ab_variant = variant; ab_kops = Runner.kops m }
  in
  let mmap_row size =
    let stack =
      make Splitfs_posix
        ~splitfs_cfg:
          {
            (splitfs_experiment_cfg Splitfs.Config.Posix) with
            Splitfs.Config.mmap_size = size;
          }
    in
    let sys = Option.get stack.sys in
    let kernel_fs = Kernelfs.Syscall.as_fsapi sys in
    Workloads.Iopattern.prepare kernel_fs (io_cfg max_int);
    let m =
      Runner.measure stack "seq-read" (fun () ->
          Workloads.Iopattern.run stack.fs (io_cfg max_int) Workloads.Iopattern.Seq_read)
    in
    {
      ab_name = "mmap region size (seq-read, cold mmaps)";
      ab_variant = Printf.sprintf "%d MB" (size / mb);
      ab_kops = Runner.kops m;
    }
  in
  let rows =
    [
      staging_row "PM staging (relink)" ~in_dram:false;
      staging_row "DRAM staging (copy on fsync)" ~in_dram:true;
      huge_row "huge pages" ~enabled:true;
      huge_row "4K pages only" ~enabled:false;
      mmap_row (2 * mb);
      mmap_row (8 * mb);
      mmap_row (32 * mb);
    ]
  in
  let text =
    Runner.table ~title:"Ablations (paper sections 4 and 3.6)"
      [ "ablation"; "variant"; "kops/s" ]
      (List.map (fun r -> [ r.ab_name; r.ab_variant; Runner.f1 r.ab_kops ]) rows)
  in
  { Runner.value = rows; text; points = [] }

(* ------------------------------------------------------------------ *)
(* §5.10: resource consumption                                          *)
(* ------------------------------------------------------------------ *)

let resources () =
  let files = 500 in
  let run mode =
    (* a small staging pool so the background thread has pre-allocation
       work to do, plus a broad working set of files and mappings *)
    let stack =
      make mode
        ~splitfs_cfg:
          {
            (splitfs_experiment_cfg
               (match mode with
               | Splitfs_strict -> Splitfs.Config.Strict
               | _ -> Splitfs.Config.Posix))
            with
            Splitfs.Config.staging_size = 2 * mb;
            staging_files = 2;
          }
    in
    let fs = stack.fs in
    let body = String.make 8192 'm' in
    for i = 0 to files - 1 do
      let p = Printf.sprintf "/res-%04d" i in
      Fsapi.Fs.write_file fs p body;
      ignore (Fsapi.Fs.read_file fs p)
    done;
    (* churn one big appending file through several staging files *)
    let fd = fs.open_ "/res-big" Fsapi.Flags.create_rw in
    let chunk = Bytes.make 65536 'c' in
    for _ = 1 to 128 do
      ignore (fs.write fd ~buf:chunk ~boff:0 ~len:65536)
    done;
    fs.fsync fd;
    fs.close fd;
    let u = Option.get stack.usplit in
    let mem = Splitfs.Usplit.memory_usage u in
    let stats = stack.env.Pmem.Env.stats in
    let bg = stats.Pmem.Stats.background_ns in
    let total = Pmem.Env.now stack.env in
    ( (name mode, mem, bg /. (total +. 1.) *. 100.),
      ( name mode,
        stats.Pmem.Stats.dirty_lines_hwm,
        stats.Pmem.Stats.fast_path_hits,
        stats.Pmem.Stats.slow_path_hits ) )
  in
  let all = List.map run [ Splitfs_posix; Splitfs_strict ] in
  let rows = List.map fst all in
  let text =
    Runner.table ~title:"Resource consumption (section 5.10)"
      [ "configuration"; "U-Split DRAM (KB)"; "background thread (% of run)" ]
      (List.map
         (fun (n, mem, bg) -> [ n; string_of_int (mem / 1024); Runner.f1 bg ^ "%" ])
         rows)
    (* host-side simulator internals: how often the device served an
       operation with the zero-dirty-lines fast path, and how deep the
       dirty-line set got (these do not affect simulated time) *)
    ^ Runner.table ~title:"Simulator fast-path statistics (host-side)"
        [ "configuration"; "dirty-line high-water"; "fast-path ops"; "slow-path ops"; "fast-path share" ]
        (List.map
           (fun (_, (n, hwm, fast, slow)) ->
             [
               n;
               string_of_int hwm;
               string_of_int fast;
               string_of_int slow;
               Runner.f1 (float_of_int fast /. float_of_int (max 1 (fast + slow)) *. 100.) ^ "%";
             ])
           all)
  in
  { Runner.value = rows; text; points = [] }

(* ------------------------------------------------------------------ *)
(* Crashcheck: crash-state exploration with a recovery oracle (§5d)     *)
(* ------------------------------------------------------------------ *)

(** Per-mode summary of crash states explored by {!Crashcheck}: how many
    legal states the workload's persist-order journal admits, how many
    were visited (exhaustive when the space fits the budget, seeded
    sampling otherwise), and any differential violations found. *)
let crashcheck ?(samples = 200) ?(seed = 0x51ED) ?(nops = 24) ?jobs () =
  let reports = Crashcheck.run ~samples ~seed ~nops ?jobs () in
  let text =
    Runner.table ~title:"Crashcheck: crash states explored per mode"
      [ "mode"; "ops"; "crash points"; "legal states"; "explored"; "coverage"; "violations" ]
      (List.map
         (fun (mode, (r : Crashcheck.Trial.report)) ->
           [
             Splitfs.Config.mode_to_string mode;
             string_of_int nops;
             string_of_int r.r_points;
             string_of_int r.r_states;
             string_of_int r.r_explored;
             (if r.r_exhaustive then "exhaustive" else "sampled");
             string_of_int (List.length r.r_violations);
           ])
         reports)
    ^ String.concat ""
        (List.concat_map
           (fun (_, (r : Crashcheck.Trial.report)) ->
             List.map (Fmt.str "%a@." Crashcheck.Trial.pp_violation)
               r.r_violations)
           reports)
  in
  { Runner.value = reports; text; points = [] }

(* ------------------------------------------------------------------ *)
(* Faultcheck: fault-injection campaign with a differential oracle (§5g) *)
(* ------------------------------------------------------------------ *)

(* trial outcomes: the first table's columns and the points' keys *)
let fault_outcomes =
  Faultcheck.
    [
      ("untriggered", fun r -> r.s_untriggered);
      ("masked", fun r -> r.s_masked);
      ("retried", fun r -> r.s_retried);
      ("errno", fun r -> r.s_errno);
    ]

(** Per-stack summary of the {!Faultcheck} campaign: how every injected
    fault was absorbed (masked / retried / honest errno), plus the
    degradation-machinery counters, and any oracle violations found. The
    points [faults/<stack>/<outcome>] count each outcome's trials: at a
    pinned seed a shifted count means a degradation path changed
    behaviour. *)
let faultcheck ?(seed = 0xFA17) ?(nops = 24) ?jobs () =
  let reports = Faultcheck.run ~seed ~nops ?jobs () in
  let text =
    Runner.table
      ~title:"Faultcheck: fault-injection outcomes per stack"
      (("stack" :: "trials" :: List.map fst fault_outcomes) @ [ "violations" ])
      (List.map
         (fun (r : Faultcheck.stack_report) ->
           (r.Faultcheck.s_stack :: string_of_int r.Faultcheck.s_trials
           :: List.map (fun (_, get) -> string_of_int (get r)) fault_outcomes)
           @ [ string_of_int (List.length r.Faultcheck.s_violations) ])
         reports)
    ^ Runner.table
        ~title:"Faultcheck: degradation machinery exercised (summed counters)"
        [ "stack"; "injected"; "media"; "degraded writes"; "relink retries";
          "journal retries"; "quarantined"; "scrub migrations" ]
        (List.map
           (fun (r : Faultcheck.stack_report) ->
             let c = r.Faultcheck.s_counts in
             [
               r.Faultcheck.s_stack;
               string_of_int c.Faults.injected;
               string_of_int c.Faults.media;
               string_of_int c.Faults.degraded_writes;
               string_of_int c.Faults.relink_retries;
               string_of_int c.Faults.journal_retries;
               string_of_int c.Faults.quarantined_lines;
               string_of_int c.Faults.scrub_migrations;
             ])
           reports)
    ^ String.concat ""
        (List.concat_map
           (fun (r : Faultcheck.stack_report) ->
             List.map (Fmt.str "%a@." Faultcheck.pp_violation)
               r.Faultcheck.s_violations)
           reports)
  in
  let points =
    List.concat_map
      (fun (r : Faultcheck.stack_report) ->
        List.map
          (fun (outcome, get) ->
            B.count "trials"
              (Printf.sprintf "faults/%s/%s" r.Faultcheck.s_stack outcome)
              (get r))
          fault_outcomes)
      reports
  in
  { Runner.value = reports; text; points }

(* ------------------------------------------------------------------ *)
(* Litmus: named crash patterns, exhaustively, plus fence minimization  *)
(* (§5i)                                                               *)
(* ------------------------------------------------------------------ *)

(** The litmus corpus (Ferrite-style patterns plus SplitFS-specific
    WAL-commit and relink-publish) explored {e exhaustively} on every
    stack × mode combination, followed — unless [minimize:false] — by
    the fence minimizer's per-site verdicts: each registered
    [Device.fence] site elided and the whole corpus re-explored to
    decide whether it is load-bearing (REQUIRED, with a shrunk
    counterexample) or covered by later ordering (REDUNDANT, an
    exhaustive proof relative to the corpus). The value is the corpus
    runs; the points [litmus/<pattern>/<stack>] carry each run's
    crash-state count, so a change that grows or shrinks the enumerated
    space shows in the trajectory. *)
let litmus ?(minimize = true) ?jobs () =
  let module L = Crashcheck.Litmus in
  let module M = Crashcheck.Minimize in
  let module T = Crashcheck.Trial in
  let runs = L.(run_corpus ?jobs combos) in
  let verdicts = if minimize then M.run ?jobs () else [] in
  let corpus =
    Runner.table
      ~title:"Litmus corpus: exhaustive crash-state exploration"
      [ "pattern"; "stack"; "contract"; "crash points"; "states"; "violations" ]
      (List.map
         (fun ((c : L.combo), (r : T.report)) ->
           [
             c.c_pattern.p_name;
             c.c_config;
             Crashcheck.Check.contract_name c.c_contract;
             string_of_int r.r_points;
             string_of_int r.r_states;
             string_of_int (List.length r.r_violations);
           ])
         runs)
    ^ String.concat ""
        (List.concat_map
           (fun (c, (r : T.report)) ->
             List.map
               (Fmt.str "%s: %a@." (L.combo_name c) T.pp_violation)
               r.r_violations)
           runs)
  in
  let minimization () =
    Runner.table
      ~title:"Fence minimization: per-site verdicts (exhaustive elision)"
      [ "fence site"; "verdict"; "evidence" ]
      (List.map
         (fun (s : M.site_report) ->
           [
             s.M.s_name;
             M.verdict_name s.M.s_verdict;
             (match s.M.s_verdict with
             | M.Required { q_combo; _ } -> "counterexample in " ^ q_combo
             | M.Redundant { q_combos; q_states } ->
                 Printf.sprintf "%d combos, %d states, all recover" q_combos
                   q_states
             | M.Unexercised -> "outside every crash window");
           ])
         verdicts)
    ^ String.concat ""
        (List.filter_map
           (fun (s : M.site_report) ->
             match s.M.s_verdict with
             | M.Required { q_combo; q_violation } ->
                 Some
                   (Fmt.str "%s @@ %s: %a@." s.M.s_name q_combo T.pp_violation
                      q_violation)
             | _ -> None)
           verdicts)
  in
  let text = if minimize then corpus ^ minimization () else corpus in
  let points =
    List.map
      (fun (c, (r : T.report)) ->
        B.count "states" ("litmus/" ^ L.combo_name c) r.r_states)
      runs
  in
  { Runner.value = runs; text; points }

(** Write latency with the staging pool starved: the same 200-append
    workload on a healthy SplitFS stack and on one where an origin-scoped
    sticky Alloc fault makes every staging pre-allocation fail, so each
    write takes the degraded kernel path instead. The percentile gap is
    the price of graceful degradation — service continues under resource
    exhaustion, at K-Split latency rather than with an ENOSPC. The points
    [faults/degraded-lat/<fs>/<variant>/<pct>] carry every percentile. *)
let degraded_latency () =
  let nops = 200 in
  let modes =
    [
      (Splitfs_posix, Splitfs.Config.Posix);
      (Splitfs_sync, Splitfs.Config.Sync);
      (Splitfs_strict, Splitfs.Config.Strict);
    ]
  in
  let pctl sorted p =
    let n = Array.length sorted in
    if n = 0 then 0.
    else
      sorted.(max 0
                (min (n - 1)
                   (int_of_float ((p /. 100. *. float_of_int (n - 1)) +. 0.5))))
  in
  let pcts = [ ("p50", 50.); ("p90", 90.); ("p99", 99.) ] in
  let run spec mode ~degraded =
    let splitfs_cfg =
      if degraded then
        {
          (splitfs_experiment_cfg mode) with
          Splitfs.Config.staging_files = 1;
          staging_size = 4096;
        }
      else splitfs_experiment_cfg mode
    in
    let stack = make ~splitfs_cfg spec in
    if degraded then
      Faults.inject stack.env.Pmem.Env.faults
        (Faults.rfault ~origin:Faults.Staging_prealloc Faults.Alloc ~from:0
           Faults.Sticky);
    let fs = stack.fs in
    let fd = fs.Fsapi.Fs.open_ "/degraded-lat" Fsapi.Flags.create_rw in
    let buf = Bytes.make 4096 'd' in
    let samples =
      Array.init nops (fun i ->
          if i > 0 && i mod 10 = 0 then fs.Fsapi.Fs.fsync fd;
          let t0 = Pmem.Env.now stack.env in
          ignore (fs.Fsapi.Fs.write fd ~buf ~boff:0 ~len:4096);
          Pmem.Env.now stack.env -. t0)
    in
    fs.Fsapi.Fs.fsync fd;
    Array.sort compare samples;
    let variant = if degraded then "degraded" else "healthy" in
    let key = Printf.sprintf "faults/degraded-lat/%s/%s" (name spec) variant in
    let values = List.map (fun (label, p) -> (label, pctl samples p)) pcts in
    ( name spec :: variant :: string_of_int nops
      :: List.map (fun (_, v) -> Runner.f0 v) values,
      List.map (fun (label, v) -> B.sim_ns (key ^ "/" ^ label) v) values )
  in
  let rows =
    List.concat_map
      (fun (spec, mode) ->
        [ run spec mode ~degraded:false; run spec mode ~degraded:true ])
      modes
  in
  let text =
    Runner.table
      ~title:"Degraded-mode write latency (staging starved), simulated ns"
      ("stack" :: "variant" :: "n" :: List.map fst pcts)
      (List.map fst rows)
  in
  let points = List.concat_map snd rows in
  { Runner.value = (); text; points }

(* ------------------------------------------------------------------ *)
(* Scaling: aggregate throughput vs concurrent clients (§5e)            *)
(* ------------------------------------------------------------------ *)

let scaling_specs =
  [ Ext4_dax; Pmfs; Nova_relaxed; Splitfs_posix; Splitfs_sync; Splitfs_strict ]

let scaling_counts = [ 1; 2; 4; 8; 16 ]

(** Aggregate append throughput for N concurrent clients per file system:
    each client appends 4 KB records to a private file (fsync every 10)
    and the scheduler interleaves them deterministically. ext4 DAX
    serializes every client's metadata behind one jbd2 journal, while each
    SplitFS client appends through its own staging files and op-log — the
    concurrency half of the paper's software-overhead argument. The
    points [scaling/<fs>-<N>c] carry simulated ns/op (makespan over total
    ops), not host time, so contention results compare across machines. *)
let scaling () =
  let results =
    List.map
      (fun spec ->
        ( spec,
          List.map
            (fun n -> Multiclient.run spec ~nclients:n)
            scaling_counts ))
      scaling_specs
  in
  let text =
    Runner.table
      ~title:"Scaling: aggregate append throughput (kops/s) vs clients"
      ("file system" :: List.map string_of_int scaling_counts)
      (List.map
         (fun (spec, rs) ->
           name spec
           :: List.map
                (fun (r : Multiclient.result) -> Runner.f1 r.Multiclient.kops_per_s)
                rs)
         results)
    ^ Runner.table
        ~title:"Scaling: time blocked on contention at 8 clients (us)"
        [ "file system"; "lock wait"; "bandwidth wait" ]
        (List.map
           (fun (spec, rs) ->
             let r8 =
               List.find (fun (r : Multiclient.result) -> r.Multiclient.nclients = 8) rs
             in
             [
               name spec;
               Runner.f1 (r8.Multiclient.lock_wait_ns /. 1e3);
               Runner.f1 (r8.Multiclient.bw_wait_ns /. 1e3);
             ])
           results)
  in
  let points =
    List.concat_map
      (fun (spec, rs) ->
        List.map
          (fun (r : Multiclient.result) ->
            B.sim_ns
              (Printf.sprintf "scaling/%s-%dc" (name spec) r.Multiclient.nclients)
              (r.Multiclient.makespan_ns
              /. float_of_int (max 1 r.Multiclient.total_ops)))
          rs)
      results
  in
  { Runner.value = (); text; points }

(* ------------------------------------------------------------------ *)
(* Profile: software-overhead attribution (paper Fig. 2 analogue, §5f)  *)
(* ------------------------------------------------------------------ *)

(** The canonical profiling workload: 512 4 KB appends with an fsync every
    10 writes, a read-back pass, close — the append+fsync pattern whose
    overhead the paper's Figure 2 decomposes. Returns the op count. *)
let profile_workload (fs : Fsapi.Fs.t) =
  let wsize = 4096 in
  let nwrites = 512 in
  let buf = Bytes.make wsize 'p' in
  let ops = ref 0 in
  let op f =
    f ();
    incr ops
  in
  let fd = fs.Fsapi.Fs.open_ "/profile" Fsapi.Flags.create_rw in
  incr ops;
  for i = 0 to nwrites - 1 do
    op (fun () ->
        let n = fs.Fsapi.Fs.pwrite fd ~buf ~boff:0 ~len:wsize ~at:(i * wsize) in
        assert (n = wsize));
    if (i + 1) mod 10 = 0 then op (fun () -> fs.Fsapi.Fs.fsync fd)
  done;
  op (fun () -> fs.Fsapi.Fs.fsync fd);
  for i = 0 to 127 do
    op (fun () ->
        ignore (fs.Fsapi.Fs.pread fd ~buf ~boff:0 ~len:wsize ~at:(i * 4 * wsize)))
  done;
  op (fun () -> fs.Fsapi.Fs.close fd);
  !ops

type profile_row = {
  pr_spec : spec;
  pr_ops : int;
  pr_breakdown : (Obs.cat * float) list;
      (** measured-section simulated ns per category *)
  pr_identity : float * float;
      (** whole-env (attributed, accountable) — equal up to float rounding *)
  pr_stats : Pmem.Stats.t * Pmem.Stats.t;  (** (after, before) snapshots *)
}

let profile_specs =
  [ Ext4_dax; Pmfs; Nova_relaxed; Splitfs_posix; Splitfs_sync; Splitfs_strict ]

(** Where every simulated nanosecond goes, per stack: run the profiling
    workload on a fresh stack, diff the attribution array around it, and
    check the accounting identity on the whole environment (mount
    included). This is the software-overhead breakdown behind the paper's
    Figure 2: ext4 DAX pays traps + journal, SplitFS-POSIX pays a little
    U-Split CPU and log appends on top of near-bare media time. The
    points [profile/<fs>/<category>] carry each non-zero category's
    simulated ns/op. *)
let profile () =
  let rows =
    List.map
      (fun spec ->
        let stack = make spec in
        let obs = stack.env.Pmem.Env.obs in
        let snap = Obs.snapshot obs in
        let s0 = Pmem.Stats.copy stack.env.Pmem.Env.stats in
        let ops = profile_workload stack.fs in
        let breakdown = Obs.breakdown_since obs snap in
        let identity = Pmem.Env.check_identity stack.env in
        {
          pr_spec = spec;
          pr_ops = ops;
          pr_breakdown = breakdown;
          pr_identity = identity;
          pr_stats = (Pmem.Stats.copy stack.env.Pmem.Env.stats, s0);
        })
      profile_specs
  in
  let section_total r = List.fold_left (fun a (_, v) -> a +. v) 0. r.pr_breakdown in
  let per_op r v = v /. float_of_int r.pr_ops in
  let cell r v =
    let t = section_total r in
    let pct = if t > 0. then 100. *. v /. t else 0. in
    if v = 0. then "-" else Printf.sprintf "%s (%s%%)" (Runner.f0 (per_op r v)) (Runner.f1 pct)
  in
  let cat_rows =
    List.filter_map
      (fun c ->
        let vals = List.map (fun r -> List.assoc c r.pr_breakdown) rows in
        if List.for_all (fun v -> v = 0.) vals then None
        else Some (Obs.cat_name c :: List.map2 cell rows vals))
      Obs.all_cats
  in
  let summary label f = label :: List.map (fun r -> Runner.f0 (per_op r (f r))) rows in
  let text =
    Runner.table
      ~title:
        "Overhead attribution: ns/op (% of total), 4K appends + fsync/10 + read-back"
      ("category" :: List.map (fun r -> name r.pr_spec) rows)
      (cat_rows
      @ [
          summary "TOTAL" section_total;
          summary "software overhead" (fun r ->
              section_total r -. List.assoc Obs.Media r.pr_breakdown);
        ])
    ^ String.concat ""
        (List.map
           (fun r ->
             let att, acc = r.pr_identity in
             Printf.sprintf "  identity %-16s attributed %.0f ns = accountable %.0f ns\n"
               (name r.pr_spec) att acc)
           rows)
    ^ "\n"
    ^ String.concat ""
        (List.filter_map
           (fun r ->
             if r.pr_spec = Ext4_dax || r.pr_spec = Splitfs_posix then
               Some
                 (Printf.sprintf "PM activity during workload (%s):\n" (name r.pr_spec)
                 ^ Fmt.str "%a@." Pmem.Stats.pp_delta r.pr_stats)
             else None)
           rows)
  in
  let points =
    List.concat_map
      (fun r ->
        List.filter_map
          (fun (cat, ns) ->
            if ns = 0. then None
            else
              Some
                (B.sim_ns
                   (Printf.sprintf "profile/%s/%s" (name r.pr_spec) (Obs.cat_name cat))
                   (per_op r ns)))
          r.pr_breakdown)
      rows
  in
  { Runner.value = rows; text; points }

(* ------------------------------------------------------------------ *)
(* Latency: per-(stack x op) percentiles from the obs histograms (§5f)  *)
(* ------------------------------------------------------------------ *)

type latency_row = {
  lat_spec : spec;
  lat_op : string;
  lat_n : int;
  lat_p50 : float;
  lat_p90 : float;
  lat_p99 : float;
  lat_p999 : float;
}

(** Tail latency per operation type on the profiling workload: each stack
    runs behind {!Instrument.fs}, which buckets every op's simulated
    latency into a log-scaled histogram keyed ["<stack>/<op>"]. The
    percentile spread shows what averages hide — e.g. ext4's p999 write
    absorbing a jbd2 commit, and SplitFS's flat write profile. The points
    [lat/<fs>/<op>/<pct>] carry every percentile in simulated ns. *)
let latency () =
  let rows =
    List.concat_map
      (fun spec ->
        let stack = make spec in
        let fs = Instrument.fs ~key:(name spec) stack.env stack.fs in
        let (_ : int) = profile_workload fs in
        let (_ : float * float) = Pmem.Env.check_identity stack.env in
        List.map
          (fun (key, h) ->
            let op =
              match String.index_opt key '/' with
              | Some i -> String.sub key (i + 1) (String.length key - i - 1)
              | None -> key
            in
            {
              lat_spec = spec;
              lat_op = op;
              lat_n = Obs.Hist.n h;
              lat_p50 = Obs.Hist.percentile h 50.;
              lat_p90 = Obs.Hist.percentile h 90.;
              lat_p99 = Obs.Hist.percentile h 99.;
              lat_p999 = Obs.Hist.percentile h 99.9;
            })
          (Obs.hists stack.env.Pmem.Env.obs))
      profile_specs
  in
  let pcts r =
    [ ("p50", r.lat_p50); ("p90", r.lat_p90); ("p99", r.lat_p99); ("p999", r.lat_p999) ]
  in
  let text =
    Runner.table
      ~title:"Latency percentiles per (stack x op), simulated ns"
      [ "stack"; "op"; "n"; "p50"; "p90"; "p99"; "p999" ]
      (List.map
         (fun r ->
           name r.lat_spec :: r.lat_op :: string_of_int r.lat_n
           :: List.map (fun (_, v) -> Runner.f0 v) (pcts r))
         rows)
  in
  let points =
    List.concat_map
      (fun r ->
        List.map
          (fun (label, v) ->
            B.sim_ns
              (Printf.sprintf "lat/%s/%s/%s" (name r.lat_spec) r.lat_op label)
              v)
          (pcts r))
      rows
  in
  { Runner.value = rows; text; points }

(* ------------------------------------------------------------------ *)
(* Scale-out serving tier: 10k actors, sharded namespace (§5h)          *)
(* ------------------------------------------------------------------ *)

let scale_specs = scaling_specs
let scale_counts = [ 16; 100; 1000; 10000 ]

(** The serving-tier workload's ops per actor at [nactors]: total fleet
    work held roughly constant as N grows, so a 10k-actor run stays
    tractable while each actor still runs a full open/serve/close
    lifecycle. *)
let scale_ops nactors = max 6 (60_000 / nactors)

(** "Why is p999 slow": for each (stack x op) with a captured tail
    exemplar, decompose the single slowest op into the attribution
    categories that paid for it. The rows answer the question a latency
    percentile can't: not {i how} slow the tail is but {i where} the
    nanoseconds of the worst op went. Empty when nothing was captured. *)
let forensics_table ~title stores =
  let rows =
    List.concat_map
      (fun (fo : Obs.span Obs.Forensics.t) ->
        List.filter_map
          (fun key ->
            match Obs.Forensics.exemplars fo key with
            | [] -> None
            | ex :: _ ->
                (* top categories of the worst op, largest share first *)
                let cats =
                  List.mapi (fun i c -> (c, ex.Obs.Forensics.ex_cats.(i))) Obs.all_cats
                  |> List.filter (fun (_, ns) -> ns > 0.)
                  |> List.sort (fun (_, a) (_, b) -> compare b a)
                in
                let total = List.fold_left (fun acc (_, ns) -> acc +. ns) 0. cats in
                let top =
                  List.filteri (fun i _ -> i < 3) cats
                  |> List.map (fun (c, ns) ->
                         Printf.sprintf "%s %.0f%%" (Obs.cat_name c)
                           (100. *. ns /. Float.max total 1e-9))
                  |> String.concat ", "
                in
                Some
                  [
                    key;
                    string_of_int (Obs.Forensics.total_ops fo key);
                    Runner.f0 ex.Obs.Forensics.ex_lat_ns;
                    top;
                  ])
          (Obs.Forensics.keys fo))
      stores
  in
  if rows = [] then ""
  else
    Runner.table ~title
      [ "stack/op"; "ops"; "worst ns"; "where the ns went" ]
      rows

(** Multi-tenant serving tier at N in {16, 100, 1k, 10k} actors across the
    six stacks: Zipf-skewed YCSB-style reads/updates against per-tenant
    shared data files plus TPC-C-style per-actor WAL appends
    ([Workloads.Multitenant]). Reports aggregate throughput and tail
    latency / SLO attainment per stack — the scale-out half of the
    software-overhead argument: U-Split keeps the data path in userspace
    while the sharded K-Split allocator and per-stream journal keep the
    kernel residue from serializing 10k actors. The points
    [scale10k/<fs>-<N>a] carry simulated ns/op, [.../p999] the tail and
    [.../slo] the attainment. *)
let scale ?(counts = scale_counts) ?jobs () =
  (* each (stack, N) cell is a self-contained simulation — own env, own
     fleet — so the grid fans over the domain pool; regrouping by spec in
     declaration order keeps the report independent of job count *)
  let cells =
    List.concat_map
      (fun spec -> List.map (fun n -> (spec, n)) counts)
      scale_specs
  in
  let cell_results =
    Array.of_list
      (Par.map ?jobs
         (fun _ (spec, n) ->
           (* tail forensics at the serving-tier sizes only: the small
              warm-up cells have no interesting tail and capture would
              just add host-side noise to the grid *)
           Multiclient.run_scale ~ops_per_actor:(scale_ops n)
             ~forensics:(n >= 1000) spec ~nactors:n)
         cells)
  in
  let ncounts = List.length counts in
  let results =
    List.mapi
      (fun si spec ->
        (spec, List.mapi (fun ci _ -> cell_results.((si * ncounts) + ci)) counts))
      scale_specs
  in
  let nmax = List.fold_left max 0 counts in
  let at_nmax rs =
    List.find_opt
      (fun (r : Multiclient.scale_result) -> r.Multiclient.sr_nactors = nmax)
      rs
  in
  let text =
    Runner.table
      ~title:"Scale-out: aggregate serving throughput (kops/s) vs actors"
      ("file system" :: List.map string_of_int counts)
      (List.map
         (fun (spec, rs) ->
           name spec
           :: List.map
                (fun (r : Multiclient.scale_result) ->
                  Runner.f1 r.Multiclient.sr_kops_per_s)
                rs)
         results)
    ^ Runner.table
        ~title:
          (Printf.sprintf
             "Scale-out: tail latency and SLO attainment at %d actors" nmax)
        [ "file system"; "tenants"; "p50 ns"; "p999 ns"; "SLO<100us"; "steals" ]
        (List.map
           (fun (spec, rs) ->
             let r = Option.get (at_nmax rs) in
             [
               name spec;
               string_of_int r.Multiclient.sr_tenants;
               Runner.f0 r.Multiclient.sr_p50_ns;
               Runner.f0 r.Multiclient.sr_p999_ns;
               Runner.f2 r.Multiclient.sr_slo_attainment;
               string_of_int r.Multiclient.sr_alloc_steals;
             ])
           results)
    ^ forensics_table
        ~title:
          (Printf.sprintf
             "Why is p999 slow: slowest-op decomposition at %d actors" nmax)
        (List.filter_map
           (fun (_, rs) ->
             Option.bind (at_nmax rs) (fun (r : Multiclient.scale_result) ->
                 r.Multiclient.sr_forensics))
           results)
  in
  let points =
    List.concat_map
      (fun (spec, rs) ->
        List.concat_map
          (fun (r : Multiclient.scale_result) ->
            let key =
              Printf.sprintf "scale10k/%s-%da" (name spec) r.Multiclient.sr_nactors
            in
            [
              B.sim_ns key
                (r.Multiclient.sr_makespan_ns
                /. float_of_int (max 1 r.Multiclient.sr_total_ops));
              B.sim_ns (key ^ "/p999") r.Multiclient.sr_p999_ns;
              B.point B.Sim_higher "fraction" (key ^ "/slo")
                r.Multiclient.sr_slo_attainment;
            ])
          rs)
      results
  in
  { Runner.value = (); text; points }

(* ------------------------------------------------------------------ *)
(* Timeline report: warmup vs steady state over virtual time (§5k)      *)
(* ------------------------------------------------------------------ *)

(** One serving-tier run with the virtual-time sampler on, folded into
    four equal slices of the run: per-window fleet throughput and the
    categories that dominated each slice. This is the question a single
    end-of-run number hides — whether the first slice (cold namespace,
    empty journal, unwarmed allocator groups) behaves like the rest.
    The value is the underlying [scale_result] (whose
    [sr_timeline]/[sr_forensics] the CLI exports as OpenMetrics/Perfetto). *)
let timeline_report ?spec ?(nactors = 1000) ?on_env () =
  let windows = 4 in
  let spec = match spec with Some s -> s | None -> List.hd scale_specs in
  let r =
    Multiclient.run_scale ~ops_per_actor:(scale_ops nactors) ?on_env
      ~timeline:true ~forensics:true spec ~nactors
  in
  let tl =
    match r.Multiclient.sr_timeline with
    | Some tl -> tl
    | None -> assert false (* ~timeline:true always attaches one *)
  in
  let series name = Obs.Timeline.samples tl name in
  let tenant_series =
    List.filter
      (fun n -> String.length n >= 6 && String.sub n 0 6 = "tenant")
      (Obs.Timeline.series_names tl)
    |> List.map series
  in
  let cat_series = List.map (fun c -> (c, series ("cat/" ^ Obs.cat_name c))) Obs.all_cats in
  (* the windows span the fleet: from its first spawn to the closing
     sample at its end (the makespan counts from the first spawn).
     Samples from the tenant set-up before the spawn fall in none. *)
  let t_hi =
    match tenant_series with
    | s :: _ when Array.length s > 0 ->
        let t, _, _ = s.(Array.length s - 1) in
        t
    | _ -> 0.
  in
  let t_lo = t_hi -. r.Multiclient.sr_makespan_ns in
  let span = Float.max (t_hi -. t_lo) 1e-9 in
  let win_of t =
    min (windows - 1) (int_of_float (float_of_int windows *. (t -. t_lo) /. span))
  in
  let sum_into acc samples =
    Array.iter
      (fun (t, delta, _) ->
        if t >= t_lo then acc.(win_of t) <- acc.(win_of t) +. delta)
      samples
  in
  let ops_w = Array.make windows 0. in
  List.iter (sum_into ops_w) tenant_series;
  let cats_w = Array.make_matrix windows Obs.ncats 0. in
  List.iter
    (fun (c, samples) ->
      let i = Obs.cat_index c in
      Array.iter
        (fun (t, delta, _) ->
          if t >= t_lo then begin
            let w = win_of t in
            cats_w.(w).(i) <- cats_w.(w).(i) +. delta
          end)
        samples)
    cat_series;
  let rows =
    List.init windows (fun w ->
        let lo = t_lo +. (span *. float_of_int w /. float_of_int windows) in
        let hi = t_lo +. (span *. float_of_int (w + 1) /. float_of_int windows) in
        (* the window's categories, largest first *)
        let top =
          List.map (fun c -> (c, cats_w.(w).(Obs.cat_index c))) Obs.all_cats
          |> List.filter (fun (_, ns) -> ns > 0.)
          |> List.sort (fun (_, a) (_, b) -> compare b a)
        in
        [
          (if w = 0 then "0 (warmup)" else string_of_int w);
          Printf.sprintf "%.0f-%.0f" lo hi;
          Runner.f0 ops_w.(w);
          Runner.f1 (ops_w.(w) /. Float.max (hi -. lo) 1e-9 *. 1e6);
          (List.filteri (fun i _ -> i < 3) top
          |> List.map (fun (c, ns) -> Printf.sprintf "%s %.0f" (Obs.cat_name c) ns)
          |> String.concat ", ");
        ])
  in
  let text =
    Runner.table
      ~title:
        (Printf.sprintf "Timeline: %s at %d actors, %d virtual-time windows"
           (name spec) nactors windows)
      [ "window"; "virtual ns"; "ops"; "kops/s"; "dominant categories" ]
      rows
  in
  { Runner.value = r; text; points = [] }

(* ------------------------------------------------------------------ *)
(* Dispatch overhead: event-heap vs reference min-scan (§5h)            *)
(* ------------------------------------------------------------------ *)

(** Host-side scheduler overhead: time [Sched.run] (binary event heap)
    against [Sched.run_reference] (the retained O(N) min-scan) driving the
    same N-actor pure-CPU fleet of 4 ops per actor, and check the
    dispatch traces are bit-identical while at it. This is host wall time
    per dispatch — the simulator's own software overhead, the quantity
    the event heap exists to shrink — so its [scale10k/dispatch/*] points
    are the host keys of the serving tier. The value is the heap's
    speedup. *)
let dispatch_bench ?(nactors = 10_000) () =
  let ops = 4 in
  let run_with runner =
    let env = Pmem.Env.create ~capacity:mb () in
    let s = Sched.create env in
    for i = 0 to nactors - 1 do
      ignore
        (Sched.spawn s
           ~name:(Printf.sprintf "d%d" i)
           ~step:(fun _ j ->
             if j >= ops then false
             else begin
               Pmem.Env.cpu env 100.;
               true
             end))
    done;
    let t0 = Sys.time () in
    runner s;
    let host = Sys.time () -. t0 in
    (host *. 1e9 /. float_of_int (Sched.dispatches s), s)
  in
  let heap_ns, s_heap = run_with Sched.run in
  let scan_ns, s_scan = run_with Sched.run_reference in
  if Sched.trace_hash s_heap <> Sched.trace_hash s_scan then
    failwith "dispatch_bench: heap and min-scan dispatch traces diverge";
  let dispatches = string_of_int (Sched.dispatches s_heap) in
  let speedup = if heap_ns > 0. then scan_ns /. heap_ns else infinity in
  let text =
    Runner.table
      ~title:
        (Printf.sprintf "Scheduler dispatch overhead, host ns/op (N=%d)"
           nactors)
      [ "dispatcher"; "dispatches"; "ns/dispatch"; "speedup" ]
      [
        [ "event heap"; dispatches; Runner.f0 heap_ns; Runner.f1 speedup ];
        [ "min-scan (ref)"; dispatches; Runner.f0 scan_ns; Runner.f1 1.0 ];
      ]
  in
  let points =
    [
      B.host_ns "scale10k/dispatch/heap_host_ns" heap_ns;
      B.host_ns "scale10k/dispatch/scan_host_ns" scan_ns;
      B.host_speedup "scale10k/dispatch/speedup" speedup;
    ]
  in
  { Runner.value = speedup; text; points }

(* ------------------------------------------------------------------ *)
(* Parallel campaign speedup: wall time vs worker domains (§5j)         *)
(* ------------------------------------------------------------------ *)

type par_row = {
  pb_campaign : string;
  pb_jobs : int;
  pb_wall_ns : float;  (** host wall-clock for the whole campaign *)
}

(** The four domain-parallel verification campaigns, at reduced budgets
    where the default would dominate the sweep. Each closure is a full
    campaign run at an explicit job count; results are ignored here —
    job-count invariance is pinned by the determinism tests, this sweep
    only measures wall time. *)
let par_campaigns =
  [
    ( "crashcheck",
      fun ~jobs -> ignore (Crashcheck.run ~samples:120 ~nops:24 ~jobs ()) );
    ( "faultcheck",
      fun ~jobs -> ignore (Faultcheck.run ~max_per_site:2 ~jobs ()) );
    ("litmus", fun ~jobs -> ignore Crashcheck.Litmus.(run_corpus ~jobs combos));
    ("minimize", fun ~jobs -> ignore (Crashcheck.Minimize.run ~jobs ()));
  ]

(** [campaign]'s wall time at [jobs] among [par_bench]'s rows. *)
let par_wall rows campaign jobs =
  (List.find (fun r -> r.pb_campaign = campaign && r.pb_jobs = jobs) rows)
    .pb_wall_ns

(** Host wall time of every verification campaign at 1, 2, 4 and 8 jobs:
    the headline evidence that fanning trials over domains buys real
    wall-clock. Wall time is host-dependent; the speedup columns are what
    should be compared across machines. The points
    [par/<campaign>/walltime-j<N>] carry the wall times and
    [par/<campaign>/speedup-j<N>] the speedups over one job. *)
let par_bench () =
  let jobs_list = [ 1; 2; 4; 8 ] in
  let rows =
    List.concat_map
      (fun (name, campaign) ->
        List.map
          (fun jobs ->
            let t0 = Unix.gettimeofday () in
            campaign ~jobs;
            let wall = Unix.gettimeofday () -. t0 in
            { pb_campaign = name; pb_jobs = jobs; pb_wall_ns = wall *. 1e9 })
          jobs_list)
      par_campaigns
  in
  let wall = par_wall rows in
  let text =
    Runner.table
      ~title:
        (Printf.sprintf
           "Campaign wall time (ms) and speedup vs 1 job (%d cores \
            recommended)"
           (Domain.recommended_domain_count ()))
      ("campaign"
      :: List.concat_map
           (fun j -> [ Printf.sprintf "j=%d" j; "speedup" ])
           jobs_list)
      (List.map
         (fun (name, _) ->
           name
           :: List.concat_map
                (fun j ->
                  let w = wall name j in
                  [
                    Runner.f1 (w /. 1e6);
                    (if w > 0. then Runner.f2 (wall name 1 /. w) else "-");
                  ])
                jobs_list)
         par_campaigns)
  in
  let points =
    List.concat_map
      (fun r ->
        let key what = Printf.sprintf "par/%s/%s-j%d" r.pb_campaign what r.pb_jobs in
        B.host_ns (key "walltime") r.pb_wall_ns
        :: (if r.pb_jobs = 1 then []
            else [ B.host_speedup (key "speedup") (wall r.pb_campaign 1 /. r.pb_wall_ns) ]))
      rows
  in
  { Runner.value = rows; text; points }
