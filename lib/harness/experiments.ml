(** One function per table/figure of the paper's evaluation. Every function
    prints a paper-style table and returns its measurements so tests can
    assert the expected shapes (who wins, by roughly what factor).

    Absolute numbers come from the simulation's cost model (see
    [Pmem.Timing]); the paper's published values are printed alongside
    where the paper gives them. *)

open Fs_config

let mb = 1024 * 1024

(* the paper's media baseline: writing 4 KB to PM takes 671 ns (§1) *)
let media_4k = 671.

(* ------------------------------------------------------------------ *)
(* Table 1: software overhead of a 4 KB append                          *)
(* ------------------------------------------------------------------ *)

type table1_row = {
  t1_fs : string;
  t1_append_ns : float;
  t1_overhead_ns : float;
  t1_overhead_pct : float;
}

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

let table1_specs =
  [
    (Ext4_dax, Some (9002., 8331., 1241.));
    (Pmfs, Some (4150., 3479., 518.));
    (Nova_strict, Some (3021., 2350., 350.));
    (Splitfs_strict, Some (1251., 580., 86.));
    (Splitfs_posix, Some (1160., 488., 73.));
  ]

let table1 ?(total_mb = 16) ?(print = true) () =
  let rows =
    List.map
      (fun (spec, _) ->
        let stack = make spec in
        let m = append_bench stack ~total_bytes:(total_mb * mb) in
        let per_op = Runner.ns_per_op m in
        {
          t1_fs = name spec;
          t1_append_ns = per_op;
          t1_overhead_ns = per_op -. media_4k;
          t1_overhead_pct = (per_op -. media_4k) /. media_4k *. 100.;
        })
      table1_specs
  in
  if print then
    Runner.print_table ~title:"Table 1: software overhead of a 4K append"
      [ "file system"; "append (ns)"; "overhead (ns)"; "overhead (%)";
        "paper append"; "paper overhead" ]
      (List.map2
         (fun r (_, paper) ->
           let pa, po =
             match paper with
             | Some (a, o, _) -> (Runner.f0 a, Runner.f0 o)
             | None -> ("-", "-")
           in
           [
             r.t1_fs;
             Runner.f0 r.t1_append_ns;
             Runner.f0 r.t1_overhead_ns;
             Runner.f0 r.t1_overhead_pct ^ "%";
             pa;
             po;
           ])
         rows table1_specs);
  rows

(* ------------------------------------------------------------------ *)
(* Table 2: PM performance characteristics                              *)
(* ------------------------------------------------------------------ *)

let table2 ?(print = true) () =
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
  if print then
    Runner.print_table ~title:"Table 2: PM performance characteristics"
      [ "property"; "measured"; "paper / target" ]
      (List.map (fun (p, m, t) -> [ p; Runner.f1 m; Runner.f1 t ]) rows);
  rows

(* ------------------------------------------------------------------ *)
(* Table 6: system call latencies (varmail microbenchmark)              *)
(* ------------------------------------------------------------------ *)

let table6 ?(iterations = 200) ?(print = true) () =
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
  if print then begin
    let us x = Runner.f2 (x /. 1000.) in
    Runner.print_table ~title:"Table 6: system call latency (us), varmail sequence"
      ("syscall" :: List.map fst rows)
      (List.map
         (fun (label, get) ->
           label :: List.map (fun (_, l) -> us (get l)) rows)
         [
           ("open", fun l -> l.Workloads.Varmail.open_ns);
           ("close", fun l -> l.Workloads.Varmail.close_ns);
           ("append", fun l -> l.Workloads.Varmail.append_ns);
           ("fsync", fun l -> l.Workloads.Varmail.fsync_ns);
           ("read", fun l -> l.Workloads.Varmail.read_ns);
           ("unlink", fun l -> l.Workloads.Varmail.unlink_ns);
         ])
  end;
  rows

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
    {
      Workloads.Ycsb.default_config with
      Workloads.Ycsb.records;
      operations;
      value_size = 1024;
    }
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

let table7 ?(records = 4000) ?(operations = 4000) ?(print = true) () =
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
  if print then
    Runner.print_table ~title:"Table 7: Strata vs SplitFS-strict (YCSB on LSM store)"
      [ "workload"; "strata kops/s"; "splitfs kops/s"; "splitfs/strata"; "paper" ]
      (List.map2
         (fun (w, s, p) paper ->
           [ w; Runner.f1 s; Runner.f1 p; Runner.f2 (p /. s) ^ "x"; paper ])
         rows
         [ "1.73x"; "1.76x"; "2.16x"; "2.14x"; "2.25x"; "2.03x"; "2.25x" ]);
  rows

(* ------------------------------------------------------------------ *)
(* Figure 3: contribution of each technique                             *)
(* ------------------------------------------------------------------ *)

let fig3 ?(total_mb = 16) ?(print = true) () =
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
  if print then begin
    let base_ow, base_ap =
      match rows with (_, ow, ap) :: _ -> (ow, ap) | [] -> (1., 1.)
    in
    Runner.print_table
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
  end;
  rows

(* ------------------------------------------------------------------ *)
(* Figure 4: IO patterns per guarantee group                            *)
(* ------------------------------------------------------------------ *)

let fig4_groups =
  [
    ("POSIX", Ext4_dax, [ Splitfs_posix ]);
    ("sync", Pmfs, [ Splitfs_sync ]);
    ("strict", Nova_strict, [ Strata; Splitfs_strict ]);
  ]

let fig4 ?(total_mb = 16) ?(print = true) () =
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
  if print then
    List.iter
      (fun (group, (bspec, bruns), cruns) ->
        Runner.print_table
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
      results;
  results

(* ------------------------------------------------------------------ *)
(* Figure 5: relative software overhead on applications                 *)
(* ------------------------------------------------------------------ *)

(** Software overhead = simulated time − ideal media time for the logical
    IO volume (§5.7's definition, with the ideal modelled from the
    workload's logical reads/writes). *)
let software_overhead (m : Runner.measurement) =
  m.Runner.sim_ns -. m.Runner.media_ns

let fig5_groups =
  [
    ("POSIX", [ Ext4_dax ], Splitfs_posix);
    ("sync", [ Pmfs; Nova_relaxed ], Splitfs_sync);
    ("strict", [ Nova_strict ], Splitfs_strict);
  ]

let fig5 ?(records = 3000) ?(operations = 3000) ?(print = true) () =
  let ycsb_load_run spec =
    let stack = make spec in
    let series = ycsb_series stack ~records ~operations in
    let pick w = List.assq w series in
    ignore pick;
    let load = List.assoc Workloads.Ycsb.Load series in
    let runa = List.assoc Workloads.Ycsb.A series in
    (load, runa)
  in
  let tpcc_run spec =
    let stack = make spec in
    let db = Apps.Waldb.open_ stack.fs "/tpcc.db" () in
    let cfg =
      {
        Workloads.Tpcc.default_config with
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
  in
  let results =
    List.map
      (fun (group, others, split_spec) ->
        let all = others @ [ split_spec ] in
        let per_fs =
          List.map
            (fun spec ->
              let load, runa = ycsb_load_run spec in
              let tpcc = tpcc_run spec in
              (spec, [ ("LoadA", load); ("RunA", runa); ("TPCC", tpcc) ]))
            all
        in
        (group, per_fs))
      fig5_groups
  in
  if print then
    List.iter
      (fun (group, per_fs) ->
        let split_spec, split_runs = List.nth per_fs (List.length per_fs - 1) in
        Runner.print_table
          ~title:
            (Printf.sprintf
               "Figure 5 (%s mode): software overhead relative to %s" group
               (name split_spec))
          ("workload"
           :: List.concat_map (fun (spec, _) -> [ name spec ]) per_fs)
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
      results;
  results

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

let fig6 ?(records = 3000) ?(operations = 3000) ?(print = true) () =
  let app_suite spec =
    let stack = make spec in
    let ycsb = ycsb_series stack ~records ~operations in
    let redis = redis_run stack ~sets:operations in
    let tpcc_stack = make spec in
    let db = Apps.Waldb.open_ tpcc_stack.fs "/tpcc.db" () in
    let tcfg =
      {
        Workloads.Tpcc.default_config with
        Workloads.Tpcc.transactions = operations / 4;
        customers_per_district = 30;
        items = 200;
      }
    in
    Workloads.Tpcc.load db tcfg;
    let think () = Pmem.Env.cpu tpcc_stack.env 30000. in
    let tpcc =
      Runner.measure tpcc_stack "tpcc" (fun () ->
          Workloads.Tpcc.total (Workloads.Tpcc.run ~think db tcfg))
    in
    Apps.Waldb.close db;
    let util_stack = make spec in
    let utils = utility_run util_stack ~files:200 in
    (ycsb, redis, tpcc, utils)
  in
  let results =
    List.map
      (fun (group, base_spec, split_spec) ->
        (group, (base_spec, app_suite base_spec), (split_spec, app_suite split_spec)))
      fig6_groups
  in
  if print then
    List.iter
      (fun (group, (bspec, (bycsb, bredis, btpcc, butils)), (sspec, (sycsb, sredis, stpcc, sutils))) ->
        let row label (bm : Runner.measurement) (sm : Runner.measurement) ~higher_better =
          let b = Runner.kops bm and s = Runner.kops sm in
          let rel = if higher_better then s /. b else b /. s in
          [ label; Runner.f1 b; Runner.f1 s; Runner.f2 rel ^ "x" ]
        in
        Runner.print_table
          ~title:(Printf.sprintf "Figure 6 (%s mode): application performance" group)
          [ "workload"; name bspec ^ " kops/s"; name sspec ^ " kops/s"; "splitfs speedup" ]
          (List.map
             (fun (w, bm) ->
               let sm = List.assoc w sycsb in
               row (Workloads.Ycsb.workload_name w) bm sm ~higher_better:true)
             bycsb
          @ [ row "Redis-SET" bredis sredis ~higher_better:true ]
          @ [ row "TPCC" btpcc stpcc ~higher_better:true ]
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
      results;
  results

(* ------------------------------------------------------------------ *)
(* §5.3: recovery time vs number of valid log entries                   *)
(* ------------------------------------------------------------------ *)

let recovery ?(print = true) () =
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
  if print then
    Runner.print_table ~title:"Recovery time vs valid log entries (section 5.3)"
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
         rows);
  rows

(* ------------------------------------------------------------------ *)
(* Failure-atomic msync vs write-ahead logging                          *)
(* ------------------------------------------------------------------ *)

type fams_row = {
  fw_spec : spec;
  fw_app : string;  (** ["mmapdb-msync"] or ["pager-wal"] *)
  fw_commits : int;
  fw_p50_ns : float;
  fw_p99_ns : float;
  fw_recovery_ms : float;  (** simulated time to a consistent reopen *)
}

(** The workload failure-atomic msync exists for: an mmap-native page
    store ({!Apps.Mmapdb}) that updates pages in place and commits a
    transaction with one msync. On [Splitfs_fams] that commit is atomic,
    so the store needs no write-ahead log. Every other stack runs the
    same transaction stream through {!Apps.Pager}, which must write each
    page twice (WAL frame now, checkpoint later) and scan the log on
    open to get the same guarantee.

    Columns: per-commit simulated latency (p50/p99 over [ntx] commits of
    [pages_per_tx] dirty pages) and the simulated time from crash to a
    consistent reopen — SplitFS oplog replay where the stack has one,
    plus the application's own open (WAL scan-and-settle for the pager,
    a bare fstat for mmapdb). *)
let fams_vs_wal ?(ntx = 200) ?(pages_per_tx = 4) ?(npages = 64)
    ?(print = true) () =
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
    {
      fw_spec = spec;
      fw_app = (if is_fams then "mmapdb-msync" else "pager-wal");
      fw_commits = ntx;
      fw_p50_ns = percentile lat 50.;
      fw_p99_ns = percentile lat 99.;
      fw_recovery_ms = (replay_ns +. reopen_ns) /. 1e6;
    }
  in
  let rows =
    List.map run
      [ Splitfs_fams; Splitfs_strict; Splitfs_sync; Ext4_dax; Nova_relaxed ]
  in
  if print then
    Runner.print_table
      ~title:"Failure-atomic msync vs WAL (per-commit, simulated)"
      [ "stack"; "app"; "commits"; "p50 (ns)"; "p99 (ns)"; "recovery (ms)" ]
      (List.map
         (fun r ->
           [
             name r.fw_spec;
             r.fw_app;
             string_of_int r.fw_commits;
             Runner.f0 r.fw_p50_ns;
             Runner.f0 r.fw_p99_ns;
             Runner.f2 r.fw_recovery_ms;
           ])
         rows);
  rows

(* ------------------------------------------------------------------ *)
(* Ablations: the design choices discussed in paper sections 4 and 3.6  *)
(* ------------------------------------------------------------------ *)

type ablation_row = { ab_name : string; ab_variant : string; ab_kops : float }

(** Three ablations:
    - staging in DRAM vs PM (the authors tried DRAM staging and found the
      fsync-time copy overshadowed the cheaper staging, section 4);
    - huge pages on vs off (reads drop ~50% without huge pages, section 4);
    - mmap region size sweep (section 3.6 tunable). *)
let ablations ?(total_mb = 8) ?(print = true) () =
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
  if print then
    Runner.print_table ~title:"Ablations (paper sections 4 and 3.6)"
      [ "ablation"; "variant"; "kops/s" ]
      (List.map (fun r -> [ r.ab_name; r.ab_variant; Runner.f1 r.ab_kops ]) rows);
  rows

(* ------------------------------------------------------------------ *)
(* §5.10: resource consumption                                          *)
(* ------------------------------------------------------------------ *)

let resources ?(files = 500) ?(print = true) () =
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
  if print then begin
    Runner.print_table ~title:"Resource consumption (section 5.10)"
      [ "configuration"; "U-Split DRAM (KB)"; "background thread (% of run)" ]
      (List.map
         (fun (n, mem, bg) -> [ n; string_of_int (mem / 1024); Runner.f1 bg ^ "%" ])
         rows);
    (* host-side simulator internals: how often the device served an
       operation with the zero-dirty-lines fast path, and how deep the
       dirty-line set got (these do not affect simulated time) *)
    Runner.print_table ~title:"Simulator fast-path statistics (host-side)"
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
  end;
  rows

(* ------------------------------------------------------------------ *)
(* Crashcheck: crash-state exploration with a recovery oracle (§5d)     *)
(* ------------------------------------------------------------------ *)

(** Per-mode summary of crash states explored by {!Crashcheck}: how many
    legal states the workload's persist-order journal admits, how many
    were visited (exhaustive when the space fits the budget, seeded
    sampling otherwise), and any differential violations found. *)
let crashcheck ?(samples = 200) ?(seed = 0x51ED) ?(nops = 24) ?jobs
    ?(print = true) () =
  let reports = Crashcheck.run ~samples ~seed ~nops ?jobs () in
  if print then begin
    Runner.print_table ~title:"Crashcheck: crash states explored per mode"
      [ "mode"; "ops"; "crash points"; "legal states"; "explored"; "coverage"; "violations" ]
      (List.map
         (fun (r : Crashcheck.mode_report) ->
           [
             Splitfs.Config.mode_to_string r.Crashcheck.r_mode;
             string_of_int r.Crashcheck.r_ops;
             string_of_int r.Crashcheck.r_points;
             string_of_int r.Crashcheck.r_total_states;
             string_of_int r.Crashcheck.r_explored;
             (if r.Crashcheck.r_exhaustive then "exhaustive" else "sampled");
             string_of_int (List.length r.Crashcheck.r_violations);
           ])
         reports);
    List.iter
      (fun (r : Crashcheck.mode_report) ->
        List.iter
          (fun v -> Fmt.pr "%a@." Crashcheck.pp_violation v)
          r.Crashcheck.r_violations)
      reports
  end;
  reports

(* ------------------------------------------------------------------ *)
(* Faultcheck: fault-injection campaign with a differential oracle (§5g) *)
(* ------------------------------------------------------------------ *)

(** Per-stack summary of the {!Faultcheck} campaign: how every injected
    fault was absorbed (masked / retried / honest errno), plus the
    degradation-machinery counters, and any oracle violations found. *)
let faultcheck ?(seed = 0xFA17) ?(nops = 24) ?(max_per_site = 3) ?jobs
    ?(print = true) () =
  let reports = Faultcheck.run ~seed ~nops ~max_per_site ?jobs () in
  if print then begin
    Runner.print_table
      ~title:"Faultcheck: fault-injection outcomes per stack"
      [ "stack"; "trials"; "untriggered"; "masked"; "retried"; "errno"; "violations" ]
      (List.map
         (fun (r : Faultcheck.stack_report) ->
           [
             r.Faultcheck.s_stack;
             string_of_int r.Faultcheck.s_trials;
             string_of_int r.Faultcheck.s_untriggered;
             string_of_int r.Faultcheck.s_masked;
             string_of_int r.Faultcheck.s_retried;
             string_of_int r.Faultcheck.s_errno;
             string_of_int (List.length r.Faultcheck.s_violations);
           ])
         reports);
    Runner.print_table
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
         reports);
    List.iter
      (fun (r : Faultcheck.stack_report) ->
        List.iter
          (fun v -> Fmt.pr "%a@." Faultcheck.pp_violation v)
          r.Faultcheck.s_violations)
      reports
  end;
  reports

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
    exhaustive proof relative to the corpus). *)
let litmus ?(minimize = true) ?jobs ?(print = true) () =
  let runs =
    Crashcheck.Litmus.(run_corpus ?jobs combos)
  in
  if print then begin
    Runner.print_table
      ~title:"Litmus corpus: exhaustive crash-state exploration"
      [ "pattern"; "stack"; "contract"; "crash points"; "states"; "violations" ]
      (List.map
         (fun (r : Crashcheck.Litmus.run) ->
           [
             r.Crashcheck.Litmus.r_pattern;
             r.Crashcheck.Litmus.r_config;
             Crashcheck.Check.contract_name r.Crashcheck.Litmus.r_contract;
             string_of_int r.Crashcheck.Litmus.r_points;
             string_of_int r.Crashcheck.Litmus.r_states;
             string_of_int (List.length r.Crashcheck.Litmus.r_violations);
           ])
         runs);
    List.iter
      (fun (r : Crashcheck.Litmus.run) ->
        List.iter
          (fun v ->
            Fmt.pr "%s/%s: %a@." r.Crashcheck.Litmus.r_pattern
              r.Crashcheck.Litmus.r_config Crashcheck.Litmus.pp_violation v)
          r.Crashcheck.Litmus.r_violations)
      runs
  end;
  let verdicts = if minimize then Crashcheck.Minimize.run ?jobs () else [] in
  if print && minimize then begin
    Runner.print_table
      ~title:"Fence minimization: per-site verdicts (exhaustive elision)"
      [ "fence site"; "verdict"; "evidence" ]
      (List.map
         (fun (s : Crashcheck.Minimize.site_report) ->
           [
             s.Crashcheck.Minimize.s_name;
             Crashcheck.Minimize.verdict_name s.Crashcheck.Minimize.s_verdict;
             (match s.Crashcheck.Minimize.s_verdict with
             | Crashcheck.Minimize.Required { q_combo; _ } ->
                 "counterexample in " ^ q_combo
             | Crashcheck.Minimize.Redundant { q_combos; q_states } ->
                 Printf.sprintf "%d combos, %d states, all recover" q_combos
                   q_states
             | Crashcheck.Minimize.Unexercised ->
                 "outside every crash window");
           ])
         verdicts);
    List.iter
      (fun (s : Crashcheck.Minimize.site_report) ->
        match s.Crashcheck.Minimize.s_verdict with
        | Crashcheck.Minimize.Required { q_combo; q_violation } ->
            Fmt.pr "%s @@ %s: %a@." s.Crashcheck.Minimize.s_name q_combo
              Crashcheck.Litmus.pp_violation q_violation
        | _ -> ())
      verdicts
  end;
  (runs, verdicts)

type degraded_row = {
  dg_spec : spec;
  dg_variant : string;  (** ["healthy"] or ["degraded"] *)
  dg_n : int;
  dg_p50 : float;
  dg_p90 : float;
  dg_p99 : float;
}

(** Write latency with the staging pool starved: the same 200-append
    workload on a healthy SplitFS stack and on one where an origin-scoped
    sticky Alloc fault makes every staging pre-allocation fail, so each
    write takes the degraded kernel path instead. The percentile gap is
    the price of graceful degradation — service continues under resource
    exhaustion, at K-Split latency rather than with an ENOSPC. *)
let degraded_latency ?(print = true) () =
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
    {
      dg_spec = spec;
      dg_variant = (if degraded then "degraded" else "healthy");
      dg_n = nops;
      dg_p50 = pctl samples 50.;
      dg_p90 = pctl samples 90.;
      dg_p99 = pctl samples 99.;
    }
  in
  let rows =
    List.concat_map
      (fun (spec, mode) ->
        [ run spec mode ~degraded:false; run spec mode ~degraded:true ])
      modes
  in
  if print then
    Runner.print_table
      ~title:"Degraded-mode write latency (staging starved), simulated ns"
      [ "stack"; "variant"; "n"; "p50"; "p90"; "p99" ]
      (List.map
         (fun r ->
           [
             name r.dg_spec;
             r.dg_variant;
             string_of_int r.dg_n;
             Runner.f0 r.dg_p50;
             Runner.f0 r.dg_p90;
             Runner.f0 r.dg_p99;
           ])
         rows);
  rows

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
    concurrency half of the paper's software-overhead argument. *)
let scaling ?(print = true) () =
  let results =
    List.map
      (fun spec ->
        ( spec,
          List.map
            (fun n -> Multiclient.run spec ~nclients:n)
            scaling_counts ))
      scaling_specs
  in
  if print then begin
    Runner.print_table
      ~title:"Scaling: aggregate append throughput (kops/s) vs clients"
      ("file system"
      :: List.map (fun n -> Printf.sprintf "%d" n) scaling_counts)
      (List.map
         (fun (spec, rs) ->
           name spec
           :: List.map
                (fun (r : Multiclient.result) -> Runner.f1 r.Multiclient.kops_per_s)
                rs)
         results);
    Runner.print_table
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
  end;
  results

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
    U-Split CPU and log appends on top of near-bare media time. *)
let profile ?(print = true) () =
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
  if print then begin
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
    Runner.print_table
      ~title:
        "Overhead attribution: ns/op (% of total), 4K appends + fsync/10 + read-back"
      ("category" :: List.map (fun r -> name r.pr_spec) rows)
      (cat_rows
      @ [
          summary "TOTAL" section_total;
          summary "software overhead" (fun r ->
              section_total r -. List.assoc Obs.Media r.pr_breakdown);
        ]);
    List.iter
      (fun r ->
        let att, acc = r.pr_identity in
        Printf.printf "  identity %-16s attributed %.0f ns = accountable %.0f ns\n"
          (name r.pr_spec) att acc)
      rows;
    print_newline ();
    List.iter
      (fun r ->
        if r.pr_spec = Ext4_dax || r.pr_spec = Splitfs_posix then begin
          Printf.printf "PM activity during workload (%s):\n" (name r.pr_spec);
          Format.printf "%a@." Pmem.Stats.pp_delta r.pr_stats
        end)
      rows
  end;
  rows

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
    absorbing a jbd2 commit, and SplitFS's flat write profile. *)
let latency ?(print = true) () =
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
  if print then
    Runner.print_table
      ~title:"Latency percentiles per (stack x op), simulated ns"
      [ "stack"; "op"; "n"; "p50"; "p90"; "p99"; "p999" ]
      (List.map
         (fun r ->
           [
             name r.lat_spec;
             r.lat_op;
             string_of_int r.lat_n;
             Runner.f0 r.lat_p50;
             Runner.f0 r.lat_p90;
             Runner.f0 r.lat_p99;
             Runner.f0 r.lat_p999;
           ])
         rows);
  rows

(* ------------------------------------------------------------------ *)
(* Scale-out serving tier: 10k actors, sharded namespace (§5h)          *)
(* ------------------------------------------------------------------ *)

let scale_specs = scaling_specs
let scale_counts = [ 16; 100; 1000; 10000 ]

(** Total fleet work held roughly constant as N grows, so a 10k-actor run
    stays tractable while each actor still runs a full open/serve/close
    lifecycle. *)
let scale_ops_for nactors = max 6 (60_000 / nactors)

let scale_run ?timeline ?forensics spec ~nactors =
  let cfg =
    {
      Workloads.Multitenant.default_cfg with
      Workloads.Multitenant.ops_per_actor = scale_ops_for nactors;
    }
  in
  Multiclient.run_scale ~cfg ?timeline ?forensics spec ~nactors

(** "Why is p999 slow": for each (stack x op) with a captured tail
    exemplar, decompose the single slowest op into the attribution
    categories that paid for it. The rows answer the question a latency
    percentile can't: not {i how} slow the tail is but {i where} the
    nanoseconds of the worst op went. *)
let print_forensics_table ~title stores =
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
  if rows <> [] then
    Runner.print_table ~title
      [ "stack/op"; "ops"; "worst ns"; "where the ns went" ]
      rows

(** Multi-tenant serving tier at N in {16, 100, 1k, 10k} actors across the
    six stacks: Zipf-skewed YCSB-style reads/updates against per-tenant
    shared data files plus TPC-C-style per-actor WAL appends
    ([Workloads.Multitenant]). Reports aggregate throughput and tail
    latency / SLO attainment per stack — the scale-out half of the
    software-overhead argument: U-Split keeps the data path in userspace
    while the sharded K-Split allocator and per-stream journal keep the
    kernel residue from serializing 10k actors. *)
let scale ?(counts = scale_counts) ?jobs ?(print = true) () =
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
           scale_run ~forensics:(n >= 1000) spec ~nactors:n)
         cells)
  in
  let ncounts = List.length counts in
  let results =
    List.mapi
      (fun si spec ->
        (spec, List.mapi (fun ci _ -> cell_results.((si * ncounts) + ci)) counts))
      scale_specs
  in
  if print then begin
    Runner.print_table
      ~title:"Scale-out: aggregate serving throughput (kops/s) vs actors"
      ("file system" :: List.map (fun n -> Printf.sprintf "%d" n) counts)
      (List.map
         (fun (spec, rs) ->
           name spec
           :: List.map
                (fun (r : Multiclient.scale_result) ->
                  Runner.f1 r.Multiclient.sr_kops_per_s)
                rs)
         results);
    let nmax = List.fold_left max 0 counts in
    Runner.print_table
      ~title:
        (Printf.sprintf
           "Scale-out: tail latency and SLO attainment at %d actors" nmax)
      [ "file system"; "tenants"; "p50 ns"; "p999 ns"; "SLO<100us"; "steals" ]
      (List.map
         (fun (spec, rs) ->
           let r =
             List.find
               (fun (r : Multiclient.scale_result) ->
                 r.Multiclient.sr_nactors = nmax)
               rs
           in
           [
             name spec;
             string_of_int r.Multiclient.sr_tenants;
             Runner.f0 r.Multiclient.sr_p50_ns;
             Runner.f0 r.Multiclient.sr_p999_ns;
             Runner.f2 r.Multiclient.sr_slo_attainment;
             string_of_int r.Multiclient.sr_alloc_steals;
           ])
         results);
    let stores =
      List.filter_map
        (fun (_, rs) ->
          match
            List.find_opt
              (fun (r : Multiclient.scale_result) ->
                r.Multiclient.sr_nactors = nmax)
              rs
          with
          | Some r -> r.Multiclient.sr_forensics
          | None -> None)
        results
    in
    print_forensics_table
      ~title:
        (Printf.sprintf
           "Why is p999 slow: slowest-op decomposition at %d actors" nmax)
      stores
  end;
  results

(* ------------------------------------------------------------------ *)
(* Timeline report: warmup vs steady state over virtual time (§5k)      *)
(* ------------------------------------------------------------------ *)

type timeline_window = {
  tw_lo_ns : float;
  tw_hi_ns : float;
  tw_ops : float;  (** fleet ops completed inside the window *)
  tw_kops_per_s : float;
  tw_top_cats : (Obs.cat * float) list;  (** category ns, largest first *)
}

(** One serving-tier run with the virtual-time sampler on, folded into
    [windows] equal slices of the run: per-window fleet throughput and the
    categories that dominated each slice. This is the question a single
    end-of-run number hides — whether the first slice (cold namespace,
    empty journal, unwarmed allocator groups) behaves like the rest.
    Returns the windows and the underlying [scale_result] (whose
    [sr_timeline]/[sr_forensics] the CLI exports as OpenMetrics/Perfetto). *)
let timeline_report ?spec ?(nactors = 1000) ?(windows = 4) ?on_env
    ?(print = true) () =
  let spec = match spec with Some s -> s | None -> List.hd scale_specs in
  let cfg =
    {
      Workloads.Multitenant.default_cfg with
      Workloads.Multitenant.ops_per_actor = scale_ops_for nactors;
    }
  in
  let r =
    Multiclient.run_scale ~cfg ?on_env ~timeline:true ~forensics:true spec
      ~nactors
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
  (* window bounds span the retained samples; with widening on, that is
     the whole run *)
  let t_lo, t_hi =
    match tenant_series with
    | s :: _ when Array.length s > 0 ->
        let t3 (t, _, _) = t in
        (t3 s.(0), t3 s.(Array.length s - 1))
    | _ -> (0., 0.)
  in
  let span = Float.max (t_hi -. t_lo) 1e-9 in
  let win_of t =
    min (windows - 1)
      (max 0 (int_of_float (float_of_int windows *. (t -. t_lo) /. span)))
  in
  let sum_into acc samples =
    Array.iter (fun (t, delta, _) -> acc.(win_of t) <- acc.(win_of t) +. delta) samples
  in
  let ops_w = Array.make windows 0. in
  List.iter (sum_into ops_w) tenant_series;
  let cats_w = Array.make_matrix windows Obs.ncats 0. in
  List.iter
    (fun (c, samples) ->
      let i = Obs.cat_index c in
      Array.iter
        (fun (t, delta, _) ->
          let w = win_of t in
          cats_w.(w).(i) <- cats_w.(w).(i) +. delta)
        samples)
    cat_series;
  let result =
    List.init windows (fun w ->
        let lo = t_lo +. (span *. float_of_int w /. float_of_int windows) in
        let hi = t_lo +. (span *. float_of_int (w + 1) /. float_of_int windows) in
        let top =
          List.map (fun c -> (c, cats_w.(w).(Obs.cat_index c))) Obs.all_cats
          |> List.filter (fun (_, ns) -> ns > 0.)
          |> List.sort (fun (_, a) (_, b) -> compare b a)
        in
        {
          tw_lo_ns = lo;
          tw_hi_ns = hi;
          tw_ops = ops_w.(w);
          tw_kops_per_s = ops_w.(w) /. Float.max (hi -. lo) 1e-9 *. 1e6;
          tw_top_cats = top;
        })
  in
  if print then
    Runner.print_table
      ~title:
        (Printf.sprintf "Timeline: %s at %d actors, %d virtual-time windows"
           (name spec) nactors windows)
      [ "window"; "virtual ns"; "ops"; "kops/s"; "dominant categories" ]
      (List.mapi
         (fun w tw ->
           [
             (if w = 0 then "0 (warmup)" else string_of_int w);
             Printf.sprintf "%.0f-%.0f" tw.tw_lo_ns tw.tw_hi_ns;
             Runner.f0 tw.tw_ops;
             Runner.f1 tw.tw_kops_per_s;
             (List.filteri (fun i _ -> i < 3) tw.tw_top_cats
             |> List.map (fun (c, ns) -> Printf.sprintf "%s %.0f" (Obs.cat_name c) ns)
             |> String.concat ", ");
           ])
         result);
  (result, r)

(* ------------------------------------------------------------------ *)
(* Dispatch overhead: event-heap vs reference min-scan (§5h)            *)
(* ------------------------------------------------------------------ *)

type dispatch_result = {
  db_nactors : int;
  db_dispatches : int;
  db_heap_ns_per_dispatch : float;
  db_scan_ns_per_dispatch : float;
  db_speedup : float;
}

(** Host-side scheduler overhead: time [Sched.run] (binary event heap)
    against [Sched.run_reference] (the retained O(N) min-scan) driving the
    same N-actor pure-CPU fleet, and check the dispatch traces are
    bit-identical while at it. This is host wall time per dispatch — the
    simulator's own software overhead, the quantity the event heap exists
    to shrink. *)
let dispatch_bench ?(nactors = 10_000) ?(ops = 4) ?(print = true) () =
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
  let r =
    {
      db_nactors = nactors;
      db_dispatches = Sched.dispatches s_heap;
      db_heap_ns_per_dispatch = heap_ns;
      db_scan_ns_per_dispatch = scan_ns;
      db_speedup = (if heap_ns > 0. then scan_ns /. heap_ns else infinity);
    }
  in
  if print then
    Runner.print_table
      ~title:
        (Printf.sprintf "Scheduler dispatch overhead, host ns/op (N=%d)"
           nactors)
      [ "dispatcher"; "dispatches"; "ns/dispatch"; "speedup" ]
      [
        [
          "event heap";
          string_of_int r.db_dispatches;
          Runner.f0 r.db_heap_ns_per_dispatch;
          Runner.f1 r.db_speedup;
        ];
        [
          "min-scan (ref)";
          string_of_int r.db_dispatches;
          Runner.f0 r.db_scan_ns_per_dispatch;
          Runner.f1 1.0;
        ];
      ];
  r

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

(** Host wall time of every verification campaign at each job count in
    [jobs_list]: the headline evidence that fanning trials over domains
    buys real wall-clock, and the input to the BENCH_PR*.json
    [par/<campaign>/walltime-j<N>] trajectory entries. Wall time is
    host-dependent; the speedup columns are what should be compared
    across machines. *)
let par_bench ?(jobs_list = [ 1; 2; 4; 8 ]) ?(print = true) () =
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
  if print then begin
    let wall = par_wall rows in
    Runner.print_table
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
           let base = wall name (List.hd jobs_list) in
           name
           :: List.concat_map
                (fun j ->
                  let w = wall name j in
                  [
                    Runner.f1 (w /. 1e6);
                    (if w > 0. then Runner.f2 (base /. w) else "-");
                  ])
                jobs_list)
         par_campaigns)
  end;
  rows
