(** Workload generators: determinism, distribution sanity, op-mix ratios,
    and end-to-end smoke runs of YCSB / TPC-C / varmail / utilities. *)

let tc = Alcotest.test_case

let test_rng_deterministic () =
  let a = Workloads.Rng.create 42 and b = Workloads.Rng.create 42 in
  for _ = 1 to 100 do
    Util.check_int "same stream" (Workloads.Rng.int a 1000) (Workloads.Rng.int b 1000)
  done;
  let c = Workloads.Rng.create 43 in
  let diff = ref false in
  for _ = 1 to 20 do
    if Workloads.Rng.int a 1000 <> Workloads.Rng.int c 1000 then diff := true
  done;
  Alcotest.(check bool) "different seeds differ" true !diff

let test_rng_uniformity () =
  let rng = Workloads.Rng.create 7 in
  let buckets = Array.make 10 0 in
  for _ = 1 to 10000 do
    let v = Workloads.Rng.int rng 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iter
    (fun c -> Alcotest.(check bool) (Printf.sprintf "bucket ~1000 (%d)" c) true (c > 700 && c < 1300))
    buckets

let test_zipf_skew () =
  let rng = Workloads.Rng.create 3 in
  let z = Workloads.Zipf.create 1000 in
  let counts = Hashtbl.create 64 in
  for _ = 1 to 20000 do
    let v = Workloads.Zipf.sample z rng in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 1000);
    Hashtbl.replace counts v (1 + Option.value ~default:0 (Hashtbl.find_opt counts v))
  done;
  let count k = Option.value ~default:0 (Hashtbl.find_opt counts k) in
  (* rank 0 must be far hotter than the mid ranks; top-10 should take a
     large share, as zipfian(0.99) implies *)
  Alcotest.(check bool) "head is hot" true (count 0 > 20000 / 20);
  let top10 = List.fold_left (fun acc k -> acc + count k) 0 [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] in
  Alcotest.(check bool)
    (Printf.sprintf "top-10 share > 25%% (%d)" top10)
    true
    (top10 > 20000 / 4)

let test_ycsb_mixes () =
  (* verify the read/write mix of each workload statistically *)
  let _env, _kfs, _sys, _u, fs = Util.make_splitfs ~capacity:(64 * 1024 * 1024) () in
  let lsm = Apps.Lsm.open_ fs "/mix" in
  let cfg =
    { Workloads.Ycsb.records = 200; operations = 1000; value_size = 64 }
  in
  ignore (Workloads.Ycsb.run lsm Workloads.Ycsb.Load cfg);
  let check_mix w ~reads_pct ~tolerance =
    let r = Workloads.Ycsb.run lsm w cfg in
    let total = float_of_int r.Workloads.Ycsb.ops_done in
    let reads = float_of_int r.Workloads.Ycsb.reads /. total *. 100. in
    Alcotest.(check bool)
      (Printf.sprintf "%s reads ~%d%% (got %.0f%%)" (Workloads.Ycsb.workload_name w) reads_pct reads)
      true
      (abs_float (reads -. float_of_int reads_pct) < tolerance)
  in
  check_mix Workloads.Ycsb.A ~reads_pct:50 ~tolerance:6.;
  check_mix Workloads.Ycsb.B ~reads_pct:95 ~tolerance:3.;
  check_mix Workloads.Ycsb.C ~reads_pct:100 ~tolerance:0.1;
  (* F does a read per op and a write for half of them *)
  let f = Workloads.Ycsb.run lsm Workloads.Ycsb.F cfg in
  Alcotest.(check bool) "F writes ~50%" true
    (abs_float (float_of_int f.Workloads.Ycsb.writes /. 1000. -. 0.5) < 0.06);
  let e = Workloads.Ycsb.run lsm Workloads.Ycsb.E cfg in
  Alcotest.(check bool) "E scans ~95%" true (e.Workloads.Ycsb.scans > 900);
  Apps.Lsm.close lsm

let test_ycsb_no_missing_keys () =
  let _env, _kfs, _sys, _u, fs = Util.make_splitfs ~capacity:(64 * 1024 * 1024) () in
  let lsm = Apps.Lsm.open_ fs "/complete" in
  let cfg =
    { Workloads.Ycsb.records = 300; operations = 600; value_size = 64 }
  in
  ignore (Workloads.Ycsb.run lsm Workloads.Ycsb.Load cfg);
  let r = Workloads.Ycsb.run lsm Workloads.Ycsb.A cfg in
  Util.check_int "every read found its key" 0 r.Workloads.Ycsb.not_found;
  Apps.Lsm.close lsm

let test_tpcc_mix () =
  let _env, _kfs, _sys, _u, fs = Util.make_splitfs ~capacity:(64 * 1024 * 1024) () in
  let db = Apps.Waldb.open_ fs "/t.db" () in
  let cfg =
    {
      Workloads.Tpcc.transactions = 400;
      customers_per_district = 20;
      items = 100;
    }
  in
  Workloads.Tpcc.load db cfg;
  let r = Workloads.Tpcc.run db cfg in
  Util.check_int "all transactions ran" 400 (Workloads.Tpcc.total r);
  (* the standard mix: ~45% new-order, ~43% payment *)
  Alcotest.(check bool)
    (Printf.sprintf "new-order ~45%% (%d)" r.Workloads.Tpcc.new_orders)
    true
    (r.Workloads.Tpcc.new_orders > 140 && r.Workloads.Tpcc.new_orders < 220);
  Alcotest.(check bool)
    (Printf.sprintf "payment ~43%% (%d)" r.Workloads.Tpcc.payments)
    true
    (r.Workloads.Tpcc.payments > 130 && r.Workloads.Tpcc.payments < 215);
  Alcotest.(check bool) "some deliveries" true (r.Workloads.Tpcc.deliveries > 0);
  Apps.Waldb.close db

let test_varmail_measures () =
  let _env, _kfs, _sys, _u, fs = Util.make_splitfs ~capacity:(64 * 1024 * 1024) () in
  let env = _env in
  let lat = Workloads.Varmail.run fs ~now:(fun () -> Pmem.Env.now env) ~iterations:20 in
  Alcotest.(check bool) "open > 0" true (lat.Workloads.Varmail.open_ns > 0.);
  Alcotest.(check bool) "append > 0" true (lat.Workloads.Varmail.append_ns > 0.);
  Alcotest.(check bool) "fsync > append" true
    (lat.Workloads.Varmail.fsync_ns > lat.Workloads.Varmail.append_ns);
  (* all the varmail files were unlinked *)
  let _env2, _k, sys = Util.make_kernel () in
  ignore sys;
  Alcotest.(check bool) "cleanup" true (not (Fsapi.Fs.exists fs "/varmail-0"))

let test_utilities_run () =
  let _env, _kfs, _sys, _u, fs = Util.make_splitfs ~capacity:(64 * 1024 * 1024) () in
  let paths = Workloads.Utility.make_tree fs ~root:"/src" ~files:50 ~seed:1 in
  Util.check_int "tree size" 50 (List.length paths);
  let g = Workloads.Utility.git fs ~root:"/src" ~paths ~commits:3 ~seed:2 in
  Alcotest.(check bool) "git wrote objects" true (g.Workloads.Utility.files > 0);
  let t = Workloads.Utility.tar fs ~paths ~archive:"/b.tar" in
  Util.check_int "tar covered all files" 50 t.Workloads.Utility.files;
  Alcotest.(check bool) "archive exists" true
    (Fsapi.Fs.file_size fs "/b.tar" > t.Workloads.Utility.bytes - 200);
  let r = Workloads.Utility.rsync fs ~paths ~src_root:"/src" ~dst_root:"/dst" in
  Util.check_int "rsync copied all" 50 r.Workloads.Utility.files;
  (* spot-check one copied file *)
  let p = List.nth paths 17 in
  let rel = String.sub p 4 (String.length p - 4) in
  Util.check_str "copy identical" (Fsapi.Fs.read_file fs p)
    (Fsapi.Fs.read_file fs ("/dst" ^ rel))

let test_iopattern_ops_counted () =
  let _env, _kfs, _sys, _u, fs = Util.make_splitfs ~capacity:(64 * 1024 * 1024) () in
  let cfg =
    { Workloads.Iopattern.default_config with Workloads.Iopattern.file_size = 1024 * 1024 }
  in
  Workloads.Iopattern.prepare fs cfg;
  List.iter
    (fun p ->
      Util.check_int
        (Workloads.Iopattern.pattern_name p)
        256
        (Workloads.Iopattern.run fs cfg p))
    Workloads.Iopattern.[ Seq_read; Rand_read; Seq_write; Rand_write; Append ]

let suite =
  [
    tc "rng determinism" `Quick test_rng_deterministic;
    tc "rng uniformity" `Quick test_rng_uniformity;
    tc "zipfian skew" `Quick test_zipf_skew;
    tc "ycsb op mixes" `Quick test_ycsb_mixes;
    tc "ycsb finds every key" `Quick test_ycsb_no_missing_keys;
    tc "tpcc transaction mix" `Quick test_tpcc_mix;
    tc "varmail measures latencies" `Quick test_varmail_measures;
    tc "utility workloads" `Quick test_utilities_run;
    tc "iopattern op counts" `Quick test_iopattern_ops_counted;
  ]
