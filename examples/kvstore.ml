(** A LevelDB-style key-value store running a small YCSB mix on SplitFS,
    with ext4 DAX alongside for comparison — the paper's headline
    application experiment in miniature.

    Run with: [dune exec examples/kvstore.exe] *)

let run_on spec =
  let stack = Harness.Fs_config.make spec in
  let fs = stack.Harness.Fs_config.fs in
  let lsm = Apps.Lsm.open_ fs "/db" in
  let cfg =
    {
      Workloads.Ycsb.records = 2000;
      operations = 2000;
      value_size = 512;
    }
  in
  let t0 = Pmem.Env.now stack.Harness.Fs_config.env in
  ignore (Workloads.Ycsb.run lsm Workloads.Ycsb.Load cfg);
  let t1 = Pmem.Env.now stack.Harness.Fs_config.env in
  let result = Workloads.Ycsb.run lsm Workloads.Ycsb.A cfg in
  let t2 = Pmem.Env.now stack.Harness.Fs_config.env in
  let flushes, compactions, l0, l1 = Apps.Lsm.stats lsm in
  Printf.printf
    "%-15s load: %6.1f kops/s   runA: %6.1f kops/s   (flushes %d, compactions %d, L0 %d, L1 %d)\n"
    (Harness.Fs_config.name spec)
    (float_of_int cfg.Workloads.Ycsb.records /. ((t1 -. t0) /. 1e6))
    (float_of_int result.Workloads.Ycsb.ops_done /. ((t2 -. t1) /. 1e6))
    flushes compactions l0 l1;
  Apps.Lsm.close lsm

let () =
  print_endline "YCSB Load + Run A on an LSM key-value store (simulated PM):";
  List.iter run_on
    [
      Harness.Fs_config.Ext4_dax;
      Harness.Fs_config.Nova_strict;
      Harness.Fs_config.Splitfs_strict;
    ];
  print_endline "\nSplitFS serves the WAL appends in user space and relinks on";
  print_endline "fsync, which is where the speedup over the kernel file systems";
  print_endline "comes from (paper Figure 6)."
