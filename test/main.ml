let () =
  Alcotest.run "splitfs-repro"
    [
      ("pmem", Test_pmem.suite);
      ("device-diff", Test_device_diff.suite);
      ("fsapi", Test_fsapi.suite);
      ("alloc", Test_alloc.suite);
      ("extent-tree", Test_extent_tree.suite);
      ("ext4", Test_ext4.suite);
      ("splitfs", Test_splitfs.suite);
      ("baselines", Test_baselines.suite);
      ("oplog", Test_oplog.suite);
      ("crash", Test_crash.suite);
      ("crashcheck", Test_crashcheck.suite);
      ("clone", Test_clone.suite);
      ("litmus", Test_litmus.suite);
      ("apps", Test_apps.suite);
      ("workloads", Test_workloads.suite);
      ("faults", Test_faults.suite);
      ("faultplane", Test_faultplane.suite);
      ("process", Test_process.suite);
      ("experiments", Test_experiments.suite);
      ("par", Test_par.suite);
      ("sched", Test_sched.suite);
      ("obs", Test_obs.suite);
      ("benchdiff", Test_benchdiff.suite);
    ]
