(** An embedded SQL-style database (B+tree + WAL journal mode) running a
    TPC-C transaction mix — the paper's SQLite experiment in miniature.

    Run with: [dune exec examples/database.exe] *)

let run_on spec =
  let stack = Harness.Fs_config.make spec in
  let env = stack.Harness.Fs_config.env in
  let db = Apps.Waldb.open_ stack.Harness.Fs_config.fs "/tpcc.db" () in
  let cfg =
    {
      Workloads.Tpcc.transactions = 400;
      customers_per_district = 30;
      items = 200;
    }
  in
  Workloads.Tpcc.load db cfg;
  let t0 = Pmem.Env.now env in
  let r = Workloads.Tpcc.run db cfg in
  let t1 = Pmem.Env.now env in
  let total = Workloads.Tpcc.total r in
  Printf.printf
    "%-15s %6.1f tx/ms  (new-order %d, payment %d, order-status %d, delivery %d, stock-level %d)\n"
    (Harness.Fs_config.name spec)
    (float_of_int total /. ((t1 -. t0) /. 1e6))
    r.Workloads.Tpcc.new_orders r.Workloads.Tpcc.payments
    r.Workloads.Tpcc.order_statuses r.Workloads.Tpcc.deliveries
    r.Workloads.Tpcc.stock_levels;
  Apps.Waldb.close db

let () =
  print_endline "TPC-C mix on a B+tree database in WAL mode (simulated PM):";
  List.iter run_on
    [
      Harness.Fs_config.Ext4_dax;
      Harness.Fs_config.Pmfs;
      Harness.Fs_config.Splitfs_sync;
    ];
  print_endline "\nEvery transaction commit appends WAL frames and fsyncs;";
  print_endline "SplitFS turns those appends into user-space staged writes and";
  print_endline "the fsync into a relink (paper Figure 6, TPCC)."
