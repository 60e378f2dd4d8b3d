(** Failure injection and adversarial scenarios: ENOSPC behaviour, wear
    accounting, multi-instance isolation, fragmentation-induced huge-page
    failure (§4), and multi-file recovery interleavings. *)

let tc = Alcotest.test_case

let test_enospc_is_clean () =
  (* a tiny device: filling it must raise ENOSPC without corrupting what
     was already written *)
  let env, _kfs, sys = Util.make_kernel ~capacity:(8 * 1024 * 1024) () in
  let cfg =
    {
      (Util.small_splitfs_cfg Splitfs.Config.Posix) with
      Splitfs.Config.staging_files = 1;
      staging_size = 512 * 1024;
      oplog_size = 16 * 1024;
    }
  in
  let u = Splitfs.Usplit.mount ~cfg ~sys ~env ~instance:0 () in
  let fs = Splitfs.Usplit.as_fsapi u in
  Fsapi.Fs.write_file fs "/precious" "must survive";
  let fd = fs.open_ "/filler" Fsapi.Flags.create_rw in
  let chunk = Bytes.make 65536 'f' in
  let filled = ref 0 in
  (try
     for _ = 1 to 1000 do
       ignore (fs.write fd ~buf:chunk ~boff:0 ~len:65536);
       fs.fsync fd;
       incr filled
     done;
     Alcotest.fail "expected ENOSPC on a full device"
   with Fsapi.Errno.Error (Fsapi.Errno.ENOSPC, _) -> ());
  Alcotest.(check bool) "wrote something before filling" true (!filled > 10);
  Util.check_str "earlier data intact" "must survive"
    (Fsapi.Fs.read_file fs "/precious")

let test_wear_splitfs_vs_strata () =
  (* PM endurance (§2.1/§2.3): an append workload wears Strata's PM about
     twice as much as SplitFS because of the digest copy *)
  let payload = 256 * 1024 in
  let run_splitfs () =
    let env, _kfs, _sys, _u, fs =
      Util.make_splitfs ~mode:Splitfs.Config.Strict ()
    in
    let fd = fs.open_ "/w" Fsapi.Flags.create_rw in
    let buf = Bytes.make 4096 'w' in
    let w0 = Pmem.Device.total_wear env.Pmem.Env.dev in
    for _ = 1 to payload / 4096 do
      ignore (fs.write fd ~buf ~boff:0 ~len:4096)
    done;
    fs.fsync fd;
    fs.close fd;
    Pmem.Device.total_wear env.Pmem.Env.dev - w0
  in
  let run_strata () =
    let env = Util.make_env () in
    let s = Baselines.Strata.mkfs ~log_len:(128 * 1024) env in
    let fs = Baselines.Strata.as_fsapi s in
    let fd = fs.open_ "/w" Fsapi.Flags.create_rw in
    let buf = Bytes.make 4096 'w' in
    let w0 = Pmem.Device.total_wear env.Pmem.Env.dev in
    for _ = 1 to payload / 4096 do
      ignore (fs.write fd ~buf ~boff:0 ~len:4096)
    done;
    fs.fsync fd;
    Baselines.Strata.digest_all s;
    fs.close fd;
    Pmem.Device.total_wear env.Pmem.Env.dev - w0
  in
  let split_wear = run_splitfs () and strata_wear = run_strata () in
  Alcotest.(check bool)
    (Printf.sprintf "strata wear (%d) ~2x splitfs wear (%d)" strata_wear split_wear)
    true
    (float_of_int strata_wear > 1.5 *. float_of_int split_wear)

let test_two_strict_instances_isolated () =
  (* §3.7: U-Split instances are isolated; each has its own staging files
     and log, and staged data never leaks across instances *)
  let env, _kfs, sys = Util.make_kernel ~capacity:(64 * 1024 * 1024) () in
  let mk i =
    Splitfs.Usplit.mount
      ~cfg:(Util.small_splitfs_cfg Splitfs.Config.Strict)
      ~sys ~env ~instance:i ()
  in
  let ua = mk 0 and ub = mk 1 in
  let a = Splitfs.Usplit.as_fsapi ua and b = Splitfs.Usplit.as_fsapi ub in
  let fda = a.open_ "/a-file" Fsapi.Flags.create_rw in
  let fdb = b.open_ "/b-file" Fsapi.Flags.create_rw in
  Fsapi.Fs.write_string a fda (Util.pattern ~seed:1 5000);
  Fsapi.Fs.write_string b fdb (Util.pattern ~seed:2 5000);
  a.fsync fda;
  b.fsync fdb;
  Util.check_str "A's file" (Util.pattern ~seed:1 5000) (Fsapi.Fs.read_file a "/a-file");
  Util.check_str "B's file" (Util.pattern ~seed:2 5000) (Fsapi.Fs.read_file b "/b-file");
  (* separate logs: A's entries never land in B's log *)
  (match (Splitfs.Usplit.oplog ua, Splitfs.Usplit.oplog ub) with
  | Some la, Some lb ->
      Alcotest.(check bool) "distinct log files" true
        (Splitfs.Oplog.path la <> Splitfs.Oplog.path lb)
  | _ -> Alcotest.fail "both strict instances must have logs")

let test_crash_recovers_both_instances () =
  (* two strict instances with pending staged data; crash; each instance's
     log is replayed independently *)
  let env, _kfs, sys = Util.make_kernel ~capacity:(64 * 1024 * 1024) () in
  let mk i =
    Splitfs.Usplit.mount
      ~cfg:(Util.small_splitfs_cfg Splitfs.Config.Strict)
      ~sys ~env ~instance:i ()
  in
  let a = Splitfs.Usplit.as_fsapi (mk 0) and b = Splitfs.Usplit.as_fsapi (mk 1) in
  let fda = a.open_ "/xa" Fsapi.Flags.create_rw in
  let fdb = b.open_ "/xb" Fsapi.Flags.create_rw in
  Fsapi.Fs.write_string a fda "alpha instance data";
  Fsapi.Fs.write_string b fdb "beta instance data";
  Pmem.Device.crash env.Pmem.Env.dev;
  let ra = Splitfs.Recovery.recover ~sys ~env ~instance:0 in
  let rb = Splitfs.Recovery.recover ~sys ~env ~instance:1 in
  Alcotest.(check bool) "both replayed" true
    (ra.Splitfs.Recovery.entries_replayed > 0
    && rb.Splitfs.Recovery.entries_replayed > 0);
  let k = Kernelfs.Syscall.as_fsapi sys in
  Util.check_str "A recovered" "alpha instance data" (Fsapi.Fs.read_file k "/xa");
  Util.check_str "B recovered" "beta instance data" (Fsapi.Fs.read_file k "/xb")

let test_multi_file_interleaved_recovery () =
  (* interleave staged appends across three files, crash, recover: each
     file must contain exactly its own records in order *)
  let env, _kfs, sys, _u, fs = Util.make_splitfs ~mode:Splitfs.Config.Strict () in
  let fds =
    List.init 3 (fun i -> fs.open_ (Printf.sprintf "/il-%d" i) Fsapi.Flags.create_rw)
  in
  for round = 0 to 19 do
    List.iteri
      (fun i fd ->
        Fsapi.Fs.write_string fs fd (Printf.sprintf "f%d-r%02d;" i round))
      fds
  done;
  Pmem.Device.crash env.Pmem.Env.dev;
  ignore (Splitfs.Recovery.recover ~sys ~env ~instance:0);
  let k = Kernelfs.Syscall.as_fsapi sys in
  List.iteri
    (fun i _ ->
      let expect =
        String.concat "" (List.init 20 (fun r -> Printf.sprintf "f%d-r%02d;" i r))
      in
      Util.check_str
        (Printf.sprintf "file %d interleaving preserved" i)
        expect
        (Fsapi.Fs.read_file k (Printf.sprintf "/il-%d" i)))
    fds

let test_read_only_fd_rejections () =
  let _env, _kfs, _sys, _u, fs = Util.make_splitfs () in
  Fsapi.Fs.write_file fs "/ro" "data";
  let fd = fs.open_ "/ro" Fsapi.Flags.rdonly in
  let buf = Bytes.make 4 'x' in
  Alcotest.check_raises "pwrite on rdonly"
    (Fsapi.Errno.Error (Fsapi.Errno.EBADF, "pwrite"))
    (fun () -> ignore (fs.pwrite fd ~buf ~boff:0 ~len:4 ~at:0));
  let wfd = fs.open_ "/ro" Fsapi.Flags.wronly in
  Alcotest.check_raises "pread on wronly"
    (Fsapi.Errno.Error (Fsapi.Errno.EBADF, "pread"))
    (fun () -> ignore (fs.pread wfd ~buf ~boff:0 ~len:4 ~at:0));
  fs.close fd;
  fs.close wfd

let test_fragmentation_defeats_huge_pages () =
  (* §4: after create/delete churn fragments the device, fresh large
     allocations can no longer be 2 MB-aligned, so new mappings fall back
     to 4 KB faults — while the pre-allocated staging region keeps its
     huge mapping *)
  let env, kfs, sys = Util.make_kernel ~capacity:(32 * 1024 * 1024) () in
  let fs = Kernelfs.Syscall.as_fsapi sys in
  (* early, unfragmented: a 2 MB fallocate maps huge *)
  let early = fs.open_ "/early" Fsapi.Flags.create_rw in
  ignore (Kernelfs.Syscall.fallocate sys early ~off:0 ~len:(2 * 1024 * 1024));
  let m_early = Kernelfs.Syscall.mmap sys early ~off:0 ~len:(2 * 1024 * 1024) in
  Alcotest.(check bool) "early mapping is huge" true m_early.Kernelfs.Ext4.m_huge;
  (* churn: fill the device with small files, then delete every other one
     so all free space is in isolated 4K holes *)
  let created = ref 0 in
  (try
     for i = 0 to 9999 do
       Fsapi.Fs.write_file fs (Printf.sprintf "/churn-%04d" i)
         (String.make 4096 'c');
       created := i + 1
     done
   with Fsapi.Errno.Error (Fsapi.Errno.ENOSPC, _) -> ());
  Alcotest.(check bool) "device was filled" true (!created > 1000);
  for i = 0 to !created - 2 do
    if i mod 2 = 0 then fs.unlink (Printf.sprintf "/churn-%04d" i)
  done;
  Alcotest.(check bool) "free space is fragmented" true
    (Kernelfs.Alloc.fragmentation (Kernelfs.Ext4.allocator kfs) ~run:512 > 0.9);
  let late = fs.open_ "/late" Fsapi.Flags.create_rw in
  ignore (Kernelfs.Syscall.fallocate sys late ~off:0 ~len:(2 * 1024 * 1024));
  let m_late = Kernelfs.Syscall.mmap sys late ~off:0 ~len:(2 * 1024 * 1024) in
  Alcotest.(check bool) "late mapping cannot be huge" false
    m_late.Kernelfs.Ext4.m_huge;
  ignore env;
  fs.close early;
  fs.close late

let suite =
  [
    tc "ENOSPC is clean" `Quick test_enospc_is_clean;
    tc "wear: strata ~2x splitfs on appends" `Quick test_wear_splitfs_vs_strata;
    tc "two strict instances isolated" `Quick test_two_strict_instances_isolated;
    tc "crash recovers both instances" `Quick test_crash_recovers_both_instances;
    tc "multi-file interleaved recovery" `Quick test_multi_file_interleaved_recovery;
    tc "access-mode rejections" `Quick test_read_only_fd_rejections;
    tc "fragmentation defeats huge pages" `Quick test_fragmentation_defeats_huge_pages;
  ]
