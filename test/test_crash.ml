(** Crash consistency and recovery (paper §3.2 Table 3, §5.3).

    Crash = drop all unflushed cache lines (the device's dirty lines) and
    discard all U-Split volatile state; kernel metadata survives because
    every kernel operation commits its journal transaction before
    returning. Recovery = ext4 journal recovery (implicit) + operation-log
    replay ({!Splitfs.Recovery}). *)

let tc = Alcotest.test_case

(** Build a splitfs stack, run [work] against it, crash, recover, and hand
    a fresh post-crash kernel view to [check]. *)
let crash_scenario ~mode work check =
  let env, kfs, sys, u, fs = Util.make_splitfs ~mode () in
  work u fs;
  Pmem.Device.crash env.Pmem.Env.dev;
  (* all U-Split DRAM state (fd table, shadows, tails) dies with the crash;
     only [sys]'s durable kernel state and the device remain *)
  let report = Splitfs.Recovery.recover ~sys ~env ~instance:0 in
  check report (Kernelfs.Syscall.as_fsapi sys);
  ignore kfs

let kread fs path = Fsapi.Fs.read_file fs path

let test_strict_appends_survive_crash_without_fsync () =
  crash_scenario ~mode:Splitfs.Config.Strict
    (fun _u fs ->
      let fd = fs.open_ "/wal" Fsapi.Flags.create_rw in
      for i = 0 to 9 do
        Fsapi.Fs.write_string fs fd (Util.pattern ~seed:i 1000)
      done
      (* no fsync, no close: strict mode still makes each append atomic,
         synchronous and durable *))
    (fun report fs ->
      Alcotest.(check bool) "entries replayed" true (report.Splitfs.Recovery.entries_replayed > 0);
      let expect =
        String.concat "" (List.init 10 (fun i -> Util.pattern ~seed:i 1000))
      in
      Util.check_str "all appends recovered" expect (kread fs "/wal"))

let test_sync_appends_survive_crash () =
  crash_scenario ~mode:Splitfs.Config.Sync
    (fun _u fs ->
      let fd = fs.open_ "/s" Fsapi.Flags.create_rw in
      Fsapi.Fs.write_string fs fd (String.make 5000 'q'))
    (fun _report fs ->
      Util.check_str "synchronous appends durable" (String.make 5000 'q')
        (kread fs "/s"))

let test_posix_unsynced_appends_lost () =
  crash_scenario ~mode:Splitfs.Config.Posix
    (fun _u fs ->
      let fd = fs.open_ "/p" Fsapi.Flags.create_rw in
      Fsapi.Fs.write_string fs fd "vanishes")
    (fun report fs ->
      (* POSIX appends need an fsync; without one the file exists (create
         was a kernel op) but is empty after recovery *)
      Util.check_int "nothing to replay" 0 report.Splitfs.Recovery.entries_replayed;
      Util.check_str "no data" "" (kread fs "/p"))

let test_posix_fsynced_appends_survive () =
  crash_scenario ~mode:Splitfs.Config.Posix
    (fun _u fs ->
      let fd = fs.open_ "/pf" Fsapi.Flags.create_rw in
      Fsapi.Fs.write_string fs fd "persisted";
      fs.fsync fd)
    (fun _report fs -> Util.check_str "survived" "persisted" (kread fs "/pf"))

let test_strict_overwrite_survives () =
  crash_scenario ~mode:Splitfs.Config.Strict
    (fun _u fs ->
      Fsapi.Fs.write_file fs "/ow" (String.make 8192 'o');
      let fd = fs.open_ "/ow" Fsapi.Flags.rdwr in
      fs.fsync fd;
      Fsapi.Fs.pwrite_string fs fd "MID" ~at:4000
      (* no fsync: strict overwrites are synchronous + atomic *))
    (fun _report fs ->
      let s = kread fs "/ow" in
      Util.check_str "overwrite present" "MID" (String.sub s 4000 3);
      Util.check_str "neighbours intact" "oo" (String.sub s 3998 2))

let test_relinked_entries_not_replayed () =
  crash_scenario ~mode:Splitfs.Config.Strict
    (fun _u fs ->
      let fd = fs.open_ "/done" Fsapi.Flags.create_rw in
      Fsapi.Fs.write_string fs fd "settled";
      fs.fsync fd)
    (fun report fs ->
      Util.check_int "nothing pending" 0 report.Splitfs.Recovery.entries_replayed;
      Util.check_str "data present" "settled" (kread fs "/done"))

let test_truncate_bounds_replay () =
  crash_scenario ~mode:Splitfs.Config.Strict
    (fun _u fs ->
      let fd = fs.open_ "/tb" Fsapi.Flags.create_rw in
      Fsapi.Fs.write_string fs fd (String.make 6000 'a');
      fs.ftruncate fd 2000)
    (fun _report fs ->
      let s = kread fs "/tb" in
      Util.check_int "truncated length" 2000 (String.length s);
      Alcotest.(check bool) "content" true (String.for_all (fun c -> c = 'a') s))

let test_unlink_cancels_replay () =
  crash_scenario ~mode:Splitfs.Config.Strict
    (fun _u fs ->
      let fd = fs.open_ "/gone" Fsapi.Flags.create_rw in
      Fsapi.Fs.write_string fs fd "dead data";
      fs.close fd |> ignore;
      fs.unlink "/gone")
    (fun _report fs ->
      Alcotest.(check bool) "file stays deleted" false (Fsapi.Fs.exists fs "/gone"))

let test_replay_is_idempotent () =
  let env, _kfs, sys, _u, fs = Util.make_splitfs ~mode:Splitfs.Config.Strict () in
  let fd = fs.open_ "/idem" Fsapi.Flags.create_rw in
  Fsapi.Fs.write_string fs fd (Util.pattern ~seed:42 9000);
  Pmem.Device.crash env.Pmem.Env.dev;
  let r1 = Splitfs.Recovery.recover ~sys ~env ~instance:0 in
  let kfs_view = Kernelfs.Syscall.as_fsapi sys in
  let after1 = kread kfs_view "/idem" in
  (* crash again during/after recovery and recover once more *)
  Pmem.Device.crash env.Pmem.Env.dev;
  let r2 = Splitfs.Recovery.recover ~sys ~env ~instance:0 in
  let after2 = kread kfs_view "/idem" in
  Util.check_str "same state after double recovery" after1 after2;
  Alcotest.(check bool) "first replayed" true (r1.Splitfs.Recovery.entries_replayed > 0);
  Util.check_int "second recovery found clean log" 0 r2.Splitfs.Recovery.entries_scanned

(* Satellite: recovery idempotence at EVERY crash state of a publish
   window. The recovery process can itself die and re-run, so a double
   replay of the surviving op-log must land on the same bytes as a
   single replay — including the states where the crash hits mid-publish
   (fams: commit record persisted, relink not). Each state runs the
   workload on a fresh stack, crashes into it, recovers, crashes the
   recovered-but-idle device again, recovers once more and compares. *)
let test_double_replay_idempotent mode () =
  let module R = Crashcheck.Runner in
  let module E = Crashcheck.Explore in
  let w =
    {
      Crashcheck.Workload.mode;
      nfiles = 1;
      initial = [| 64 |];
      ops =
        [
          Crashcheck.Workload.Write { file = 0; at = 0; len = 256; seed = 7 };
          Crashcheck.Workload.Fsync { file = 0 };
          Crashcheck.Workload.Write { file = 0; at = 64; len = 128; seed = 8 };
        ];
    }
  in
  let trial ~(point : E.point) ~survivors =
    let st = Harness.Fs_config.make_small (Harness.Fs_config.of_mode mode) in
    let env = st.Harness.Fs_config.env in
    let sys = Option.get st.Harness.Fs_config.sys in
    let scratch = ref Bytes.empty in
    let fds = R.setup ~scratch w st.Harness.Fs_config.fs in
    let dev = env.Pmem.Env.dev in
    Pmem.Device.journal_begin dev;
    Pmem.Device.arm_crash dev ~fence:point.E.fence ~survivors;
    let cp () = Harness.Fs_config.checkpoint st in
    (try
       List.iter
         (R.apply ~scratch ~checkpoint:cp st.Harness.Fs_config.fs fds)
         w.Crashcheck.Workload.ops;
       (* armed fence past the last one: crash at end of trace *)
       Pmem.Device.crash_partial dev ~survivors
     with Pmem.Device.Crashed -> ());
    Pmem.Device.resume dev;
    Pmem.Device.journal_stop dev;
    ignore (Splitfs.Recovery.recover ~sys ~env ~instance:0);
    let after1 = R.read_back sys 0 in
    Pmem.Device.crash dev;
    let r2 = Splitfs.Recovery.recover ~sys ~env ~instance:0 in
    let after2 = R.read_back sys 0 in
    (after1, r2, after2)
  in
  let rng = Workloads.Rng.create 0x1DE8 in
  List.iter
    (fun (p : E.point) ->
      let states =
        if E.state_count p.E.pending <= 512 then E.enumerate p.E.pending
        else List.init 64 (fun _ -> E.sample rng p.E.pending)
      in
      List.iter
        (fun survivors ->
          let after1, r2, after2 = trial ~point:p ~survivors in
          Alcotest.(check bool)
            (Printf.sprintf "fence %d: double replay = single replay" p.E.fence)
            true (after1 = after2);
          Util.check_int
            (Printf.sprintf "fence %d: second recovery finds a settled log"
               p.E.fence)
            0 r2.Splitfs.Recovery.entries_replayed)
        states)
    (R.profile w)

(* A crash inside recovery. Recovery resets the op log once the replayed
   state is durable; a crash during that reset must leave a log the next
   recovery replays into the same legal state. Each case crashes the
   crashcheck workload of seed 0x51ED at workload fence [fence] with
   [survivors], then crashes its recovery at recovery fence [rfence] with
   the log's first two lines (device lines 40960 and 40961: slots 0 and
   1) reverted, recovers again and judges every file under the mode's
   contract. A reset that zeroes all slots under one fence keeps the
   stale slots 0-1 here while the zeroes behind them persist, and the
   second recovery replays that stale prefix. *)
let test_crash_inside_log_reset mode ~fence ~survivors ~rfence () =
  let module T = Crashcheck.Trial in
  let p =
    T.of_workload
      (Crashcheck.Workload.generate ~mode ~seed:0x51ED ~nops:24 ())
  in
  let spec = Harness.Fs_config.of_mode mode in
  let scratch = ref Bytes.empty in
  let s = T.start ~build:(fun () -> Harness.Fs_config.make_small spec) p in
  let m = T.mount ~scratch s p in
  let views, ostep = T.oracle ~scratch s.T.s_oracle p in
  let env = m.T.stack.Harness.Fs_config.env in
  let dev = env.Pmem.Env.dev in
  let sys = Option.get m.T.stack.Harness.Fs_config.sys in
  let line l = { Pmem.Device.s_line = l; s_keep = 0; s_tear = 0 } in
  let g =
    T.drive m ostep p ~faults:[]
      ~crash:
        (Some
           {
             T.contract = Crashcheck.Check.contract_of spec;
             point = { Crashcheck.Explore.fence; pending = [||] };
             survivors = List.map line survivors;
           })
  in
  let pre, post = T.crash_views g (views, ostep) p in
  Pmem.Device.journal_begin dev;
  Pmem.Device.arm_crash dev ~fence:rfence
    ~survivors:(List.map line [ 40960; 40961 ]);
  (match Splitfs.Recovery.recover ~sys ~env ~instance:0 with
  | _ -> Alcotest.fail "recovery finished before its armed fence"
  | exception Pmem.Device.Crashed -> ());
  Pmem.Device.resume dev;
  Pmem.Device.journal_stop dev;
  ignore (Splitfs.Recovery.recover ~sys ~env ~instance:0);
  let rfs = Kernelfs.Syscall.as_fsapi sys in
  Array.iteri
    (fun i path ->
      Alcotest.(check (option string))
        (path ^ ": legal after a crash inside recovery")
        None
        (Crashcheck.Check.check_file
           (Crashcheck.Check.contract_of spec)
           ~pre:pre.(i) ~post:post.(i) (T.read_back dev rfs path)))
    p.T.paths

let test_torn_tail_entry_skipped () =
  let env, _kfs, sys, _u, fs = Util.make_splitfs ~mode:Splitfs.Config.Strict () in
  let fd = fs.open_ "/torn" Fsapi.Flags.create_rw in
  Fsapi.Fs.write_string fs fd "good data!";
  (* simulate a torn final entry: garbage bytes after the valid entries *)
  (match Splitfs.Usplit.oplog _u with
  | Some log ->
      let used = Splitfs.Oplog.entries_written log * 64 in
      let kfd = Kernelfs.Syscall.open_ sys (Splitfs.Oplog.path log) Fsapi.Flags.rdwr in
      let junk = Bytes.make 17 '\xCD' in
      ignore (Kernelfs.Syscall.pwrite sys kfd ~buf:junk ~boff:0 ~len:17 ~at:used);
      Kernelfs.Syscall.close sys kfd
  | None -> Alcotest.fail "no oplog");
  Pmem.Device.crash env.Pmem.Env.dev;
  let report = Splitfs.Recovery.recover ~sys ~env ~instance:0 in
  Util.check_int "torn entry detected" 1 report.Splitfs.Recovery.torn_entries;
  Util.check_str "valid prefix replayed" "good data!"
    (kread (Kernelfs.Syscall.as_fsapi sys) "/torn")

(* The final data entry's staged bytes are checked against the CRC the
   entry carries: entry and data share one fence, so a crash can keep the
   entry and tear the data. One strict append makes both durable; with
   one staged byte flipped in the durable image the entry is dropped,
   intact it is replayed. *)
let final_entry_recovery ~flip =
  let env, kfs, sys, u, fs = Util.make_splitfs ~mode:Splitfs.Config.Strict () in
  let payload = Util.pattern ~seed:9 3000 in
  let fd = fs.open_ "/final" Fsapi.Flags.create_rw in
  Fsapi.Fs.write_string fs fd payload;
  let log =
    match Splitfs.Usplit.oplog u with
    | Some log -> log
    | None -> Alcotest.fail "no oplog"
  in
  let scan = Splitfs.Oplog.scan sys (Splitfs.Oplog.path log) in
  let op =
    match List.rev scan.Splitfs.Oplog.valid with
    | Splitfs.Oplog.Append op :: _ -> op
    | _ -> Alcotest.fail "the final log entry is not the append"
  in
  Util.check_int "entry covers the write" 3000 op.Splitfs.Oplog.len;
  let dev = env.Pmem.Env.dev in
  if flip then begin
    let staging = Kernelfs.Ext4.inode_of kfs op.Splitfs.Oplog.staging_ino in
    match
      Kernelfs.Ext4.device_addr kfs staging
        ~off:(op.Splitfs.Oplog.staging_off + 1234)
    with
    | Some addr ->
        let b = Pmem.Device.peek_persistent dev ~addr ~len:1 in
        Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x10));
        Pmem.Device.poke_persistent dev ~addr b ~off:0 ~len:1
    | None -> Alcotest.fail "staged byte not mapped"
  end;
  Pmem.Device.crash dev;
  let report = Splitfs.Recovery.recover ~sys ~env ~instance:0 in
  (report, kread (Kernelfs.Syscall.as_fsapi sys) "/final", payload)

let test_torn_final_data_dropped () =
  let report, data, _ = final_entry_recovery ~flip:true in
  Util.check_int "entry dropped" 1 report.Splitfs.Recovery.torn_data_entries;
  Util.check_int "nothing replayed" 0 report.Splitfs.Recovery.entries_replayed;
  Util.check_str "file keeps its pre-write content" "" data

let test_intact_final_data_replayed () =
  let report, data, payload = final_entry_recovery ~flip:false in
  Util.check_int "no entry dropped" 0 report.Splitfs.Recovery.torn_data_entries;
  Util.check_int "entry replayed" 1 report.Splitfs.Recovery.entries_replayed;
  Util.check_str "write recovered" payload data

let test_remount_after_recovery () =
  (* after crash + recovery, a fresh U-Split instance must serve the data *)
  let env, _kfs, sys, _u, fs = Util.make_splitfs ~mode:Splitfs.Config.Strict () in
  let fd = fs.open_ "/rm" Fsapi.Flags.create_rw in
  Fsapi.Fs.write_string fs fd "before crash";
  Pmem.Device.crash env.Pmem.Env.dev;
  ignore (Splitfs.Recovery.recover ~sys ~env ~instance:0);
  let u2 =
    Splitfs.Usplit.mount
      ~cfg:(Util.small_splitfs_cfg Splitfs.Config.Strict)
      ~sys ~env ~instance:1 ()
  in
  let fs2 = Splitfs.Usplit.as_fsapi u2 in
  Util.check_str "fresh mount reads recovered data" "before crash"
    (Fsapi.Fs.read_file fs2 "/rm")

(* property: random op sequence + crash at a random point, recovered state
   must equal the state of a reference run that stops at the same point *)
let prop_strict_crash_recovers_everything =
  QCheck.Test.make
    ~name:"strict: crash at any point loses nothing (synchronous + atomic)"
    ~count:25
    QCheck.(pair Test_ext4.arb_ops (int_bound 100))
    (fun (ops, cut_pct) ->
      let cut = List.length ops * cut_pct / 100 in
      let prefix = List.filteri (fun i _ -> i < cut) ops in
      let env, _kfs, sys, _u, fs =
        Util.make_splitfs ~mode:Splitfs.Config.Strict ()
      in
      let reference = Fsapi.Ref_fs.make () in
      List.iter
        (fun op ->
          ignore (Test_ext4.apply_op fs op);
          ignore (Test_ext4.apply_op reference op))
        prefix;
      Pmem.Device.crash env.Pmem.Env.dev;
      ignore (Splitfs.Recovery.recover ~sys ~env ~instance:0);
      Test_ext4.final_states_agree (Kernelfs.Syscall.as_fsapi sys) reference)

let suite =
  [
    tc "strict: appends survive crash without fsync" `Quick
      test_strict_appends_survive_crash_without_fsync;
    tc "sync: appends survive crash" `Quick test_sync_appends_survive_crash;
    tc "posix: unsynced appends are lost" `Quick test_posix_unsynced_appends_lost;
    tc "posix: fsynced appends survive" `Quick test_posix_fsynced_appends_survive;
    tc "strict: overwrites survive crash" `Quick test_strict_overwrite_survives;
    tc "relinked entries are not replayed" `Quick test_relinked_entries_not_replayed;
    tc "truncate bounds replay" `Quick test_truncate_bounds_replay;
    tc "unlink cancels replay" `Quick test_unlink_cancels_replay;
    tc "replay is idempotent" `Quick test_replay_is_idempotent;
    tc "strict: double replay = single, every crash state" `Quick
      (test_double_replay_idempotent Splitfs.Config.Strict);
    tc "fams: double replay = single, incl. mid-publish states" `Quick
      (test_double_replay_idempotent Splitfs.Config.Fams);
    tc "strict: crash inside the log reset recovers" `Quick
      (test_crash_inside_log_reset Splitfs.Config.Strict ~fence:19
         ~survivors:[] ~rfence:5);
    tc "sync: crash inside the log reset recovers" `Quick
      (test_crash_inside_log_reset Splitfs.Config.Sync ~fence:18
         ~survivors:[ 40963 ] ~rfence:4);
    tc "torn tail entry skipped" `Quick test_torn_tail_entry_skipped;
    tc "strict: torn final data drops its entry" `Quick
      test_torn_final_data_dropped;
    tc "strict: intact final data is replayed" `Quick
      test_intact_final_data_replayed;
    tc "fresh mount after recovery" `Quick test_remount_after_recovery;
    QCheck_alcotest.to_alcotest prop_strict_crash_recovers_everything;
  ]
