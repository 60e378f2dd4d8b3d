(** PR 5 fault plane: deterministic fault injection, graceful
    degradation, the scrubber patrol, bit-rot recovery, and the
    faultcheck campaign with its differential oracle. *)

let tc = Alcotest.test_case

(* ------------------------------------------------------------------ *)
(* Fault-plane unit semantics                                           *)
(* ------------------------------------------------------------------ *)

let test_transient_vs_sticky () =
  let f = Faults.create () in
  Faults.inject f (Faults.rfault Faults.Journal ~from:1 (Faults.Transient 2));
  Util.check_bool "call 0 below from" false (Faults.check f Faults.Journal);
  Util.check_bool "call 1 fires" true (Faults.check f Faults.Journal);
  Faults.new_epoch f;
  Util.check_bool "still within 2 epochs" true (Faults.check f Faults.Journal);
  Faults.new_epoch f;
  Util.check_bool "healed after 2 epochs" false (Faults.check f Faults.Journal);
  Faults.reset f;
  Faults.inject f (Faults.rfault Faults.Journal ~from:0 Faults.Sticky);
  for _ = 1 to 5 do
    Util.check_bool "sticky always fires" true (Faults.check f Faults.Journal);
    Faults.new_epoch f
  done;
  Util.check_int "firings counted since reset" 5 (Faults.counts f).Faults.injected

let test_origin_scoping () =
  let f = Faults.create () in
  Faults.inject f
    (Faults.rfault ~origin:Faults.Staging_prealloc Faults.Alloc ~from:0
       Faults.Sticky);
  Util.check_bool "foreground alloc unaffected" false (Faults.check f Faults.Alloc);
  Util.check_bool "staging prealloc hit" true
    (Faults.with_origin f Faults.Staging_prealloc (fun () ->
         Faults.check f Faults.Alloc));
  Util.check_bool "scope is dynamic extent only" false
    (Faults.check f Faults.Alloc)

let test_backoff_schedule () =
  Alcotest.(check (list (float 0.)))
    "capped exponential"
    [ 1000.; 2000.; 4000.; 8000.; 16000.; 16000. ]
    (List.map (fun a -> Faults.backoff_ns ~attempt:a) [ 1; 2; 3; 4; 5; 6 ])

let test_errno_printer () =
  Util.check_str "printer names layer" "EIO \"k-split: swap_extents injected EIO\""
    (Fmt.str "%a" Fsapi.Errno.pp
       (Fsapi.Errno.EIO, "k-split: swap_extents injected EIO"));
  Util.check_str "enospc rendering" "ENOSPC \"k-split alloc: injected fault\""
    (Fmt.str "%a" Fsapi.Errno.pp
       (Fsapi.Errno.ENOSPC, "k-split alloc: injected fault"))

(* ------------------------------------------------------------------ *)
(* Media faults on the device                                           *)
(* ------------------------------------------------------------------ *)

let test_poison_load_store_quarantine () =
  let env = Util.make_env () in
  let dev = env.Pmem.Env.dev in
  let addr = 4096 in
  let data = Bytes.make 64 'p' in
  Pmem.Device.store_nt dev ~addr data ~off:0 ~len:64;
  Pmem.Device.fence dev;
  Pmem.Device.poison_line dev ~addr;
  let buf = Bytes.create 64 in
  (match Pmem.Device.load dev ~addr buf ~off:0 ~len:64 with
  | () -> Alcotest.fail "expected Poisoned on load from media"
  | exception Faults.Poisoned a -> Util.check_int "poison addr" addr a);
  Util.check_int "last_poison points at the line" addr
    (Pmem.Device.last_poison dev);
  (* a full-line NT store heals the poison (new data, fresh ECC) *)
  Pmem.Device.store_nt dev ~addr data ~off:0 ~len:64;
  Pmem.Device.load dev ~addr buf ~off:0 ~len:64;
  Util.check_bool "store healed the line" false (Pmem.Device.is_poisoned dev ~addr);
  (* quarantine zeroes and marks the line instead *)
  Pmem.Device.poison_line dev ~addr;
  Pmem.Device.quarantine dev ~addr ~len:1;
  Pmem.Device.load dev ~addr buf ~off:0 ~len:64;
  Util.check_str "quarantined line reads zeros" (String.make 64 '\000')
    (Bytes.to_string buf);
  Util.check_bool "marked quarantined" true (Pmem.Device.is_quarantined dev ~addr)

let test_crash_keeps_media_state_reset_clears () =
  (* satellite: media damage survives power cycles; reset_faults is the
     explicit factory-fresh escape hatch *)
  let env = Util.make_env () in
  let dev = env.Pmem.Env.dev in
  let data = Bytes.make 4096 'w' in
  for _ = 1 to 5 do
    Pmem.Device.store_nt dev ~addr:8192 data ~off:0 ~len:4096
  done;
  Pmem.Device.fence dev;
  Pmem.Device.poison_line dev ~addr:8192;
  Pmem.Device.quarantine dev ~addr:(8192 + 64) ~len:1;
  let wear = Pmem.Device.total_wear dev in
  Util.check_bool "wear accrued" true (wear > 0);
  Pmem.Device.crash dev;
  Util.check_int "crash keeps wear" wear (Pmem.Device.total_wear dev);
  Util.check_bool "crash keeps poison" true
    (Pmem.Device.is_poisoned dev ~addr:8192);
  Util.check_bool "crash keeps quarantine" true
    (Pmem.Device.is_quarantined dev ~addr:(8192 + 64));
  Pmem.Device.reset_faults dev;
  Util.check_int "reset clears wear" 0 (Pmem.Device.total_wear dev);
  Util.check_bool "reset clears poison" false
    (Pmem.Device.is_poisoned dev ~addr:8192);
  Util.check_int "reset clears quarantine" 0 (Pmem.Device.quarantined_count dev)

(* ------------------------------------------------------------------ *)
(* Degradation paths                                                    *)
(* ------------------------------------------------------------------ *)

let test_journal_transient_retried () =
  let env, _kfs, sys = Util.make_kernel () in
  let fs = Kernelfs.Syscall.as_fsapi sys in
  Fsapi.Fs.write_file fs "/j" "before";
  let f = env.Pmem.Env.faults in
  Faults.inject f (Faults.rfault Faults.Journal ~from:0 (Faults.Transient 2));
  let fd = fs.Fsapi.Fs.open_ "/j2" Fsapi.Flags.create_rw in
  Fsapi.Fs.write_string fs fd "after the transient";
  fs.Fsapi.Fs.fsync fd;
  Util.check_str "write survived the transient" "after the transient"
    (Fsapi.Fs.read_file fs "/j2");
  let c = Faults.counts f in
  Util.check_bool "commit retried" true (c.Faults.journal_retries > 0);
  Util.check_int "no errno surfaced" 0 c.Faults.errno

let test_journal_sticky_errno () =
  let env, _kfs, sys = Util.make_kernel () in
  let fs = Kernelfs.Syscall.as_fsapi sys in
  let fd = fs.Fsapi.Fs.open_ "/s" Fsapi.Flags.create_rw in
  Faults.inject env.Pmem.Env.faults
    (Faults.rfault Faults.Journal ~from:0 Faults.Sticky);
  (match fs.Fsapi.Fs.fsync fd with
  | () -> Alcotest.fail "sticky journal fault must surface"
  | exception Fsapi.Errno.Error (Fsapi.Errno.EIO, ctx) ->
      Util.check_bool "context names jbd2" true
        (String.length ctx >= 4 && String.sub ctx 0 4 = "jbd2"));
  Util.check_bool "errno counted" true
    ((Faults.counts env.Pmem.Env.faults).Faults.errno > 0)

let test_staging_enospc_degrades () =
  (* origin-scoped sticky Alloc fault: staging pre-allocation fails, the
     write degrades to the kernel path instead of surfacing ENOSPC *)
  let cfg =
    {
      (Util.small_splitfs_cfg Splitfs.Config.Sync) with
      Splitfs.Config.staging_files = 1;
      staging_size = 4096;
    }
  in
  let env, _kfs, _sys, _u, fs = Util.make_splitfs ~cfg () in
  Faults.inject env.Pmem.Env.faults
    (Faults.rfault ~origin:Faults.Staging_prealloc Faults.Alloc ~from:0
       Faults.Sticky);
  let content = Util.pattern ~seed:7 20000 in
  Fsapi.Fs.write_file fs "/degraded" content;
  Util.check_str "degraded writes land correctly" content
    (Fsapi.Fs.read_file fs "/degraded");
  let c = Faults.counts env.Pmem.Env.faults in
  Util.check_bool "degraded-write fallback used" true (c.Faults.degraded_writes > 0);
  Util.check_int "no errno surfaced" 0 c.Faults.errno

let test_relink_transient_retried_sticky_masked () =
  let run duration =
    let env, _kfs, _sys, _u, fs =
      Util.make_splitfs ~mode:Splitfs.Config.Sync ()
    in
    let content = Util.pattern ~seed:9 20000 in
    Faults.inject env.Pmem.Env.faults
      (Faults.rfault Faults.Swap ~from:0 duration);
    Fsapi.Fs.write_file fs "/relinked" content;
    Util.check_str "content correct despite relink faults" content
      (Fsapi.Fs.read_file fs "/relinked");
    Faults.counts env.Pmem.Env.faults
  in
  let c = run (Faults.Transient 1) in
  Util.check_bool "transient: relink retried" true (c.Faults.relink_retries > 0);
  Util.check_bool "transient: success recorded" true (c.Faults.retried > 0);
  let c = run Faults.Sticky in
  Util.check_bool "sticky: copy fallback masked the fault" true
    (c.Faults.masked > 0);
  Util.check_int "sticky: no errno surfaced" 0 c.Faults.errno

let test_scrubber_migrates_and_remaps () =
  let env, kfs, sys = Util.make_kernel () in
  let fs = Kernelfs.Syscall.as_fsapi sys in
  let content = Util.pattern ~seed:11 (3 * 4096) in
  Fsapi.Fs.write_file fs "/scrubbed" content;
  let inode = Kernelfs.Ext4.namei kfs "/scrubbed" in
  (* poison one line of the middle block: patrol must move the data off *)
  let addr = Option.get (Kernelfs.Ext4.device_addr kfs inode ~off:4096) in
  let victim = Option.get (Kernelfs.Ext4.device_addr kfs inode ~off:8192) in
  Pmem.Device.poison_line env.Pmem.Env.dev ~addr:victim;
  let migrated = Kernelfs.Ext4.scrub kfs ~wear_limit:max_int in
  Util.check_bool "patrol migrated the poisoned block" true (migrated >= 1);
  Util.check_bool "block moved to a fresh address" true
    (Option.get (Kernelfs.Ext4.device_addr kfs inode ~off:8192) <> victim);
  Util.check_bool "untouched block stayed" true
    (Option.get (Kernelfs.Ext4.device_addr kfs inode ~off:4096) = addr);
  (* the poisoned line's 64 bytes are quarantined zeros at the new home;
     every other byte of the file must read back intact *)
  let got = Fsapi.Fs.read_file fs "/scrubbed" in
  Util.check_int "size preserved" (String.length content) (String.length got);
  let mismatches = ref [] in
  String.iteri
    (fun i c -> if c <> content.[i] then mismatches := i :: !mismatches)
    got;
  Util.check_bool "only the quarantined line differs (as zeros)" true
    (List.for_all
       (fun i -> i >= 8192 && i < 8192 + 64 && got.[i] = '\000')
       !mismatches);
  Util.check_bool "loss was surfaced as quarantine" true
    (Pmem.Device.quarantined_count env.Pmem.Env.dev > 0)

let test_usplit_scrub_under_live_mappings () =
  (* the U-Split stack keeps long-lived mmaps; a patrol migrating blocks
     under them must fix the cached translations (page-table analogue) *)
  let env, _kfs, _sys, u, fs = Util.make_splitfs ~mode:Splitfs.Config.Sync () in
  let content = Util.pattern ~seed:13 (4 * 4096) in
  Fsapi.Fs.write_file fs "/mapped" content;
  (* wear the file's current blocks by rewriting in place a few times *)
  let fd = fs.Fsapi.Fs.open_ "/mapped" Fsapi.Flags.rdwr in
  let buf = Bytes.of_string content in
  for _ = 1 to 3 do
    ignore (fs.Fsapi.Fs.pwrite fd ~buf ~boff:0 ~len:(Bytes.length buf) ~at:0);
    fs.Fsapi.Fs.fsync fd
  done;
  let migrated = Splitfs.Usplit.scrub u ~wear_limit:3 in
  Util.check_bool "patrol migrated worn blocks" true (migrated >= 1);
  Util.check_str "reads through retained mappings stay correct" content
    (Fsapi.Fs.read_file fs "/mapped");
  (* writes through the fixed-up mappings must not land on retired blocks *)
  let update = Util.pattern ~seed:14 (4 * 4096) in
  ignore
    (fs.Fsapi.Fs.pwrite fd ~buf:(Bytes.of_string update) ~boff:0
       ~len:(String.length update) ~at:0);
  fs.Fsapi.Fs.fsync fd;
  Util.check_str "post-migration writes visible" update
    (Fsapi.Fs.read_file fs "/mapped");
  ignore env

(* ------------------------------------------------------------------ *)
(* Bit-rot in the operation log                                         *)
(* ------------------------------------------------------------------ *)

(** Flip one bit of byte [byte_in_slot] of log slot [slot] directly on
    the PM device (bit-rot / undetected media corruption), then recover.
    Replay must apply exactly the entries before the corrupted slot. *)
let bitrot_case mode ~slot ~byte_in_slot () =
  let env, kfs, sys, u, fs = Util.make_splitfs ~mode () in
  let fd = fs.Fsapi.Fs.open_ "/rot" Fsapi.Flags.create_rw in
  let record i = Util.pattern ~seed:(100 + i) 300 in
  for i = 0 to 9 do
    Fsapi.Fs.write_string fs fd (record i)
  done;
  let log = Option.get (Splitfs.Usplit.oplog u) in
  let log_inode = Kernelfs.Ext4.namei kfs (Splitfs.Oplog.path log) in
  Pmem.Device.crash env.Pmem.Env.dev;
  let off = slot * Splitfs.Oplog.entry_size in
  let addr =
    Option.get (Kernelfs.Ext4.device_addr kfs log_inode ~off) + byte_in_slot
  in
  let b = Bytes.create 1 in
  Pmem.Device.load env.Pmem.Env.dev ~addr b ~off:0 ~len:1;
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x10));
  Pmem.Device.poke_persistent env.Pmem.Env.dev ~addr b ~off:0 ~len:1;
  let r = Splitfs.Recovery.recover ~sys ~env ~instance:0 in
  Util.check_bool "corruption detected as torn" true
    (r.Splitfs.Recovery.torn_entries > 0);
  (* slot 0 is the Create entry (not a replayed data op); slots 1.. are
     the appends. Exactly the appends strictly before the flipped slot
     replay. *)
  let expected_appends = max 0 (slot - 1) in
  Util.check_int "replay stops exactly at the corrupted slot" expected_appends
    r.Splitfs.Recovery.entries_replayed;
  let k = Kernelfs.Syscall.as_fsapi sys in
  let expect =
    String.concat "" (List.init expected_appends (fun i -> record i))
  in
  Util.check_str "file holds exactly the surviving prefix" expect
    (Fsapi.Fs.read_file k "/rot")

let test_bitrot_corpus () =
  (* single-bit flips across different entry fields (ino/offset words,
     length, CRC) and log positions, in both logging modes *)
  List.iter
    (fun mode ->
      List.iter
        (fun (slot, byte_in_slot) -> bitrot_case mode ~slot ~byte_in_slot ())
        [ (1, 1); (3, 8); (5, 16); (8, 24); (10, 60); (2, 33) ])
    [ Splitfs.Config.Sync; Splitfs.Config.Strict ]

let test_bitrot_posix_noop () =
  (* POSIX mode has no log to rot: recovery after corruption anywhere in
     the staging area is a clean no-op *)
  let env, _kfs, sys, _u, fs = Util.make_splitfs ~mode:Splitfs.Config.Posix () in
  Fsapi.Fs.write_file fs "/p" "posix data";
  Pmem.Device.crash env.Pmem.Env.dev;
  let r = Splitfs.Recovery.recover ~sys ~env ~instance:0 in
  Util.check_int "nothing scanned" 0 r.Splitfs.Recovery.entries_scanned;
  Util.check_int "nothing replayed" 0 r.Splitfs.Recovery.entries_replayed

let test_recovery_skips_poisoned_staging () =
  (* poison the staged source bytes of one logged append: recovery must
     quarantine the line, skip that op, and still complete *)
  let env, kfs, sys, u, fs = Util.make_splitfs ~mode:Splitfs.Config.Strict () in
  let fd = fs.Fsapi.Fs.open_ "/skip" Fsapi.Flags.create_rw in
  for i = 0 to 4 do
    Fsapi.Fs.write_string fs fd (Util.pattern ~seed:(50 + i) 256)
  done;
  Pmem.Device.crash env.Pmem.Env.dev;
  (* poison via the log's own pointer: scan it, take a data entry, and
     resolve its staging inode to a device address *)
  let log = Option.get (Splitfs.Usplit.oplog u) in
  let scan = Splitfs.Oplog.scan sys (Splitfs.Oplog.path log) in
  let poison_from_entry e =
    match e with
    | Splitfs.Oplog.Append op | Splitfs.Oplog.Overwrite op ->
        let sfile =
          (* resolve the staging inode number to its path via /proc-style
             search over the instance staging dir *)
          let dir = "/.splitfs-0" in
          let d = Kernelfs.Ext4.namei kfs dir in
          let names =
            match d.Kernelfs.Ext4.dir with
            | Some tbl -> Hashtbl.fold (fun n _ acc -> n :: acc) tbl []
            | None -> []
          in
          List.find_map
            (fun n ->
              let p = dir ^ "/" ^ n in
              match Kernelfs.Ext4.namei kfs p with
              | i when i.Kernelfs.Ext4.ino = op.Splitfs.Oplog.staging_ino ->
                  Some i
              | _ -> None
              | exception Fsapi.Errno.Error _ -> None)
            names
        in
        (match sfile with
        | Some inode ->
            let addr =
              Option.get
                (Kernelfs.Ext4.device_addr kfs inode
                   ~off:op.Splitfs.Oplog.staging_off)
            in
            Pmem.Device.poison_line env.Pmem.Env.dev ~addr;
            true
        | None -> false)
    | _ -> false
  in
  let data_entries = List.filter_map
      (fun e -> if poison_from_entry e then Some e else None)
      [ List.nth scan.Splitfs.Oplog.valid 3 ]
  in
  Util.check_int "poisoned one staged op" 1 (List.length data_entries);
  let r = Splitfs.Recovery.recover ~sys ~env ~instance:0 in
  Util.check_bool "recovery completed, skipping the poisoned op" true
    (r.Splitfs.Recovery.replay_skipped >= 1);
  Util.check_bool "other ops replayed" true
    (r.Splitfs.Recovery.entries_replayed >= 3);
  Util.check_bool "line quarantined for the skip" true
    (Pmem.Device.quarantined_count env.Pmem.Env.dev > 0)

(* ------------------------------------------------------------------ *)
(* Determinism and the campaign                                         *)
(* ------------------------------------------------------------------ *)

let zero_fault_workload fs =
  let fd = fs.Fsapi.Fs.open_ "/probe" Fsapi.Flags.create_rw in
  for i = 0 to 49 do
    let buf = Bytes.make 300 (Char.chr (i land 0xff)) in
    ignore (fs.Fsapi.Fs.pwrite fd ~buf ~boff:0 ~len:300 ~at:(i * 300));
    if i mod 10 = 9 then fs.Fsapi.Fs.fsync fd
  done

let test_zero_faults_bit_identical () =
  (* satellite: an armed-but-empty fault plane must not move a single
     simulated nanosecond on any stack *)
  List.iter
    (fun spec ->
      let run ~armed =
        let stack = Harness.Fs_config.make spec in
        let env = stack.Harness.Fs_config.env in
        if armed then Faults.arm env.Pmem.Env.faults;
        zero_fault_workload stack.Harness.Fs_config.fs;
        Pmem.Env.now env
      in
      let unarmed = run ~armed:false and armed = run ~armed:true in
      Alcotest.(check (float 0.))
        (Harness.Fs_config.name spec ^ ": armed plane is free")
        unarmed armed)
    Harness.Fs_config.all

let test_campaign_clean () =
  (* the full campaign at its pinned seed: every fault lands in an
     allowed outcome on every stack, zero oracle violations *)
  let reports = Faultcheck.run () in
  List.iter
    (fun (r : Faultcheck.stack_report) ->
      Util.check_int
        (r.Faultcheck.s_stack ^ ": no oracle violations")
        0
        (List.length r.Faultcheck.s_violations);
      Util.check_int (r.Faultcheck.s_stack ^ ": no trial wasted") 1
        (min 1 r.Faultcheck.s_trials))
    reports;
  Util.check_bool "campaign clean" true (Faultcheck.clean reports);
  (* the campaign must actually exercise the degradation machinery *)
  let splitfs =
    List.find
      (fun r -> r.Faultcheck.s_stack = "splitfs-sync")
      reports
  in
  let c = splitfs.Faultcheck.s_counts in
  Util.check_bool "relink retries exercised" true (c.Faults.relink_retries > 0);
  Util.check_bool "journal retries exercised" true (c.Faults.journal_retries > 0);
  Util.check_bool "degraded writes exercised" true (c.Faults.degraded_writes > 0);
  Util.check_bool "scrub migrations exercised" true (c.Faults.scrub_migrations > 0);
  Util.check_bool "media faults exercised" true (c.Faults.media > 0)

(* The seeds that found the relink/ENOSPC class report no violation:
   0xBEEF (only the last extent carried the size), 26 (on fams, a
   boundary-copy-only extent carried none) and 3 and 10 (a relinked
   block whose tail copy then failed was relinked again, which freed
   it). *)
let test_relink_enospc_seeds_clean () =
  List.iter
    (fun seed ->
      List.iter
        (fun (r : Faultcheck.stack_report) ->
          Util.check_int
            (Printf.sprintf "seed %#x, %s: no oracle violations" seed
               r.Faultcheck.s_stack)
            0
            (List.length r.Faultcheck.s_violations))
        (Faultcheck.run ~seed ()))
    [ 0xBEEF; 26; 3; 10 ]

(* The judge's semantics on a hand-built one-file program: a failed
   write over [100, 500) of a 1000-byte file, then an acknowledged write
   over [200, 300), inside it. The legal contents are the world with only
   the acknowledged write and the world with both. *)
let test_judge_semantics () =
  let module T = Crashcheck.Trial in
  let module W = Crashcheck.Workload in
  let write at len seed = (0, T.Op (W.Write { file = 0; at; len; seed })) in
  let p =
    {
      T.initial = [ { T.client = 0; path = "/f0"; len = 1000; seed = 1000 } ];
      paths = [| "/f0" |];
      ops = [ write 100 400 1; write 200 100 2 ];
      claim = T.no_claim;
    }
  in
  let legal =
    Faultcheck.worlds
      (T.oracle_start ~scratch:(ref Bytes.empty) p)
      p
      [| Faultcheck.Failed; Faultcheck.Acked |]
  in
  let judge got = Faultcheck.judge legal ~quarantined:(fun _ -> false) 0 got in
  let initial = W.payload ~seed:1000 1000 in
  let with_range b ~at src =
    let b = Bytes.copy b in
    Bytes.blit src 0 b at (Bytes.length src);
    b
  in
  let failed = W.payload ~seed:1 400 and acked = W.payload ~seed:2 100 in
  let head = with_range initial ~at:200 acked in
  let both = with_range (with_range initial ~at:100 failed) ~at:200 acked in
  let legal_ok what got =
    Alcotest.(check (option string)) what None (judge got)
  in
  let flagged what got =
    Util.check_bool what true (Option.is_some (judge got))
  in
  legal_ok "the failed write did not land" head;
  legal_ok "the failed write landed" both;
  (* a per-byte failed-range rule (payload or zero anywhere in a failed
     write's range) would accept these two: the acknowledged bytes were
     lost *)
  flagged "zeros over the acknowledged range"
    (with_range head ~at:200 (Bytes.make 100 '\000'));
  flagged "the failed payload over the acknowledged range"
    (with_range head ~at:200 (Bytes.sub failed 100 100));
  legal_ok "a byte-prefix of the failed write nothing later covers"
    (with_range head ~at:100 (Bytes.sub failed 0 50));
  Alcotest.(check (option string))
    "a size no world has" (Some "recovered size 1001 not in {1000}")
    (judge (Bytes.cat head (Bytes.make 1 'x')))

let test_oracle_catches_injected_bug () =
  (* regression for the oracle itself: a deliberately dishonest degraded
     write path (data dropped, success returned) must be flagged *)
  Util.check_bool "oracle flags dropped writes" true
    (Faultcheck.oracle_catches_dropped_writes ());
  (* the dishonest configuration is per-env now: a fresh default env must
     come up with the honest path on (leakage is impossible by
     construction, so this pins the default rather than a restore) *)
  Util.check_bool "default env is honest" true
    Pmem.Env.default_checks.Pmem.Env.honest_degraded_writes

let suite =
  [
    tc "transient heals, sticky persists" `Quick test_transient_vs_sticky;
    tc "origin-scoped faults" `Quick test_origin_scoping;
    tc "backoff schedule capped" `Quick test_backoff_schedule;
    tc "errno printer names layer" `Quick test_errno_printer;
    tc "poison: load raises, store heals, quarantine zeros" `Quick
      test_poison_load_store_quarantine;
    tc "crash keeps media faults; reset clears" `Quick
      test_crash_keeps_media_state_reset_clears;
    tc "journal transient retried" `Quick test_journal_transient_retried;
    tc "journal sticky surfaces EIO" `Quick test_journal_sticky_errno;
    tc "staging ENOSPC degrades to kernel writes" `Quick
      test_staging_enospc_degrades;
    tc "relink: transient retried, sticky masked by copy" `Quick
      test_relink_transient_retried_sticky_masked;
    tc "scrubber migrates and preserves data" `Quick
      test_scrubber_migrates_and_remaps;
    tc "scrub under live U-Split mappings" `Quick
      test_usplit_scrub_under_live_mappings;
    tc "bit-rot corpus: replay drops exactly the rotten suffix" `Quick
      test_bitrot_corpus;
    tc "bit-rot: posix recovery no-op" `Quick test_bitrot_posix_noop;
    tc "recovery skips poisoned staged ops" `Quick
      test_recovery_skips_poisoned_staging;
    tc "zero faults: armed plane bit-identical" `Quick
      test_zero_faults_bit_identical;
    tc "faultcheck campaign clean at pinned seed" `Quick test_campaign_clean;
    tc "faultcheck clean at the relink/ENOSPC seeds" `Quick
      test_relink_enospc_seeds_clean;
    tc "faultcheck judge: worlds, not failed ranges" `Quick
      test_judge_semantics;
    tc "oracle catches injected degradation bug" `Quick
      test_oracle_catches_injected_bug;
  ]
