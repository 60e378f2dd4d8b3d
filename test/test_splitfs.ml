(** SplitFS (U-Split) behaviour: staging, relink on fsync/close, shadow
    reads, modes, visibility, and equivalence with ext4 DAX final states
    (the paper's §5.3 correctness methodology). *)

let tc = Alcotest.test_case

let modes = [ Splitfs.Config.Posix; Splitfs.Config.Sync; Splitfs.Config.Strict ]

let for_each_mode f () =
  List.iter
    (fun mode ->
      let _env, _kfs, _sys, u, fs = Util.make_splitfs ~mode () in
      f mode u fs)
    modes

let test_roundtrip =
  for_each_mode (fun mode _u fs ->
      let content = Util.pattern ~seed:11 10000 in
      let got = Util.fs_write_read_roundtrip fs "/r.txt" content in
      Util.check_str
        (Printf.sprintf "roundtrip (%s)" (Splitfs.Config.mode_to_string mode))
        content got)

let test_append_read_before_fsync =
  for_each_mode (fun _mode _u fs ->
      let fd = fs.open_ "/a" Fsapi.Flags.create_rw in
      Fsapi.Fs.write_string fs fd "staged append";
      (* no fsync yet: data must still be readable (read-your-writes via the
         collection of mmaps + staging) *)
      Util.check_int "size visible" 13 (fs.fstat fd).Fsapi.Fs.st_size;
      let s = Fsapi.Fs.pread_exact fs fd ~len:13 ~at:0 in
      Util.check_str "read staged" "staged append" s;
      fs.close fd)

let test_append_not_in_kernel_until_fsync () =
  let _env, _kfs, sys, _u, fs = Util.make_splitfs ~mode:Splitfs.Config.Posix () in
  let fd = fs.open_ "/k" Fsapi.Flags.create_rw in
  Fsapi.Fs.write_string fs fd "invisible yet";
  (* through the kernel, the file is still empty: appends are staged *)
  Util.check_int "kernel size 0" 0 (Kernelfs.Syscall.stat sys "/k").Fsapi.Fs.st_size;
  fs.fsync fd;
  Util.check_int "kernel size after fsync" 13
    (Kernelfs.Syscall.stat sys "/k").Fsapi.Fs.st_size;
  let via_kernel =
    let kfd = Kernelfs.Syscall.open_ sys "/k" Fsapi.Flags.rdonly in
    let buf = Bytes.create 13 in
    ignore (Kernelfs.Syscall.pread sys kfd ~buf ~boff:0 ~len:13 ~at:0);
    Kernelfs.Syscall.close sys kfd;
    Bytes.to_string buf
  in
  Util.check_str "kernel sees relinked data" "invisible yet" via_kernel;
  fs.close fd

let test_relink_on_close () =
  let _env, _kfs, sys, _u, fs = Util.make_splitfs ~mode:Splitfs.Config.Posix () in
  let fd = fs.open_ "/c" Fsapi.Flags.create_rw in
  Fsapi.Fs.write_string fs fd "close relinks";
  fs.close fd;
  Util.check_int "kernel size after close" 13
    (Kernelfs.Syscall.stat sys "/c").Fsapi.Fs.st_size

let test_block_aligned_append_no_copy () =
  let env, _kfs, _sys, _u, fs = Util.make_splitfs ~mode:Splitfs.Config.Posix () in
  let fd = fs.open_ "/big" Fsapi.Flags.create_rw in
  let block = Bytes.of_string (Util.pattern ~seed:5 4096) in
  let stats = env.Pmem.Env.stats in
  for _ = 1 to 16 do
    ignore (fs.write fd ~buf:block ~boff:0 ~len:4096)
  done;
  let copied0 = stats.Pmem.Stats.relink_copied_bytes in
  fs.fsync fd;
  let copied1 = stats.Pmem.Stats.relink_copied_bytes in
  Util.check_int "block-aligned appends relink without copying" copied0 copied1;
  Alcotest.(check bool) "relinks happened" true (stats.Pmem.Stats.relinks > 0);
  fs.close fd

let test_unaligned_append_tail_zero_copy () =
  let env, _kfs, _sys, _u, fs = Util.make_splitfs ~mode:Splitfs.Config.Posix () in
  let fd = fs.open_ "/u" Fsapi.Flags.create_rw in
  (* appends ending at EOF relink their partial tail block wholesale: the
     file size caps the slack, so no bytes are copied at all *)
  Fsapi.Fs.write_string fs fd (String.make 100 'h');
  Fsapi.Fs.write_string fs fd (Util.pattern ~seed:8 8192);
  fs.fsync fd;
  Util.check_int "no copy for EOF-tail appends" 0
    env.Pmem.Env.stats.Pmem.Stats.relink_copied_bytes;
  let s = Fsapi.Fs.pread_exact fs fd ~len:8292 ~at:0 in
  Util.check_str "content intact" (String.make 100 'h' ^ Util.pattern ~seed:8 8192) s;
  fs.close fd

let test_unaligned_append_copies_only_head () =
  let env, _kfs, _sys, _u, fs = Util.make_splitfs ~mode:Splitfs.Config.Posix () in
  let fd = fs.open_ "/u2" Fsapi.Flags.create_rw in
  (* settle an unaligned kernel size first, then append across it: only the
     head bytes into the existing partial block are copied *)
  Fsapi.Fs.write_string fs fd (String.make 100 'h');
  fs.fsync fd;
  Fsapi.Fs.write_string fs fd (Util.pattern ~seed:8 8192);
  fs.fsync fd;
  let copied = env.Pmem.Env.stats.Pmem.Stats.relink_copied_bytes in
  Alcotest.(check bool)
    (Printf.sprintf "copied only the head boundary (%d)" copied)
    true
    (copied > 0 && copied <= 4096 - 100);
  let s = Fsapi.Fs.pread_exact fs fd ~len:8292 ~at:0 in
  Util.check_str "content intact" (String.make 100 'h' ^ Util.pattern ~seed:8 8192) s;
  fs.close fd

let test_overwrite_in_place_posix () =
  let _env, _kfs, sys, _u, fs = Util.make_splitfs ~mode:Splitfs.Config.Posix () in
  Fsapi.Fs.write_file fs "/o" (String.make 8192 'a');
  let fd = fs.open_ "/o" Fsapi.Flags.rdwr in
  let s0 = Kernelfs.Syscall.stat sys "/o" in
  Fsapi.Fs.pwrite_string fs fd "XYZ" ~at:1000;
  (* POSIX-mode overwrites are in place: immediately visible via kernel *)
  let kfd = Kernelfs.Syscall.open_ sys "/o" Fsapi.Flags.rdonly in
  let buf = Bytes.create 3 in
  ignore (Kernelfs.Syscall.pread sys kfd ~buf ~boff:0 ~len:3 ~at:1000);
  Util.check_str "in-place overwrite visible" "XYZ" (Bytes.to_string buf);
  Kernelfs.Syscall.close sys kfd;
  Util.check_int "size unchanged" s0.Fsapi.Fs.st_size (fs.fstat fd).Fsapi.Fs.st_size;
  fs.close fd

let test_strict_overwrite_staged_then_relinked () =
  let _env, _kfs, sys, _u, fs = Util.make_splitfs ~mode:Splitfs.Config.Strict () in
  Fsapi.Fs.write_file fs "/so" (String.make 8192 'a');
  let fd = fs.open_ "/so" Fsapi.Flags.rdwr in
  fs.fsync fd;
  Fsapi.Fs.pwrite_string fs fd "NEW" ~at:4096;
  (* before fsync, the kernel file still holds the old bytes *)
  let kfd = Kernelfs.Syscall.open_ sys "/so" Fsapi.Flags.rdonly in
  let buf = Bytes.create 3 in
  ignore (Kernelfs.Syscall.pread sys kfd ~buf ~boff:0 ~len:3 ~at:4096);
  Util.check_str "kernel still old" "aaa" (Bytes.to_string buf);
  (* but U-Split reads its own staged data *)
  let s = Fsapi.Fs.pread_exact fs fd ~len:3 ~at:4096 in
  Util.check_str "read-your-writes" "NEW" s;
  fs.fsync fd;
  ignore (Kernelfs.Syscall.pread sys kfd ~buf ~boff:0 ~len:3 ~at:4096);
  Util.check_str "kernel new after fsync" "NEW" (Bytes.to_string buf);
  Kernelfs.Syscall.close sys kfd;
  fs.close fd

let test_mixed_append_overwrite =
  for_each_mode (fun mode _u fs ->
      let name = Splitfs.Config.mode_to_string mode in
      let fd = fs.open_ "/mix" Fsapi.Flags.create_rw in
      Fsapi.Fs.write_string fs fd "0123456789";
      Fsapi.Fs.pwrite_string fs fd "AB" ~at:3;
      Fsapi.Fs.write_string fs fd "XYZ";
      let s = Fsapi.Fs.pread_exact fs fd ~len:13 ~at:0 in
      Util.check_str (name ^ ": mixed content") "012AB56789XYZ" s;
      fs.fsync fd;
      let s = Fsapi.Fs.pread_exact fs fd ~len:13 ~at:0 in
      Util.check_str (name ^ ": after fsync") "012AB56789XYZ" s;
      fs.close fd;
      fs.unlink "/mix")

let test_ftruncate_drops_staged =
  for_each_mode (fun mode _u fs ->
      let name = Splitfs.Config.mode_to_string mode in
      let fd = fs.open_ "/tr" Fsapi.Flags.create_rw in
      Fsapi.Fs.write_string fs fd (String.make 6000 't');
      fs.ftruncate fd 100;
      Util.check_int (name ^ ": truncated size") 100 (fs.fstat fd).Fsapi.Fs.st_size;
      let s = Fsapi.Fs.pread_exact fs fd ~len:100 ~at:0 in
      Util.check_str (name ^ ": kept prefix") (String.make 100 't') s;
      fs.fsync fd;
      Util.check_int (name ^ ": size stable") 100 (fs.fstat fd).Fsapi.Fs.st_size;
      fs.close fd;
      fs.unlink "/tr")

(* An ftruncate that cuts into staged bytes without going below the
   kernel size keeps only the staged bytes under the new size: the rest
   never reaches the file, so growing it again reads zeros, through a
   reopen too. *)
let test_ftruncate_cuts_staged_bytes =
  for_each_mode (fun mode _u fs ->
      let name = Splitfs.Config.mode_to_string mode in
      let fd = fs.open_ "/cut" Fsapi.Flags.create_rw in
      Fsapi.Fs.write_string fs fd (String.make 100 'x');
      fs.fsync fd;
      Fsapi.Fs.write_string fs fd (String.make 8000 'y');
      fs.ftruncate fd 200;
      fs.fsync fd;
      fs.ftruncate fd 9000;
      fs.close fd;
      let fd = fs.open_ "/cut" Fsapi.Flags.rdonly in
      Util.check_str (name ^ ": zeros past the cut")
        (String.make 100 'x' ^ String.make 100 'y' ^ String.make 8800 '\000')
        (Fsapi.Fs.pread_exact fs fd ~len:9000 ~at:0);
      fs.close fd)

let test_ftruncate_grow_sparse =
  for_each_mode (fun mode _u fs ->
      let name = Splitfs.Config.mode_to_string mode in
      let fd = fs.open_ "/gr" Fsapi.Flags.create_rw in
      Fsapi.Fs.write_string fs fd "data";
      fs.ftruncate fd 9000;
      Util.check_int (name ^ ": grown") 9000 (fs.fstat fd).Fsapi.Fs.st_size;
      let s = Fsapi.Fs.pread_exact fs fd ~len:9000 ~at:0 in
      Util.check_str (name ^ ": tail zeros") ("data" ^ String.make 8996 '\000') s;
      fs.close fd;
      fs.unlink "/gr")

let test_staging_exhaustion_midstream () =
  (* staging file of 256 KB, appends of 64 KB: forces relink-to-make-room *)
  let cfg =
    {
      (Util.small_splitfs_cfg Splitfs.Config.Posix) with
      Splitfs.Config.staging_size = 256 * 1024;
      staging_files = 1;
    }
  in
  let _env, _kfs, _sys, _u, fs = Util.make_splitfs ~cfg () in
  let fd = fs.open_ "/spill" Fsapi.Flags.create_rw in
  let chunk = Bytes.of_string (Util.pattern ~seed:21 65536) in
  for _ = 1 to 8 do
    ignore (fs.write fd ~buf:chunk ~boff:0 ~len:65536)
  done;
  Util.check_int "size" (8 * 65536) (fs.fstat fd).Fsapi.Fs.st_size;
  fs.fsync fd;
  let s = Fsapi.Fs.pread_exact fs fd ~len:65536 ~at:(7 * 65536) in
  Util.check_str "last chunk intact" (Bytes.to_string chunk) s;
  fs.close fd

(* A write no staging file can hold once its in-block offset is counted
   takes the kernel path. The crash-trial stack's staging files hold
   256 KiB, and 262,044 bytes at offset 4000 need 4000 + 262,044 bytes
   of one. Relinking cannot make room for such a write, so waiting for
   staging space would never end. *)
let test_unstageable_write_degrades () =
  List.iter
    (fun spec ->
      let st = Harness.Fs_config.make_small spec in
      let fs = st.Harness.Fs_config.fs in
      let fd = fs.open_ "/wide" Fsapi.Flags.create_rw in
      let head = Util.pattern ~seed:31 4000 in
      ignore (fs.pwrite fd ~buf:(Bytes.of_string head) ~boff:0 ~len:4000 ~at:0);
      fs.fsync fd;
      let len = 262_044 in
      let body = Util.pattern ~seed:32 len in
      let name = Harness.Fs_config.name spec in
      Util.check_int (name ^ ": pwrite returns") len
        (fs.pwrite fd ~buf:(Bytes.of_string body) ~boff:0 ~len ~at:4000);
      Util.check_str (name ^ ": data reads back") (head ^ body)
        (Fsapi.Fs.pread_exact fs fd ~len:(4000 + len) ~at:0);
      fs.close fd)
    Harness.Fs_config.[ Splitfs_posix; Splitfs_sync; Splitfs_strict ]

let test_unlink_cleans_up =
  for_each_mode (fun mode _u fs ->
      let name = Splitfs.Config.mode_to_string mode in
      let fd = fs.open_ "/ul" Fsapi.Flags.create_rw in
      Fsapi.Fs.write_string fs fd "bye";
      fs.close fd;
      fs.unlink "/ul";
      Alcotest.(check bool) (name ^ ": gone") false (Fsapi.Fs.exists fs "/ul"))

let test_unlink_while_open_keeps_data =
  for_each_mode (fun mode _u fs ->
      let name = Splitfs.Config.mode_to_string mode in
      let fd = fs.open_ "/ho" Fsapi.Flags.create_rw in
      Fsapi.Fs.write_string fs fd "keep me";
      fs.unlink "/ho";
      let s = Fsapi.Fs.pread_exact fs fd ~len:7 ~at:0 in
      Util.check_str (name ^ ": fd still reads") "keep me" s;
      fs.close fd;
      Alcotest.(check bool) (name ^ ": gone") false (Fsapi.Fs.exists fs "/ho"))

(* Each relink hands the kernel a mapping; a reaped file's mappings must
   leave with it, or the kernel's list grows with run length. *)
let test_reaped_mappings_dropped () =
  List.iter
    (fun mode ->
      let live_after rounds =
        let _env, kfs, _sys, _u, fs = Util.make_splitfs ~mode () in
        for i = 1 to rounds do
          let path = Printf.sprintf "/m%d" i in
          let fd = fs.open_ path Fsapi.Flags.create_rw in
          Fsapi.Fs.write_string fs fd (Util.pattern ~seed:i 10000);
          fs.fsync fd;
          fs.close fd;
          fs.unlink path
        done;
        Kernelfs.Ext4.live_map_count kfs
      in
      Util.check_int
        (Splitfs.Config.mode_to_string mode ^ ": live mappings")
        (live_after 4) (live_after 32))
    modes

(* Small appends, each fsynced, to one strict-mode file: every relink
   retains a mapping over the appended block, and drops the mapping it
   fully covers, so the kernel tracks about one mapping per block of the
   file beside the stack's own (op log, staging files). *)
let test_retained_mappings_bounded () =
  let _env, kfs, _sys, _u, fs = Util.make_splitfs ~mode:Splitfs.Config.Strict () in
  let fd = fs.open_ "/small-appends" Fsapi.Flags.create_rw in
  let own = Kernelfs.Ext4.live_map_count kfs in
  let pairs = 2000 and len = 100 in
  let buf = Bytes.of_string (Util.pattern ~seed:5 len) in
  for _ = 1 to pairs do
    ignore (fs.write fd ~buf ~boff:0 ~len);
    fs.fsync fd
  done;
  let blocks = ((pairs * len) + Pmem.Device.block_size - 1) / Pmem.Device.block_size in
  let live = Kernelfs.Ext4.live_map_count kfs in
  if live > own + blocks then
    Alcotest.failf "%d live mappings after %d appends: %d own + %d blocks" live
      pairs own blocks;
  Util.check_str "content" (String.concat "" (List.init pairs (fun _ -> Bytes.to_string buf)))
    (Fsapi.Fs.pread_exact fs fd ~len:(pairs * len) ~at:0);
  fs.close fd

(* A shrinking ftruncate and an O_TRUNC open drop the file's mappings in
   U-Split; the kernel must forget them too, or its list grows by one
   mapping per truncate cycle. *)
let test_truncated_mappings_dropped () =
  List.iter
    (fun mode ->
      let live_after cycles =
        let _env, kfs, _sys, _u, fs = Util.make_splitfs ~mode () in
        let buf = Bytes.of_string (Util.pattern ~seed:7 4096) in
        let fd = ref (fs.open_ "/t" Fsapi.Flags.create_rw) in
        for i = 1 to cycles do
          for k = 0 to 15 do
            ignore (fs.pwrite !fd ~buf ~boff:0 ~len:4096 ~at:(k * 4096))
          done;
          fs.fsync !fd;
          if i mod 2 = 0 then fs.ftruncate !fd 0
          else begin
            fs.close !fd;
            fd := fs.open_ "/t" (Fsapi.Flags.trunc Fsapi.Flags.create_rw)
          end
        done;
        Util.check_int "truncated" 0 (fs.fstat !fd).Fsapi.Fs.st_size;
        Kernelfs.Ext4.live_map_count kfs
      in
      Util.check_int
        (Splitfs.Config.mode_to_string mode ^ ": live mappings")
        (live_after 4) (live_after 32))
    modes

(* Two clients on one kernel see one block map: when client A's staged
   overwrite of block 0 is relinked, the kernel re-points client B's
   cached mapping of the block it replaced, so B's next pread returns
   A's bytes without reopening the file. *)
let test_two_clients_one_block_map () =
  List.iter
    (fun mode ->
      let name = Splitfs.Config.mode_to_string mode in
      let env, _kfs, sys, _a, fs_a = Util.make_splitfs ~mode () in
      let b =
        Splitfs.Usplit.mount ~cfg:(Util.small_splitfs_cfg mode) ~sys ~env
          ~instance:1 ()
      in
      let fs_b = Splitfs.Usplit.as_fsapi b in
      let fd_a = fs_a.open_ "/f" Fsapi.Flags.create_rw in
      Fsapi.Fs.write_string fs_a fd_a (String.make 8192 'a');
      fs_a.fsync fd_a;
      let fd_b = fs_b.open_ "/f" Fsapi.Flags.rdonly in
      Util.check_str (name ^ ": B reads the old byte") "a"
        (Fsapi.Fs.pread_exact fs_b fd_b ~len:1 ~at:0);
      ignore
        (fs_a.pwrite fd_a ~buf:(Bytes.make 4096 'b') ~boff:0 ~len:4096 ~at:0);
      fs_a.fsync fd_a;
      Util.check_str (name ^ ": B reads A's byte") "b"
        (Fsapi.Fs.pread_exact fs_b fd_b ~len:1 ~at:0);
      fs_a.close fd_a;
      fs_b.close fd_b)
    (modes @ [ Splitfs.Config.Fams ])

let test_rename_updates_cache =
  for_each_mode (fun mode _u fs ->
      let name = Splitfs.Config.mode_to_string mode in
      Fsapi.Fs.write_file fs "/r1" "payload";
      fs.rename "/r1" "/r2";
      Util.check_str (name ^ ": via new name") "payload" (Fsapi.Fs.read_file fs "/r2");
      Alcotest.(check bool) (name ^ ": old gone") false (Fsapi.Fs.exists fs "/r1"))

let test_open_trunc_resets =
  for_each_mode (fun mode _u fs ->
      let name = Splitfs.Config.mode_to_string mode in
      Fsapi.Fs.write_file fs "/ot" "old content";
      let fd = fs.open_ "/ot" Fsapi.Flags.create_trunc in
      Util.check_int (name ^ ": size 0") 0 (fs.fstat fd).Fsapi.Fs.st_size;
      Fsapi.Fs.write_string fs fd "new";
      fs.close fd;
      Util.check_str (name ^ ": new content") "new" (Fsapi.Fs.read_file fs "/ot"))

let test_dup_shares_offset =
  for_each_mode (fun mode _u fs ->
      let name = Splitfs.Config.mode_to_string mode in
      Fsapi.Fs.write_file fs "/dp" "abcdef";
      let fd = fs.open_ "/dp" Fsapi.Flags.rdonly in
      let fd2 = fs.dup fd in
      let b = Bytes.create 2 in
      ignore (fs.read fd ~buf:b ~boff:0 ~len:2);
      ignore (fs.read fd2 ~buf:b ~boff:0 ~len:2);
      Util.check_str (name ^ ": dup shares offset") "cd" (Bytes.to_string b);
      fs.close fd;
      fs.close fd2)

let test_oplog_checkpoint_on_full () =
  (* tiny log: 64 entries; write more ops than that *)
  let cfg =
    {
      (Util.small_splitfs_cfg Splitfs.Config.Strict) with
      Splitfs.Config.oplog_size = 64 * 64;
    }
  in
  let _env, _kfs, _sys, u, fs = Util.make_splitfs ~cfg () in
  let fd = fs.open_ "/ckpt" Fsapi.Flags.create_rw in
  let chunk = Bytes.make 100 'c' in
  for _ = 1 to 200 do
    ignore (fs.write fd ~buf:chunk ~boff:0 ~len:100)
  done;
  Util.check_int "all appends applied" 20000 (fs.fstat fd).Fsapi.Fs.st_size;
  let s = Fsapi.Fs.pread_exact fs fd ~len:20000 ~at:0 in
  Alcotest.(check bool) "content" true (String.for_all (fun c -> c = 'c') s);
  (match Splitfs.Usplit.oplog u with
  | Some log ->
      Alcotest.(check bool) "log was checkpointed" true
        (Splitfs.Oplog.entries_written log < 200)
  | None -> Alcotest.fail "strict mode has a log");
  fs.close fd

let test_dram_staging_functional () =
  (* the section-4 DRAM-staging design must still be functionally correct:
     staged data readable, fsync copies it into the file *)
  let cfg =
    {
      (Util.small_splitfs_cfg Splitfs.Config.Posix) with
      Splitfs.Config.staging_in_dram = true;
    }
  in
  let env, _kfs, sys, _u, fs = Util.make_splitfs ~cfg () in
  let fd = fs.open_ "/dram" Fsapi.Flags.create_rw in
  let content = Util.pattern ~seed:33 20000 in
  Fsapi.Fs.write_string fs fd content;
  Util.check_str "read staged from DRAM" content
    (Fsapi.Fs.pread_exact fs fd ~len:20000 ~at:0);
  let copied0 = env.Pmem.Env.stats.Pmem.Stats.relink_copied_bytes in
  fs.fsync fd;
  (* no relink possible: everything is copied *)
  Util.check_int "fsync copied all staged bytes" (copied0 + 20000)
    env.Pmem.Env.stats.Pmem.Stats.relink_copied_bytes;
  Util.check_str "durable via kernel" content
    (let kfd = Kernelfs.Syscall.open_ sys "/dram" Fsapi.Flags.rdonly in
     let buf = Bytes.create 20000 in
     ignore (Kernelfs.Syscall.pread sys kfd ~buf ~boff:0 ~len:20000 ~at:0);
     Kernelfs.Syscall.close sys kfd;
     Bytes.to_string buf);
  fs.close fd

let test_memory_usage_reported () =
  let _env, _kfs, _sys, u, fs = Util.make_splitfs ~mode:Splitfs.Config.Strict () in
  for i = 0 to 9 do
    Fsapi.Fs.write_file fs (Printf.sprintf "/m%d" i) (String.make 5000 'm')
  done;
  Alcotest.(check bool) "nonzero memory usage" true
    (Splitfs.Usplit.memory_usage u > 0)

(* --- §5.3 equivalence: same random ops on SplitFS and on raw ext4 --- *)

let prop_equiv_with_ext4 mode =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "splitfs-%s final state equals ext4 DAX"
         (Splitfs.Config.mode_to_string mode))
    ~count:40
    Test_ext4.arb_ops
    (fun ops ->
      let _e1, _k1, _s1, _u, split_fs = Util.make_splitfs ~mode () in
      let _e2, _k2, sys2 = Util.make_kernel () in
      let ext4_fs = Kernelfs.Syscall.as_fsapi sys2 in
      let ok = ref true in
      List.iter
        (fun op ->
          let a = Test_ext4.apply_op split_fs op in
          let b = Test_ext4.apply_op ext4_fs op in
          if a <> b then ok := false)
        ops;
      !ok && Test_ext4.final_states_agree split_fs ext4_fs)

(* --- cached mappings stay exact ---------------------------------------- *)

(* Every kernel change of a file's blocks (a hole-filling, past-EOF,
   degraded or copy-on-write kernel write, a relinked extent) refreshes
   the cached mappings over the bytes it changed, and only those. Random
   overwrites, appends, writes past EOF, fsyncs, checkpoints, truncates
   and snapshots on two files, with 16 KiB mmap regions so a file spans
   several: after every op each cached mapping equals, page for page, a
   fresh derivation from its file's extent tree. *)
type mop =
  | Overwrite of int * int * int
  | Append of int * int
  | Past_eof of int * int * int
  | Fsync of int
  | Checkpoint
  | Truncate of int * int
  | Snapshot of int

let arb_mops =
  let open QCheck.Gen in
  let file = int_bound 1 and len = int_range 1 9000 in
  let mop =
    frequency
      [
        (4, map3 (fun f o l -> Overwrite (f, o, l)) file nat len);
        (4, map2 (fun f l -> Append (f, l)) file len);
        (2, map3 (fun f g l -> Past_eof (f, g, l)) file (int_range 1 20000) len);
        (3, map (fun f -> Fsync f) file);
        (1, return Checkpoint);
        (1, map2 (fun f n -> Truncate (f, n)) file nat);
        (1, map (fun f -> Snapshot f) file);
      ]
  in
  QCheck.make (list_size (int_range 1 40) mop)

let prop_mappings_exact mode =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "splitfs-%s cached mappings match the extent tree"
         (Splitfs.Config.mode_to_string mode))
    ~count:30 arb_mops
    (fun ops ->
      let cfg =
        {
          (Util.small_splitfs_cfg mode) with
          Splitfs.Config.mmap_size = 16 * 1024;
        }
      in
      let _env, kfs, _sys, u, fs = Util.make_splitfs ~mode ~cfg () in
      let paths = [| "/a"; "/b" |] in
      let fds = Array.map (fun p -> fs.open_ p Fsapi.Flags.create_rw) paths in
      let size f = (fs.fstat fds.(f)).Fsapi.Fs.st_size in
      let write f at len =
        let buf = Bytes.make len (Char.chr (65 + (at mod 26))) in
        ignore (fs.pwrite fds.(f) ~buf ~boff:0 ~len ~at)
      in
      List.for_all
        (fun op ->
          (match op with
          | Overwrite (f, o, l) ->
              write f (if size f = 0 then 0 else o mod size f) l
          | Append (f, l) -> write f (size f) l
          | Past_eof (f, g, l) -> write f (size f + g) l
          | Fsync f -> fs.fsync fds.(f)
          | Checkpoint -> Splitfs.Usplit.relink_all u
          | Truncate (f, n) -> fs.ftruncate fds.(f) (n mod (size f + 8192))
          | Snapshot f -> Splitfs.Usplit.snapshot u paths.(f) "/snap");
          Kernelfs.Ext4.stale_mappings kfs = [])
        ops)

(* --- staging pool ------------------------------------------------------ *)

let staging_pool ~count =
  let env, _kfs, sys = Util.make_kernel () in
  Splitfs.Staging.create ~sys ~env ~instance:0 ~count ~file_size:(64 * 1024) ()

(* The pool hands out handles first in, first out. Three rotations, each
   taking every pooled handle and returning them in another order: the
   first overruns the pool by one (a foreground handle joins it), the
   second returns one handle used up (it is retired and a background
   replacement joins first). A final drain shows the order left behind. *)
let test_staging_pool_order () =
  let module S = Splitfs.Staging in
  let pool = staging_pool ~count:3 in
  let take n = List.init n (fun _ -> S.acquire pool) in
  let ids hs = List.map (fun h -> h.S.h_id) hs in
  let give order hs =
    List.iter (fun id -> S.release pool (List.find (fun h -> h.S.h_id = id) hs))
      order
  in
  let r1 = take 4 in
  Alcotest.(check (list int)) "rotation 1" [ 0; 1; 2; 3 ] (ids r1);
  give [ 2; 0; 3; 1 ] r1;
  let r2 = take 4 in
  Alcotest.(check (list int)) "rotation 2" [ 2; 0; 3; 1 ] (ids r2);
  let used = List.find (fun h -> h.S.h_id = 1) r2 in
  ignore (S.reserve used ~align_rem:0 (S.remaining used));
  give [ 1; 3; 2; 0 ] r2;
  Util.check_int "retired handle replaced" 4 (S.live_files pool);
  let r3 = take 4 in
  Alcotest.(check (list int)) "rotation 3" [ 4; 3; 2; 0 ] (ids r3);
  give [ 0; 2; 3; 4 ] r3;
  Util.check_int "all pooled" 4 (S.pool_size pool);
  Alcotest.(check (list int)) "left behind" [ 0; 2; 3; 4 ] (ids (take 4));
  Util.check_int "drained" 0 (S.pool_size pool)

(* A warm release/acquire cycle allocates nothing: no queue cell that
   could be promoted behind an old one. Native-only, like the clock
   funnel pin in test_obs.ml. *)
let test_staging_cycle_alloc_free () =
  match Sys.backend_type with
  | Sys.Native ->
      let module S = Splitfs.Staging in
      let pool = staging_pool ~count:2 in
      let cycle () = S.release pool (S.acquire pool) in
      for _ = 1 to 100 do cycle () done;
      let w0 = Gc.minor_words () in
      for _ = 1 to 1000 do cycle () done;
      let words = Gc.minor_words () -. w0 in
      if words <> 0. then
        Alcotest.failf "1000 release/acquire cycles allocated %.0f words" words
  | _ -> ()

let suite =
  [
    tc "roundtrip in all modes" `Quick test_roundtrip;
    tc "read staged appends before fsync" `Quick test_append_read_before_fsync;
    tc "appends invisible to kernel until fsync" `Quick
      test_append_not_in_kernel_until_fsync;
    tc "relink on close" `Quick test_relink_on_close;
    tc "block-aligned appends: zero-copy relink" `Quick
      test_block_aligned_append_no_copy;
    tc "EOF-tail appends relink with zero copy" `Quick
      test_unaligned_append_tail_zero_copy;
    tc "appends over an unaligned size copy only the head" `Quick
      test_unaligned_append_copies_only_head;
    tc "POSIX overwrites are in-place" `Quick test_overwrite_in_place_posix;
    tc "strict overwrites staged then relinked" `Quick
      test_strict_overwrite_staged_then_relinked;
    tc "mixed appends and overwrites" `Quick test_mixed_append_overwrite;
    tc "ftruncate drops staged tail" `Quick test_ftruncate_drops_staged;
    tc "ftruncate into staged bytes drops the rest" `Quick
      test_ftruncate_cuts_staged_bytes;
    tc "ftruncate grows sparsely" `Quick test_ftruncate_grow_sparse;
    tc "staging exhaustion forces early relink" `Quick
      test_staging_exhaustion_midstream;
    tc "unstageable write takes the kernel path" `Quick
      test_unstageable_write_degrades;
    tc "unlink cleans up" `Quick test_unlink_cleans_up;
    tc "unlink while open keeps data" `Quick test_unlink_while_open_keeps_data;
    tc "reaped files leave no kernel mappings" `Quick
      test_reaped_mappings_dropped;
    tc "retained mappings stay one per block" `Quick
      test_retained_mappings_bounded;
    tc "truncated files leave no kernel mappings" `Quick
      test_truncated_mappings_dropped;
    tc "two clients see one block map" `Quick test_two_clients_one_block_map;
    tc "rename updates attribute cache" `Quick test_rename_updates_cache;
    tc "O_TRUNC resets state" `Quick test_open_trunc_resets;
    tc "dup shares offset" `Quick test_dup_shares_offset;
    tc "oplog checkpoint when full" `Quick test_oplog_checkpoint_on_full;
    tc "DRAM staging ablation functional" `Quick test_dram_staging_functional;
    tc "memory usage reported" `Quick test_memory_usage_reported;
    tc "staging pool hands out handles FIFO" `Quick test_staging_pool_order;
    tc "staging release/acquire allocates nothing" `Quick
      test_staging_cycle_alloc_free;
    QCheck_alcotest.to_alcotest (prop_equiv_with_ext4 Splitfs.Config.Posix);
    QCheck_alcotest.to_alcotest (prop_equiv_with_ext4 Splitfs.Config.Sync);
    QCheck_alcotest.to_alcotest (prop_equiv_with_ext4 Splitfs.Config.Strict);
  ]
  @ List.map
      (fun mode -> QCheck_alcotest.to_alcotest (prop_mappings_exact mode))
      Splitfs.Config.[ Posix; Sync; Strict; Fams ]
