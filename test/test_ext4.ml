(** Kernel file system (simulated ext4 DAX): POSIX behaviour, extents,
    relink, DAX mmap, and a model-based equivalence test
    against the in-memory reference file system. *)

let tc = Alcotest.test_case

let with_fs f =
  let _env, _kfs, sys = Util.make_kernel () in
  f (Kernelfs.Syscall.as_fsapi sys)

let test_create_write_read () =
  with_fs (fun fs ->
      let got = Util.fs_write_read_roundtrip fs "/a.txt" "hello ext4" in
      Util.check_str "roundtrip" "hello ext4" got)

let test_big_file () =
  with_fs (fun fs ->
      let content = Util.pattern ~seed:7 (300 * 1024) in
      let got = Util.fs_write_read_roundtrip fs "/big" content in
      Util.check_str "300K roundtrip" content got)

let test_sparse_read_zeroes () =
  with_fs (fun fs ->
      let fd = fs.open_ "/sparse" Fsapi.Flags.create_rw in
      Fsapi.Fs.pwrite_string fs fd "end" ~at:10000;
      let s = Fsapi.Fs.pread_exact fs fd ~len:10003 ~at:0 in
      Util.check_str "hole is zeros" (String.make 10000 '\000' ^ "end") s;
      fs.close fd)

let test_overwrite () =
  with_fs (fun fs ->
      Fsapi.Fs.write_file fs "/f" "aaaaaaaaaa";
      let fd = fs.open_ "/f" Fsapi.Flags.rdwr in
      Fsapi.Fs.pwrite_string fs fd "BB" ~at:4;
      fs.close fd;
      Util.check_str "overwritten" "aaaaBBaaaa" (Fsapi.Fs.read_file fs "/f"))

let test_unlink () =
  with_fs (fun fs ->
      Fsapi.Fs.write_file fs "/doomed" "x";
      fs.unlink "/doomed";
      Alcotest.(check bool) "gone" false (Fsapi.Fs.exists fs "/doomed"))

let test_unlink_frees_blocks () =
  let _env, kfs, sys = Util.make_kernel () in
  let fs = Kernelfs.Syscall.as_fsapi sys in
  let free0 = Kernelfs.Alloc.free_blocks (Kernelfs.Ext4.allocator kfs) in
  Fsapi.Fs.write_file fs "/blob" (String.make 65536 'b');
  Alcotest.(check bool) "blocks consumed" true
    (Kernelfs.Alloc.free_blocks (Kernelfs.Ext4.allocator kfs) < free0);
  fs.unlink "/blob";
  Util.check_int "blocks back" free0
    (Kernelfs.Alloc.free_blocks (Kernelfs.Ext4.allocator kfs))

let test_unlink_while_open () =
  with_fs (fun fs ->
      Fsapi.Fs.write_file fs "/held" "still here";
      let fd = fs.open_ "/held" Fsapi.Flags.rdonly in
      fs.unlink "/held";
      let s = Fsapi.Fs.pread_exact fs fd ~len:10 ~at:0 in
      Util.check_str "readable after unlink" "still here" s;
      fs.close fd)

let test_rename () =
  with_fs (fun fs ->
      Fsapi.Fs.write_file fs "/old" "content";
      fs.rename "/old" "/new";
      Alcotest.(check bool) "old gone" false (Fsapi.Fs.exists fs "/old");
      Util.check_str "moved" "content" (Fsapi.Fs.read_file fs "/new"))

let test_rename_overwrites () =
  with_fs (fun fs ->
      Fsapi.Fs.write_file fs "/src" "SRC";
      Fsapi.Fs.write_file fs "/dst" "DST";
      fs.rename "/src" "/dst";
      Util.check_str "replaced" "SRC" (Fsapi.Fs.read_file fs "/dst"))

let test_directories () =
  with_fs (fun fs ->
      fs.mkdir "/d";
      fs.mkdir "/d/e";
      Fsapi.Fs.write_file fs "/d/e/f.txt" "deep";
      Alcotest.(check (list string)) "listing" [ "e" ] (fs.readdir "/d");
      Util.check_str "deep read" "deep" (Fsapi.Fs.read_file fs "/d/e/f.txt");
      Alcotest.check_raises "rmdir nonempty"
        (Fsapi.Errno.Error (Fsapi.Errno.ENOTEMPTY, "/d/e"))
        (fun () -> fs.rmdir "/d/e");
      fs.unlink "/d/e/f.txt";
      fs.rmdir "/d/e";
      Alcotest.(check (list string)) "empty" [] (fs.readdir "/d"))

let test_errors () =
  with_fs (fun fs ->
      Alcotest.check_raises "ENOENT"
        (Fsapi.Errno.Error (Fsapi.Errno.ENOENT, "missing"))
        (fun () -> ignore (fs.open_ "/missing" Fsapi.Flags.rdonly));
      Fsapi.Fs.write_file fs "/f" "x";
      Alcotest.check_raises "EEXIST"
        (Fsapi.Errno.Error (Fsapi.Errno.EEXIST, "/f"))
        (fun () ->
          ignore (fs.open_ "/f" Fsapi.Flags.(excl (creat rdwr)))))

let test_ftruncate () =
  with_fs (fun fs ->
      let fd = fs.open_ "/t" Fsapi.Flags.create_rw in
      Fsapi.Fs.write_string fs fd "0123456789";
      fs.ftruncate fd 4;
      Util.check_int "shrunk" 4 (fs.fstat fd).Fsapi.Fs.st_size;
      fs.ftruncate fd 8;
      let s = Fsapi.Fs.pread_exact fs fd ~len:8 ~at:0 in
      Util.check_str "zero extended" "0123\000\000\000\000" s;
      fs.close fd)

let test_append_mode () =
  with_fs (fun fs ->
      let fd = fs.open_ "/log" Fsapi.Flags.(append (creat wronly)) in
      Fsapi.Fs.write_string fs fd "one ";
      Fsapi.Fs.write_string fs fd "two";
      fs.close fd;
      Util.check_str "appended" "one two" (Fsapi.Fs.read_file fs "/log"))

let test_dup_shares_offset () =
  with_fs (fun fs ->
      Fsapi.Fs.write_file fs "/d" "abcdef";
      let fd = fs.open_ "/d" Fsapi.Flags.rdonly in
      let fd2 = fs.dup fd in
      let b = Bytes.create 2 in
      ignore (fs.read fd ~buf:b ~boff:0 ~len:2);
      ignore (fs.read fd2 ~buf:b ~boff:0 ~len:2);
      Util.check_str "dup offset shared" "cd" (Bytes.to_string b);
      fs.close fd;
      fs.close fd2)

(* --- relink --- *)

let test_relink_moves_data () =
  let env, kfs, sys = Util.make_kernel () in
  let fs = Kernelfs.Syscall.as_fsapi sys in
  let staged = Util.pattern ~seed:3 16384 in
  Fsapi.Fs.write_file fs "/staging" staged;
  Fsapi.Fs.write_file fs "/target" "";
  let sfd = fs.open_ "/staging" Fsapi.Flags.rdwr in
  let tfd = fs.open_ "/target" Fsapi.Flags.rdwr in
  let wrote0 = env.Pmem.Env.stats.Pmem.Stats.pm_write_bytes in
  let journal0 = env.Pmem.Env.stats.Pmem.Stats.journal_bytes in
  Kernelfs.Syscall.relink sys ~src_fd:sfd ~src_blk:0 ~dst_fd:tfd ~dst_blk:0
    ~nblks:4 ~dst_size:(Some 16384);
  let wrote1 = env.Pmem.Env.stats.Pmem.Stats.pm_write_bytes in
  let journal1 = env.Pmem.Env.stats.Pmem.Stats.journal_bytes in
  Util.check_str "target holds staged data" staged (Fsapi.Fs.read_file fs "/target");
  Util.check_int "staging now sparse" 0
    (Kernelfs.Extent_tree.blocks
       (Kernelfs.Syscall.inode_of_fd sys sfd).Kernelfs.Ext4.extents);
  (* metadata-only: all PM writes of the relink are journal traffic, none of
     the 16 KB of file data is copied *)
  Util.check_int "only journal writes" (journal1 - journal0) (wrote1 - wrote0);
  Util.check_int "relink counted" 1 env.Pmem.Env.stats.Pmem.Stats.relinks;
  ignore kfs;
  fs.close sfd;
  fs.close tfd

let test_relink_replaces_blocks () =
  let _env, kfs, sys = Util.make_kernel () in
  let fs = Kernelfs.Syscall.as_fsapi sys in
  let old_data = String.make 8192 'o' and new_data = Util.pattern ~seed:9 8192 in
  Fsapi.Fs.write_file fs "/t" old_data;
  Fsapi.Fs.write_file fs "/s" new_data;
  let free0 = Kernelfs.Alloc.free_blocks (Kernelfs.Ext4.allocator kfs) in
  let sfd = fs.open_ "/s" Fsapi.Flags.rdwr and tfd = fs.open_ "/t" Fsapi.Flags.rdwr in
  Kernelfs.Syscall.relink sys ~src_fd:sfd ~src_blk:0 ~dst_fd:tfd ~dst_blk:0
    ~nblks:2 ~dst_size:None;
  Util.check_str "replaced" new_data (Fsapi.Fs.read_file fs "/t");
  (* the replaced blocks of /t must have been freed *)
  Util.check_int "replaced blocks freed" (free0 + 2)
    (Kernelfs.Alloc.free_blocks (Kernelfs.Ext4.allocator kfs));
  fs.close sfd;
  fs.close tfd

(* --- fallocate and mmap --- *)

let test_fallocate_and_mmap () =
  let env, kfs, sys = Util.make_kernel () in
  let fs = Kernelfs.Syscall.as_fsapi sys in
  let fd = fs.open_ "/m" Fsapi.Flags.create_rw in
  let allocated = Kernelfs.Syscall.fallocate sys fd ~off:0 ~len:(2 * 1024 * 1024) in
  Util.check_int "512 blocks allocated" 512 allocated;
  let m = Kernelfs.Syscall.mmap sys fd ~off:0 ~len:(2 * 1024 * 1024) in
  Alcotest.(check bool) "huge mapping" true m.Kernelfs.Ext4.m_huge;
  Util.check_int "one huge fault" 1 env.Pmem.Env.stats.Pmem.Stats.page_faults_huge;
  (* store through the mapping, read back through the kernel *)
  (match Kernelfs.Ext4.translate kfs m ~max:4096 ~file_off:4096 with
  | Some (addr, run) ->
      Alcotest.(check bool) "long run" true (run >= 4096);
      let data = Bytes.of_string "via-mmap" in
      Pmem.Device.store_nt env.Pmem.Env.dev ~addr data ~off:0 ~len:8
  | None -> Alcotest.fail "expected translation");
  Kernelfs.Syscall.set_size sys fd 8192;
  let s = Fsapi.Fs.pread_exact fs fd ~len:8 ~at:4096 in
  Util.check_str "store visible through kernel read" "via-mmap" s;
  fs.close fd

let test_mmap_small_file_not_huge () =
  let env, _kfs, sys = Util.make_kernel () in
  let fs = Kernelfs.Syscall.as_fsapi sys in
  Fsapi.Fs.write_file fs "/small" (String.make 8192 's');
  let fd = fs.open_ "/small" Fsapi.Flags.rdwr in
  let m = Kernelfs.Syscall.mmap sys fd ~off:0 ~len:8192 in
  Alcotest.(check bool) "not huge" false m.Kernelfs.Ext4.m_huge;
  Util.check_int "two 4K faults" 2 env.Pmem.Env.stats.Pmem.Stats.page_faults;
  fs.close fd

(* --- model-based equivalence with the reference FS --- *)

type op =
  | Write of int * int * int  (* file idx, offset, length *)
  | Read of int * int * int
  | Trunc of int * int
  | Unlink of int
  | Renam of int * int

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map3 (fun f o l -> Write (f, o, l)) (int_bound 3) (int_bound 20000) (int_range 1 5000));
        (3, map3 (fun f o l -> Read (f, o, l)) (int_bound 3) (int_bound 25000) (int_range 1 5000));
        (1, map2 (fun f s -> Trunc (f, s)) (int_bound 3) (int_bound 20000));
        (1, map (fun f -> Unlink f) (int_bound 3));
        (1, map2 (fun a b -> Renam (a, b)) (int_bound 3) (int_bound 3));
      ])

let show_op = function
  | Write (f, o, l) -> Printf.sprintf "Write(%d,%d,%d)" f o l
  | Read (f, o, l) -> Printf.sprintf "Read(%d,%d,%d)" f o l
  | Trunc (f, s) -> Printf.sprintf "Trunc(%d,%d)" f s
  | Unlink f -> Printf.sprintf "Unlink(%d)" f
  | Renam (a, b) -> Printf.sprintf "Renam(%d,%d)" a b

let show_ops ops = String.concat "; " (List.map show_op ops)

let arb_ops =
  QCheck.make ~print:show_ops QCheck.Gen.(list_size (int_range 1 40) op_gen)

let path_of i = Printf.sprintf "/f%d" i

let apply_op (fs : Fsapi.Fs.t) op =
  let open_rw i = fs.open_ (path_of i) Fsapi.Flags.create_rw in
  match op with
  | Write (f, off, len) ->
      let fd = open_rw f in
      let buf = Bytes.of_string (Util.pattern ~seed:(f + off + len) len) in
      ignore (fs.pwrite fd ~buf ~boff:0 ~len ~at:off);
      fs.close fd;
      None
  | Read (f, off, len) ->
      let fd = open_rw f in
      let buf = Bytes.make len '\255' in
      let n = fs.pread fd ~buf ~boff:0 ~len ~at:off in
      fs.close fd;
      Some (n, Bytes.sub_string buf 0 n)
  | Trunc (f, size) ->
      let fd = open_rw f in
      fs.ftruncate fd size;
      fs.close fd;
      None
  | Unlink f -> (
      match fs.unlink (path_of f) with
      | () -> None
      | exception Fsapi.Errno.Error (Fsapi.Errno.ENOENT, _) -> None)
  | Renam (a, b) -> (
      match fs.rename (path_of a) (path_of b) with
      | () -> None
      | exception Fsapi.Errno.Error (Fsapi.Errno.ENOENT, _) -> None)

let final_states_agree fs_a fs_b =
  List.for_all
    (fun i ->
      let read fs =
        match Fsapi.Fs.read_file fs (path_of i) with
        | s -> Some s
        | exception Fsapi.Errno.Error (Fsapi.Errno.ENOENT, _) -> None
      in
      read fs_a = read fs_b)
    [ 0; 1; 2; 3 ]

let prop_matches_reference =
  QCheck.Test.make ~name:"ext4 sim matches reference FS on random ops"
    ~count:60
    arb_ops
    (fun ops ->
      let _env, _kfs, sys = Util.make_kernel () in
      let fs = Kernelfs.Syscall.as_fsapi sys in
      let reference = Fsapi.Ref_fs.make () in
      let ok = ref true in
      List.iter
        (fun op ->
          let a = apply_op fs op and b = apply_op reference op in
          if a <> b then ok := false)
        ops;
      !ok && final_states_agree fs reference)

let suite =
  [
    tc "create, write, read" `Quick test_create_write_read;
    tc "large file" `Quick test_big_file;
    tc "sparse file reads zeros" `Quick test_sparse_read_zeroes;
    tc "overwrite" `Quick test_overwrite;
    tc "unlink" `Quick test_unlink;
    tc "unlink frees blocks" `Quick test_unlink_frees_blocks;
    tc "unlink while open" `Quick test_unlink_while_open;
    tc "rename" `Quick test_rename;
    tc "rename overwrites" `Quick test_rename_overwrites;
    tc "directories" `Quick test_directories;
    tc "error codes" `Quick test_errors;
    tc "ftruncate" `Quick test_ftruncate;
    tc "O_APPEND" `Quick test_append_mode;
    tc "dup shares offset" `Quick test_dup_shares_offset;
    tc "relink moves data without copy" `Quick test_relink_moves_data;
    tc "relink frees replaced blocks" `Quick test_relink_replaces_blocks;
    tc "fallocate gives huge-page mmap" `Quick test_fallocate_and_mmap;
    tc "small mmap uses 4K faults" `Quick test_mmap_small_file_not_huge;
    QCheck_alcotest.to_alcotest prop_matches_reference;
  ]
