(** The shared POSIX surface: helper functions, flag semantics, the
    reference file system itself, and the jbd2-like journal accounting. *)

let tc = Alcotest.test_case

let test_flags () =
  let f = Fsapi.Flags.create_trunc in
  Alcotest.(check bool) "writable" true (Fsapi.Flags.writable f);
  Alcotest.(check bool) "not readable" false (Fsapi.Flags.readable f);
  Alcotest.(check bool) "creat" true f.Fsapi.Flags.creat;
  Alcotest.(check bool) "trunc" true f.Fsapi.Flags.trunc;
  let a = Fsapi.Flags.(append rdwr) in
  Alcotest.(check bool) "rdwr readable+writable" true
    (Fsapi.Flags.readable a && Fsapi.Flags.writable a && a.Fsapi.Flags.append)

let with_ref f = f (Fsapi.Ref_fs.make ())

let test_helpers_roundtrip () =
  with_ref (fun fs ->
      Fsapi.Fs.mkdir_p fs "/a/b/c";
      Fsapi.Fs.write_file fs "/a/b/c/x" "deep content";
      Util.check_str "read_file" "deep content" (Fsapi.Fs.read_file fs "/a/b/c/x");
      Util.check_int "file_size" 12 (Fsapi.Fs.file_size fs "/a/b/c/x");
      Alcotest.(check bool) "exists" true (Fsapi.Fs.exists fs "/a/b/c/x");
      Alcotest.(check bool) "not exists" false (Fsapi.Fs.exists fs "/a/b/nope");
      (* mkdir_p is idempotent *)
      Fsapi.Fs.mkdir_p fs "/a/b/c")

let test_pread_exact_raises_at_eof () =
  with_ref (fun fs ->
      Fsapi.Fs.write_file fs "/short" "abc";
      let fd = fs.Fsapi.Fs.open_ "/short" Fsapi.Flags.rdonly in
      Alcotest.check_raises "eof"
        (Fsapi.Errno.Error (Fsapi.Errno.EINVAL, "pread_exact: eof"))
        (fun () -> ignore (Fsapi.Fs.pread_exact fs fd ~len:10 ~at:0)))

let test_ref_fs_is_posixish () =
  with_ref (fun fs ->
      (* a quick sanity pass over the model itself, since every other file
         system is judged against it *)
      let fd = fs.Fsapi.Fs.open_ "/f" Fsapi.Flags.create_rw in
      Fsapi.Fs.pwrite_string fs fd "xyz" ~at:5;
      Util.check_int "sparse size" 8 (fs.Fsapi.Fs.fstat fd).Fsapi.Fs.st_size;
      let s = Fsapi.Fs.pread_exact fs fd ~len:8 ~at:0 in
      Util.check_str "hole zeros" "\000\000\000\000\000xyz" s;
      fs.Fsapi.Fs.ftruncate fd 6;
      Util.check_int "truncated" 6 (fs.Fsapi.Fs.fstat fd).Fsapi.Fs.st_size;
      fs.Fsapi.Fs.close fd;
      Alcotest.check_raises "EBADF after close"
        (Fsapi.Errno.Error (Fsapi.Errno.EBADF, string_of_int fd))
        (fun () -> fs.Fsapi.Fs.fsync fd))

let test_errno_printer () =
  Util.check_str "printer registered" "ENOENT \"/x\""
    (Printexc.to_string (Fsapi.Errno.Error (Fsapi.Errno.ENOENT, "/x")))

let test_crc32_known_vector () =
  (* standard CRC-32 of "123456789" is 0xCBF43926 *)
  Util.check_int "check vector" 0xCBF43926 (Fsapi.Crc32.string "123456789");
  Util.check_int "empty" 0 (Fsapi.Crc32.string "")

(* Byte-at-a-time CRC-32, the definition [Fsapi.Crc32.update]'s
   word-at-a-time loop must reproduce bit for bit. *)
let reference_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let reference_crc crc buf ~off ~len =
  let c = ref (crc lxor 0xFFFFFFFF) in
  for i = off to off + len - 1 do
    c :=
      reference_table.((!c lxor Char.code (Bytes.get buf i)) land 0xFF)
      lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let random_bytes ~seed len =
  let rng = Workloads.Rng.create seed in
  Bytes.init len (fun _ -> Char.chr (Workloads.Rng.int rng 256))

let test_crc32_matches_reference () =
  let buf = random_bytes ~seed:0xC3C 4200 in
  let check ~off ~len =
    let want = reference_crc 0 buf ~off ~len in
    let got = Fsapi.Crc32.update 0 buf ~off ~len in
    if got <> want then
      Alcotest.failf "off %d len %d: got 0x%08X, reference 0x%08X" off len got
        want
  in
  for off = 0 to 15 do
    for len = 0 to 300 do
      check ~off ~len
    done;
    List.iter (fun len -> check ~off ~len) [ 4095; 4096; 4103 ]
  done;
  (* a different buffer, so a table indexing slip cannot hide behind one
     lucky byte pattern *)
  let other = random_bytes ~seed:7 4103 in
  Util.check_int "second buffer"
    (reference_crc 0 other ~off:0 ~len:4103)
    (Fsapi.Crc32.update 0 other ~off:0 ~len:4103)

let test_crc32_chains () =
  let buf = random_bytes ~seed:0xC4A1 600 in
  List.iter
    (fun (a, b) ->
      let whole = Fsapi.Crc32.update 0 buf ~off:3 ~len:(a + b) in
      let chained =
        Fsapi.Crc32.update
          (Fsapi.Crc32.update 0 buf ~off:3 ~len:a)
          buf ~off:(3 + a) ~len:b
      in
      Util.check_int (Printf.sprintf "split %d + %d" a b) whole chained;
      Util.check_int
        (Printf.sprintf "reference %d + %d" a b)
        (reference_crc 0 buf ~off:3 ~len:(a + b))
        chained)
    [ (0, 0); (0, 17); (1, 15); (7, 9); (16, 16); (15, 300); (33, 555) ]

let test_crc32_range_checked () =
  let buf = Bytes.make 32 'c' in
  List.iter
    (fun (off, len) ->
      match Fsapi.Crc32.update 0 buf ~off ~len with
      | _ -> Alcotest.failf "off %d len %d: no Invalid_argument" off len
      | exception Invalid_argument _ -> ())
    [ (-1, 4); (0, -1); (0, 33); (17, 16); (32, 1); (33, 0); (max_int, 2) ];
  Util.check_int "empty range at the end" 0
    (Fsapi.Crc32.update 0 buf ~off:32 ~len:0)

let test_journal_accounting () =
  let env = Util.make_env () in
  let j =
    Kernelfs.Journal.create ~env ~region_start:0 ~region_len:(1024 * 1024)
      ~block_size:4096 ()
  in
  let s = env.Pmem.Env.stats in
  Kernelfs.Journal.commit j ~meta_blocks:3;
  Util.check_int "one commit" 1 s.Pmem.Stats.journal_commits;
  (* descriptor + 3 metadata copies + commit record = 5 blocks *)
  Util.check_int "journal bytes" (5 * 4096) s.Pmem.Stats.journal_bytes;
  (* one fence per commit since the blocks-before-record fence was
     proven redundant and removed (PR 7 fence minimization) *)
  Util.check_int "one fence" 1 s.Pmem.Stats.fences;
  (* empty transactions are free *)
  Kernelfs.Journal.commit j ~meta_blocks:0;
  Util.check_int "still one commit" 1 s.Pmem.Stats.journal_commits;
  (* the journal region wraps rather than overflowing *)
  for _ = 1 to 200 do
    Kernelfs.Journal.commit j ~meta_blocks:4
  done;
  Util.check_int "commits counted" 201 (Kernelfs.Journal.commits j)

let test_zipf_deterministic () =
  let sample seed =
    let rng = Workloads.Rng.create seed in
    let z = Workloads.Zipf.create 100 in
    List.init 50 (fun _ -> Workloads.Zipf.sample z rng)
  in
  Alcotest.(check (list int)) "same seed, same stream" (sample 5) (sample 5)

let test_str_split () =
  Alcotest.(check (list string)) "basic" [ "a"; "b"; "c" ]
    (Apps.Str_split.split_on_string ~sep:"--" "a--b--c");
  Alcotest.(check (list string)) "no sep" [ "abc" ]
    (Apps.Str_split.split_on_string ~sep:"--" "abc");
  Alcotest.(check (list string)) "trailing" [ "a"; "" ]
    (Apps.Str_split.split_on_string ~sep:"--" "a--")

let suite =
  [
    tc "flag combinators" `Quick test_flags;
    tc "fs helpers" `Quick test_helpers_roundtrip;
    tc "pread_exact raises at EOF" `Quick test_pread_exact_raises_at_eof;
    tc "reference FS POSIX semantics" `Quick test_ref_fs_is_posixish;
    tc "errno printer" `Quick test_errno_printer;
    tc "crc32 check vector" `Quick test_crc32_known_vector;
    tc "crc32 matches byte-at-a-time reference" `Quick
      test_crc32_matches_reference;
    tc "crc32 chained updates" `Quick test_crc32_chains;
    tc "crc32 range checked" `Quick test_crc32_range_checked;
    tc "journal accounting" `Quick test_journal_accounting;
    tc "zipf deterministic" `Quick test_zipf_deterministic;
    tc "split_on_string" `Quick test_str_split;
  ]
