(** Baseline PM file systems (NOVA, PMFS, Strata): functional correctness
    (equivalence with the reference model) plus the protocol properties the
    paper's comparisons rest on — NOVA's two-fence logging, Strata's 2×
    write amplification on appends, digest visibility. *)

let tc = Alcotest.test_case

let make_nova ?(mode = Baselines.Nova.Strict) () =
  let env = Util.make_env () in
  (env, Baselines.Nova.as_fsapi (Baselines.Nova.mkfs env ~mode))

let make_pmfs () =
  let env = Util.make_env () in
  (env, Baselines.Pmfs.as_fsapi (Baselines.Pmfs.mkfs env))

let make_strata ?log_len () =
  let env = Util.make_env () in
  let s = Baselines.Strata.mkfs ?log_len env in
  (env, s, Baselines.Strata.as_fsapi s)

let all_baselines () =
  [
    snd (make_nova ~mode:Baselines.Nova.Strict ());
    snd (make_nova ~mode:Baselines.Nova.Relaxed ());
    snd (make_pmfs ());
    (fun (_, _, fs) -> fs) (make_strata ());
  ]

let test_roundtrips () =
  List.iter
    (fun (fs : Fsapi.Fs.t) ->
      let content = Util.pattern ~seed:3 20000 in
      let got = Util.fs_write_read_roundtrip fs "/x" content in
      Util.check_str (fs.fs_name ^ ": roundtrip") content got)
    (all_baselines ())

let test_namespace_ops () =
  List.iter
    (fun (fs : Fsapi.Fs.t) ->
      fs.mkdir "/d";
      Fsapi.Fs.write_file fs "/d/a" "one";
      fs.rename "/d/a" "/d/b";
      Util.check_str (fs.fs_name ^ ": rename") "one" (Fsapi.Fs.read_file fs "/d/b");
      fs.unlink "/d/b";
      Alcotest.(check (list string)) (fs.fs_name ^ ": empty") [] (fs.readdir "/d"))
    (all_baselines ())

let test_nova_strict_cow_reuses_space () =
  let env, fs = make_nova ~mode:Baselines.Nova.Strict () in
  Fsapi.Fs.write_file fs "/c" (String.make 16384 'a');
  let fd = fs.open_ "/c" Fsapi.Flags.rdwr in
  (* overwrite the same block many times; COW must free old blocks, so
     space consumption stays bounded *)
  let buf = Bytes.make 4096 'b' in
  for _ = 1 to 50 do
    ignore (fs.pwrite fd ~buf ~boff:0 ~len:4096 ~at:0)
  done;
  fs.close fd;
  Util.check_str "content correct"
    (String.make 4096 'b' ^ String.make 12288 'a')
    (Fsapi.Fs.read_file fs "/c");
  ignore env

let test_nova_two_fences_per_write () =
  let env, fs = make_nova ~mode:Baselines.Nova.Strict () in
  Fsapi.Fs.write_file fs "/f" (String.make 4096 'x');
  let fd = fs.open_ "/f" Fsapi.Flags.rdwr in
  let f0 = env.Pmem.Env.stats.Pmem.Stats.fences in
  let buf = Bytes.make 4096 'y' in
  ignore (fs.pwrite fd ~buf ~boff:0 ~len:4096 ~at:0);
  let f1 = env.Pmem.Env.stats.Pmem.Stats.fences in
  (* the paper: NOVA issues two fences per logged operation (§3.3) *)
  Util.check_int "two fences" 2 (f1 - f0);
  fs.close fd

let test_strata_write_amplification () =
  (* append-heavy workload: Strata must write the data about twice (log +
     digest), SplitFS about once (staging + relink) — Table 7's point *)
  let payload = 512 * 1024 in
  (* measure only the workload: setup (log zeroing, staging pre-allocation)
     is excluded, as the paper measures steady-state write IO *)
  let run env (fs : Fsapi.Fs.t) =
    let fd = fs.open_ "/app" Fsapi.Flags.create_rw in
    let w0 = env.Pmem.Env.stats.Pmem.Stats.pm_write_bytes in
    let buf = Bytes.make 4096 'a' in
    for _ = 1 to payload / 4096 do
      ignore (fs.write fd ~buf ~boff:0 ~len:4096)
    done;
    fs.fsync fd;
    fs.close fd;
    env.Pmem.Env.stats.Pmem.Stats.pm_write_bytes - w0
  in
  let strata_writes =
    let env, s, fs = make_strata ~log_len:(256 * 1024) () in
    let fd = fs.open_ "/warm" Fsapi.Flags.create_rw in
    let w0 = env.Pmem.Env.stats.Pmem.Stats.pm_write_bytes in
    let buf = Bytes.make 4096 'a' in
    for _ = 1 to payload / 4096 do
      ignore (fs.write fd ~buf ~boff:0 ~len:4096)
    done;
    fs.fsync fd;
    (* the tail of the log is eventually digested too *)
    Baselines.Strata.digest_all s;
    fs.close fd;
    env.Pmem.Env.stats.Pmem.Stats.pm_write_bytes - w0
  in
  let splitfs_writes =
    let env, _, _, _, fs = Util.make_splitfs ~mode:Splitfs.Config.Strict () in
    run env fs
  in
  Alcotest.(check bool)
    (Printf.sprintf "strata(%d) writes ~2x splitfs(%d)" strata_writes
       splitfs_writes)
    true
    (float_of_int strata_writes > 1.5 *. float_of_int splitfs_writes)

let test_strata_digest_correctness () =
  (* log far smaller than the data: many digests, data must survive *)
  let env, s, fs = make_strata ~log_len:(128 * 1024) () in
  let content = Util.pattern ~seed:17 (400 * 1024) in
  let got = Util.fs_write_read_roundtrip fs "/big" content in
  Util.check_str "content survives digests" content got;
  Alcotest.(check bool) "digests happened" true (Baselines.Strata.digests s > 0);
  ignore env

let test_strata_no_trap_on_write () =
  let env, _s, fs = make_strata () in
  let fd = fs.open_ "/t" Fsapi.Flags.create_rw in
  let t0 = env.Pmem.Env.stats.Pmem.Stats.syscalls in
  let buf = Bytes.make 4096 'z' in
  ignore (fs.write fd ~buf ~boff:0 ~len:4096);
  Util.check_int "no kernel traps on the data path" t0
    env.Pmem.Env.stats.Pmem.Stats.syscalls;
  fs.close fd

let test_pmfs_sync_no_fsync_needed () =
  let env, fs = make_pmfs () in
  let fd = fs.open_ "/s" Fsapi.Flags.create_rw in
  let buf = Bytes.make 1000 's' in
  ignore (fs.write fd ~buf ~boff:0 ~len:1000);
  (* synchronous: after the write returns, nothing volatile remains *)
  Util.check_int "no dirty lines" 0 (Pmem.Device.dirty_lines env.Pmem.Env.dev);
  fs.close fd

let prop_baseline_matches_reference make name =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s matches reference FS" name)
    ~count:40 Test_ext4.arb_ops
    (fun ops ->
      let fs = make () in
      let reference = Fsapi.Ref_fs.make () in
      let ok = ref true in
      List.iter
        (fun op ->
          let a = Test_ext4.apply_op fs op in
          let b = Test_ext4.apply_op reference op in
          if a <> b then ok := false)
        ops;
      !ok && Test_ext4.final_states_agree fs reference)

(* --- charge pin: one script, each baseline's exact simulated cost --- *)

(** Every call of the POSIX surface, its errno paths included, run on
    [fs]; returns one line per step (a result or an errno). Fd numbers
    and inode numbers are left out so the lines compare across file
    systems. *)
let charge_script (fs : Fsapi.Fs.t) =
  let lines = ref [] in
  let step name f =
    let r =
      match f () with
      | r -> r
      | exception Fsapi.Errno.Error (e, _) -> Fsapi.Errno.to_string e
    in
    lines := (name ^ " -> " ^ r) :: !lines
  in
  let ok f () = f (); "ok" in
  let int = string_of_int in
  let bytes buf n =
    Printf.sprintf "%d %s" n (Digest.to_hex (Digest.subbytes buf 0 n))
  in
  let stat (s : Fsapi.Fs.stat) =
    Printf.sprintf "%s size=%d nlink=%d"
      (match s.st_kind with Fsapi.Fs.Regular -> "file" | Directory -> "dir")
      s.st_size s.st_nlink
  in
  let fd = ref (-1) and fd2 = ref (-1) and rfd = ref (-1) in
  let wfd = ref (-1) and afd = ref (-1) and big = ref (-1) in
  let open_ r path flags () =
    r := fs.open_ path flags;
    "fd"
  in
  let write r n c () = int (fs.write !r ~buf:(Bytes.make n c) ~boff:0 ~len:n) in
  let read r n () =
    let buf = Bytes.make n '?' in
    bytes buf (fs.read !r ~buf ~boff:0 ~len:n)
  in
  let pwrite r n c at () =
    int (fs.pwrite !r ~buf:(Bytes.make n c) ~boff:0 ~len:n ~at)
  in
  let pread r n at () =
    let buf = Bytes.make n '?' in
    bytes buf (fs.pread !r ~buf ~boff:0 ~len:n ~at)
  in
  let lseek r off whence () = int (fs.lseek !r off whence) in
  let open Fsapi.Flags in
  step "mkdir /d" (ok (fun () -> fs.mkdir "/d"));
  step "mkdir /d again" (ok (fun () -> fs.mkdir "/d"));
  step "create /d/a" (open_ fd "/d/a" create_rw);
  step "write 5000" (write fd 5000 'a');
  step "write 3000" (write fd 3000 'b');
  step "lseek set 100" (lseek fd 100 Set);
  step "read 200" (read fd 200);
  step "lseek cur 50" (lseek fd 50 Cur);
  step "lseek end -10" (lseek fd (-10) End);
  step "read at eof-10" (read fd 100);
  step "read at eof" (read fd 100);
  step "lseek set -1" (lseek fd (-1) Set);
  step "lseek end -9000" (lseek fd (-9000) End);
  step "dup" (fun () ->
      fd2 := fs.dup !fd;
      "fd");
  step "lseek dup set 4000" (lseek fd2 4000 Set);
  step "read shares offset" (read fd 2000);
  step "pwrite across a block" (pwrite fd 100 'c' 4090);
  step "pread across a block" (pread fd 200 4000);
  step "pwrite past eof" (pwrite fd 10 'x' 20000);
  step "pread a hole" (pread fd 100 12000);
  step "pread at -1" (pread fd 10 (-1));
  step "pwrite at -1" (pwrite fd 10 'y' (-1));
  step "pwrite len -1" (fun () ->
      int (fs.pwrite !fd ~buf:(Bytes.create 1) ~boff:0 ~len:(-1) ~at:0));
  step "fsync" (ok (fun () -> fs.fsync !fd));
  step "fstat" (fun () -> stat (fs.fstat !fd));
  step "ftruncate 6000" (ok (fun () -> fs.ftruncate !fd 6000));
  step "ftruncate -1" (ok (fun () -> fs.ftruncate !fd (-1)));
  step "pread the new eof" (pread fd 100 5950);
  step "ftruncate 9000" (ok (fun () -> fs.ftruncate !fd 9000));
  step "pread the grown tail" (pread fd 20 5990);
  step "close dup" (ok (fun () -> fs.close !fd2));
  step "close" (ok (fun () -> fs.close !fd));
  step "close again" (ok (fun () -> fs.close !fd));
  step "write closed" (write fd 10 'z');
  step "read closed" (read fd 10);
  step "pwrite closed" (pwrite fd 10 'z' 0);
  step "pread closed" (pread fd 10 0);
  step "lseek closed" (lseek fd 0 Set);
  step "fsync closed" (ok (fun () -> fs.fsync !fd));
  step "fstat closed" (fun () -> stat (fs.fstat !fd));
  step "ftruncate closed" (ok (fun () -> fs.ftruncate !fd 0));
  step "dup closed" (fun () -> int (fs.dup !fd));
  step "open rdonly" (open_ rfd "/d/a" rdonly);
  step "write rdonly" (write rfd 10 'r');
  step "pwrite rdonly" (pwrite rfd 10 'r' 0);
  step "read rdonly" (read rfd 300);
  step "open wronly" (open_ wfd "/d/a" wronly);
  step "read wronly" (read wfd 10);
  step "pread wronly" (pread wfd 10 0);
  step "open append" (open_ afd "/d/log" (append (creat wronly)));
  step "append 100" (write afd 100 'l');
  step "lseek append set 0" (lseek afd 0 Set);
  step "append 150" (write afd 150 'm');
  step "lseek append cur" (lseek afd 0 Cur);
  step "stat /d/log" (fun () -> stat (fs.stat "/d/log"));
  step "stat /d" (fun () -> stat (fs.stat "/d"));
  step "readdir /d" (fun () -> String.concat "," (fs.readdir "/d"));
  step "rename a b" (ok (fun () -> fs.rename "/d/a" "/d/b"));
  step "stat old name" (fun () -> stat (fs.stat "/d/a"));
  step "rename log over b" (ok (fun () -> fs.rename "/d/log" "/d/b"));
  step "rename missing" (ok (fun () -> fs.rename "/d/zz" "/d/q"));
  step "read b" (fun () ->
      Digest.to_hex (Digest.string (Fsapi.Fs.read_file fs "/d/b")));
  step "read replaced file" (read rfd 100);
  step "readdir after renames" (fun () -> String.concat "," (fs.readdir "/d"));
  step "unlink b" (ok (fun () -> fs.unlink "/d/b"));
  step "unlink b again" (ok (fun () -> fs.unlink "/d/b"));
  step "unlink a dir" (ok (fun () -> fs.unlink "/d"));
  step "open a dir" (open_ fd "/d" create_rw);
  step "open missing" (open_ fd "/nope" rdonly);
  step "open under a file" (fun () ->
      Fsapi.Fs.write_file fs "/d/c" "c";
      open_ fd "/d/c/x" create_rw ());
  step "rmdir non-empty" (ok (fun () -> fs.rmdir "/d"));
  step "rmdir a file" (ok (fun () -> fs.rmdir "/d/c"));
  step "unlink c" (ok (fun () -> fs.unlink "/d/c"));
  step "rmdir /d" (ok (fun () -> fs.rmdir "/d"));
  step "rmdir /d again" (ok (fun () -> fs.rmdir "/d"));
  step "readdir /" (fun () -> String.concat "," (fs.readdir "/"));
  step "close rdonly" (ok (fun () -> fs.close !rfd));
  step "close wronly" (ok (fun () -> fs.close !wfd));
  step "close append" (ok (fun () -> fs.close !afd));
  (* on Strata's 4 MiB private log: three pieces, a digest between them *)
  step "create /big" (open_ big "/big" create_rw);
  step "pwrite 4 MiB" (pwrite big ((4 * 1024 * 1024) + 8192) 'g' 0);
  step "pread its tail" (pread big 8192 (4 * 1024 * 1024));
  step "fsync /big" (ok (fun () -> fs.fsync !big));
  step "close /big" (ok (fun () -> fs.close !big));
  List.rev !lines

(** Simulated clock (exact, as a hex float), fences, syscalls and log
    entries after [charge_script] on each registry baseline. A change to
    a baseline's surface that reorders, drops or adds a charge moves one
    of these. *)
let charge_pins =
  [
    ("pmfs", "0x1.a7a69bd6725bp+19", 28, 88, 49);
    ("nova-relaxed", "0x1.05016872e741ep+20", 44, 88, 22);
    ("nova-strict", "0x1.061f05d99031p+20", 44, 88, 22);
    ("strata", "0x1.5737b46968ffcp+20", 27, 0, 22);
  ]

let test_charge_pins () =
  let expected = charge_script (Fsapi.Ref_fs.make ()) in
  List.iter
    (fun (name, clock, fences, syscalls, log_entries) ->
      let st = Harness.Fs_config.make (Harness.Fs_config.of_name name) in
      let got = charge_script st.Harness.Fs_config.fs in
      Alcotest.(check (list string)) (name ^ ": results") expected got;
      let stats = st.Harness.Fs_config.env.Pmem.Env.stats in
      Util.check_str (name ^ ": clock") clock
        (Printf.sprintf "%h" (Pmem.Env.now st.Harness.Fs_config.env));
      Util.check_int (name ^ ": fences") fences stats.Pmem.Stats.fences;
      Util.check_int (name ^ ": syscalls") syscalls stats.Pmem.Stats.syscalls;
      Util.check_int (name ^ ": log entries") log_entries
        stats.Pmem.Stats.log_entries)
    charge_pins

let suite =
  [
    tc "roundtrips on every baseline" `Quick test_roundtrips;
    tc "namespace ops on every baseline" `Quick test_namespace_ops;
    tc "NOVA strict COW bounds space" `Quick test_nova_strict_cow_reuses_space;
    tc "NOVA: two fences per op" `Quick test_nova_two_fences_per_write;
    tc "Strata: ~2x write amplification on appends" `Quick
      test_strata_write_amplification;
    tc "Strata: digest preserves data" `Quick test_strata_digest_correctness;
    tc "Strata: user-space data path" `Quick test_strata_no_trap_on_write;
    tc "PMFS: synchronous writes" `Quick test_pmfs_sync_no_fsync_needed;
    tc "exact charges of one script" `Quick test_charge_pins;
    QCheck_alcotest.to_alcotest
      (prop_baseline_matches_reference
         (fun () -> snd (make_nova ~mode:Baselines.Nova.Strict ()))
         "nova-strict");
    QCheck_alcotest.to_alcotest
      (prop_baseline_matches_reference
         (fun () -> snd (make_nova ~mode:Baselines.Nova.Relaxed ()))
         "nova-relaxed");
    QCheck_alcotest.to_alcotest
      (prop_baseline_matches_reference (fun () -> snd (make_pmfs ())) "pmfs");
    QCheck_alcotest.to_alcotest
      (prop_baseline_matches_reference
         (fun () ->
           let _, _, fs = make_strata () in
           fs)
         "strata");
  ]
