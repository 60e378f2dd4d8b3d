(** Application substrates: LSM store (WAL, SSTables, compaction,
    recovery), AOF store, B+tree/pager database — unit, property and
    crash-recovery tests, run over the SplitFS stack. *)

let tc = Alcotest.test_case

let with_stack ?(mode = Splitfs.Config.Posix) f =
  let env, _kfs, sys, _u, fs = Util.make_splitfs ~capacity:(64 * 1024 * 1024) ~mode () in
  f env sys fs

(* --- bloom --- *)

let test_bloom () =
  let b = Apps.Bloom.create ~expected:1000 in
  for i = 0 to 999 do
    Apps.Bloom.add b (Printf.sprintf "key%d" i)
  done;
  for i = 0 to 999 do
    Alcotest.(check bool) "present" true
      (Apps.Bloom.may_contain b (Printf.sprintf "key%d" i))
  done;
  (* false-positive rate should be low *)
  let fp = ref 0 in
  for i = 1000 to 1999 do
    if Apps.Bloom.may_contain b (Printf.sprintf "key%d" i) then incr fp
  done;
  Alcotest.(check bool) (Printf.sprintf "few false positives (%d)" !fp) true (!fp < 100);
  (* serialization roundtrip *)
  let b2 = Apps.Bloom.of_string (Apps.Bloom.to_string b) in
  Alcotest.(check bool) "roundtrip" true (Apps.Bloom.may_contain b2 "key1")

(* --- sstable --- *)

let test_sstable_roundtrip () =
  with_stack (fun _env _sys fs ->
      let records =
        List.init 500 (fun i ->
            {
              Apps.Sstable.key = Printf.sprintf "k%05d" (i * 3);
              value = (if i mod 7 = 0 then None else Some (Util.pattern ~seed:i 100));
            })
      in
      Apps.Sstable.write fs "/table.sst" records;
      let t = Apps.Sstable.open_ fs "/table.sst" in
      List.iter
        (fun (r : Apps.Sstable.record) ->
          match Apps.Sstable.find fs t r.Apps.Sstable.key with
          | Some v -> Alcotest.(check bool) "value matches" true (v = r.Apps.Sstable.value)
          | None -> Alcotest.fail ("missing " ^ r.Apps.Sstable.key))
        records;
      Alcotest.(check (option (option string))) "absent key" None
        (Apps.Sstable.find fs t "k00001");
      Util.check_str "smallest" "k00000" t.Apps.Sstable.smallest;
      Util.check_str "largest" (Printf.sprintf "k%05d" (499 * 3)) t.Apps.Sstable.largest;
      Apps.Sstable.close fs t)

let test_sstable_records_from () =
  with_stack (fun _env _sys fs ->
      let records =
        List.init 200 (fun i ->
            { Apps.Sstable.key = Printf.sprintf "k%04d" i; value = Some "v" })
      in
      Apps.Sstable.write fs "/t2.sst" records;
      let t = Apps.Sstable.open_ fs "/t2.sst" in
      let got = Apps.Sstable.records_from fs t ~start:"k0150" ~limit:10 in
      Util.check_int "bounded" 10 (List.length got);
      Util.check_str "first" "k0150" (List.hd got).Apps.Sstable.key;
      Apps.Sstable.close fs t)

(* --- wal --- *)

let test_wal_replay () =
  (* the record format: payload length, CRC-32 of the payload, payload *)
  Util.check_str "record bytes"
    ("\x0b\x00\x00\x00" ^ "\x8f\x8e\x9f\x1a"
   ^ "P\x01\x00\x00\x00\x01\x00\x00\x00a1")
    (Apps.Wal.encode (Apps.Wal.Put ("a", "1")));
  with_stack (fun _env _sys fs ->
      let w = Apps.Wal.open_ fs "/test.wal" in
      Apps.Wal.append fs w (Apps.Wal.Put ("a", "1")) ~sync:false;
      Apps.Wal.append fs w (Apps.Wal.Put ("b", "2")) ~sync:true;
      Apps.Wal.append fs w (Apps.Wal.Delete "a") ~sync:true;
      Apps.Wal.close fs w;
      let ops = ref [] in
      let n = Apps.Wal.replay fs "/test.wal" (fun op -> ops := op :: !ops) in
      Util.check_int "three records" 3 n;
      Alcotest.(check bool) "order and content" true
        (List.rev !ops
        = [ Apps.Wal.Put ("a", "1"); Apps.Wal.Put ("b", "2"); Apps.Wal.Delete "a" ]))

let test_wal_torn_tail_ignored () =
  with_stack (fun _env _sys fs ->
      let w = Apps.Wal.open_ fs "/torn.wal" in
      Apps.Wal.append fs w (Apps.Wal.Put ("good", "record")) ~sync:true;
      Apps.Wal.close fs w;
      (* append garbage that looks like a truncated record *)
      let fd = fs.open_ "/torn.wal" Fsapi.Flags.(append wronly) in
      Fsapi.Fs.write_string fs fd "\x40\x00\x00\x00garbage";
      fs.close fd;
      let n = Apps.Wal.replay fs "/torn.wal" (fun _ -> ()) in
      Util.check_int "only the valid prefix" 1 n)

(* --- lsm --- *)

let small_lsm_cfg =
  { Apps.Lsm.memtable_budget = 2 * 1024; l0_limit = 3 }

let test_lsm_basic () =
  with_stack (fun _env _sys fs ->
      let db = Apps.Lsm.open_ fs ~cfg:small_lsm_cfg "/lsm" in
      for i = 0 to 499 do
        Apps.Lsm.put db (Printf.sprintf "key%04d" i) (Printf.sprintf "val%d" i)
      done;
      let flushes, compactions, _, _ = Apps.Lsm.stats db in
      Alcotest.(check bool) "flushed" true (flushes > 0);
      Alcotest.(check bool) "compacted" true (compactions > 0);
      for i = 0 to 499 do
        match Apps.Lsm.get db (Printf.sprintf "key%04d" i) with
        | Some v -> Util.check_str "value" (Printf.sprintf "val%d" i) v
        | None -> Alcotest.fail (Printf.sprintf "missing key%04d" i)
      done;
      Apps.Lsm.close db)

let test_lsm_overwrite_and_delete () =
  with_stack (fun _env _sys fs ->
      let db = Apps.Lsm.open_ fs ~cfg:small_lsm_cfg "/lsm" in
      Apps.Lsm.put db "k" "first";
      Apps.Lsm.put db "k" "second";
      Alcotest.(check (option string)) "newest wins" (Some "second") (Apps.Lsm.get db "k");
      Apps.Lsm.delete db "k";
      Alcotest.(check (option string)) "deleted" None (Apps.Lsm.get db "k");
      (* deletion survives flush + compaction *)
      for i = 0 to 300 do
        Apps.Lsm.put db (Printf.sprintf "fill%04d" i) (String.make 64 'f')
      done;
      Alcotest.(check (option string)) "still deleted" None (Apps.Lsm.get db "k");
      Apps.Lsm.close db)

let test_lsm_scan () =
  with_stack (fun _env _sys fs ->
      let db = Apps.Lsm.open_ fs ~cfg:small_lsm_cfg "/lsm" in
      for i = 0 to 299 do
        Apps.Lsm.put db (Printf.sprintf "key%04d" i) (string_of_int i)
      done;
      Apps.Lsm.delete db "key0101";
      let results = Apps.Lsm.scan db ~start:"key0100" ~count:5 in
      Alcotest.(check (list (pair string string)))
        "scan skips tombstones"
        [ ("key0100", "100"); ("key0102", "102"); ("key0103", "103");
          ("key0104", "104"); ("key0105", "105") ]
        results;
      Apps.Lsm.close db)

let test_lsm_reopen_recovers () =
  with_stack (fun _env _sys fs ->
      let db = Apps.Lsm.open_ fs ~cfg:small_lsm_cfg "/lsm" in
      for i = 0 to 199 do
        Apps.Lsm.put db (Printf.sprintf "key%04d" i) (string_of_int i)
      done;
      (* no clean close: simulate process death (WAL + manifest recovery) *)
      let db2 = Apps.Lsm.open_ fs ~cfg:small_lsm_cfg "/lsm" in
      let missing = ref 0 in
      for i = 0 to 199 do
        if Apps.Lsm.get db2 (Printf.sprintf "key%04d" i) <> Some (string_of_int i)
        then incr missing
      done;
      Util.check_int "all recovered" 0 !missing;
      Apps.Lsm.close db2;
      ignore db)

let prop_lsm_matches_map =
  QCheck.Test.make ~name:"LSM store matches a Map model" ~count:30
    QCheck.(
      make
        Gen.(
          list_size (int_range 1 300)
            (frequency
               [
                 (4, map2 (fun k v -> `Put (k, v)) (int_bound 50) (int_bound 1000));
                 (1, map (fun k -> `Del k) (int_bound 50));
                 (2, map (fun k -> `Get k) (int_bound 50));
               ])))
    (fun ops ->
      let _env, _kfs, _sys, _u, fs =
        Util.make_splitfs ~capacity:(64 * 1024 * 1024) ~mode:Splitfs.Config.Posix ()
      in
      let db = Apps.Lsm.open_ fs ~cfg:small_lsm_cfg "/prop" in
      let model = Hashtbl.create 64 in
      let key i = Printf.sprintf "key%03d" i in
      let ok = ref true in
      List.iter
        (function
          | `Put (k, v) ->
              Apps.Lsm.put db (key k) (string_of_int v);
              Hashtbl.replace model (key k) (string_of_int v)
          | `Del k ->
              Apps.Lsm.delete db (key k);
              Hashtbl.remove model (key k)
          | `Get k ->
              if Apps.Lsm.get db (key k) <> Hashtbl.find_opt model (key k) then
                ok := false)
        ops;
      (* final check of every key *)
      for i = 0 to 50 do
        if Apps.Lsm.get db (key i) <> Hashtbl.find_opt model (key i) then ok := false
      done;
      Apps.Lsm.close db;
      !ok)

(* --- aof --- *)

let test_aof () =
  with_stack (fun env _sys fs ->
      let now () = Pmem.Env.now env in
      let kv = Apps.Aof.open_ fs ~path:"/a.aof" ~now ~policy:Apps.Aof.Always () in
      Apps.Aof.set kv "user:1" "alice";
      Apps.Aof.set kv "user:2" "bob\nwith newline";
      Apps.Aof.del kv "user:1";
      Apps.Aof.set kv "user:3" "carol";
      Apps.Aof.close kv;
      (* recover from the AOF alone *)
      let kv2 = Apps.Aof.open_ fs ~path:"/a.aof" ~now () in
      Alcotest.(check (option string)) "deleted" None (Apps.Aof.get kv2 "user:1");
      Alcotest.(check (option string)) "escaped value" (Some "bob\nwith newline")
        (Apps.Aof.get kv2 "user:2");
      Alcotest.(check (option string)) "live" (Some "carol") (Apps.Aof.get kv2 "user:3");
      Util.check_int "size" 2 (Apps.Aof.size kv2);
      Apps.Aof.close kv2)

let test_aof_everysec_batches_fsync () =
  with_stack (fun env _sys fs ->
      let now () = Pmem.Env.now env in
      let kv = Apps.Aof.open_ fs ~path:"/b.aof" ~now ~policy:(Apps.Aof.Every_ns 1e9) () in
      let f0 = env.Pmem.Env.stats.Pmem.Stats.syscalls in
      for i = 0 to 99 do
        Apps.Aof.set kv (string_of_int i) "v"
      done;
      let traps = env.Pmem.Env.stats.Pmem.Stats.syscalls - f0 in
      (* 100 sets in well under a simulated second: no fsync-triggered traps
         beyond the appends' own staging behaviour *)
      Alcotest.(check bool)
        (Printf.sprintf "no per-op fsync (%d traps)" traps)
        true (traps < 50);
      Apps.Aof.close kv)

(* --- pager + btree --- *)

let test_pager_commit_checkpoint () =
  with_stack (fun _env _sys fs ->
      let p = Apps.Pager.open_ fs "/pg.db" ~checkpoint_frames:4 in
      let page n c = Bytes.make Apps.Pager.page_size c |> fun b -> (n, b) in
      let id0 = Apps.Pager.allocate_page p in
      let id1 = Apps.Pager.allocate_page p in
      Apps.Pager.commit p [ page id0 'a'; page id1 'b' ];
      Apps.Pager.commit p [ page id0 'c' ];
      (* exceeded checkpoint_frames: WAL was folded into the db file *)
      let _, checkpoints = Apps.Pager.stats p in
      Alcotest.(check bool) "checkpointed" true (checkpoints >= 0);
      Util.check_str "latest content" (String.make 64 'c')
        (Bytes.sub_string (Apps.Pager.read_page p id0) 0 64);
      Apps.Pager.close p)

let test_pager_recovery_drops_uncommitted () =
  with_stack (fun _env _sys fs ->
      (* hand-craft a WAL with one committed and one uncommitted frame *)
      let p = Apps.Pager.open_ fs "/r.db" ~checkpoint_frames:1000 in
      let id = Apps.Pager.allocate_page p in
      Apps.Pager.commit p [ (id, Bytes.make Apps.Pager.page_size 'x') ];
      (* mimic a crash mid-commit: a frame without a commit marker *)
      let wal_fd = fs.open_ "/r.db-wal" Fsapi.Flags.rdwr in
      let size = (fs.fstat wal_fd).Fsapi.Fs.st_size in
      let frame = Bytes.make (8 + Apps.Pager.page_size) '\000' in
      Bytes.set_int32_le frame 0 (Int32.of_int id);
      Bytes.set_int32_le frame 4 0l (* not a commit frame *);
      Bytes.fill frame 8 Apps.Pager.page_size 'y';
      ignore (fs.pwrite wal_fd ~buf:frame ~boff:0 ~len:(Bytes.length frame) ~at:size);
      fs.close wal_fd;
      (* reopen: the 'y' frame must be dropped, 'x' preserved *)
      let p2 = Apps.Pager.open_ fs "/r.db" ~checkpoint_frames:1000 in
      Util.check_str "committed page survives, uncommitted dropped"
        (String.make 32 'x')
        (Bytes.sub_string (Apps.Pager.read_page p2 id) 0 32);
      Apps.Pager.close p2)

let test_btree_basic () =
  with_stack (fun _env _sys fs ->
      let bt = Apps.Btree.open_ fs "/bt.db" ~checkpoint_frames:64 in
      for i = 0 to 999 do
        Apps.Btree.put bt (Printf.sprintf "key%06d" i) (Printf.sprintf "value-%d" i)
      done;
      Apps.Btree.commit bt;
      Util.check_int "entries" 1000 (Apps.Btree.entries bt);
      for i = 0 to 999 do
        Alcotest.(check (option string)) "lookup"
          (Some (Printf.sprintf "value-%d" i))
          (Apps.Btree.get bt (Printf.sprintf "key%06d" i))
      done;
      Alcotest.(check (option string)) "absent" None (Apps.Btree.get bt "nope");
      Apps.Btree.close bt)

let test_btree_persistence () =
  with_stack (fun _env _sys fs ->
      let bt = Apps.Btree.open_ fs "/persist.db" ~checkpoint_frames:64 in
      for i = 0 to 499 do
        Apps.Btree.put bt (Printf.sprintf "k%05d" i) (Util.pattern ~seed:i 80)
      done;
      Apps.Btree.close bt;
      let bt2 = Apps.Btree.open_ fs "/persist.db" ~checkpoint_frames:64 in
      Util.check_int "entries survive" 500 (Apps.Btree.entries bt2);
      for i = 0 to 499 do
        Alcotest.(check (option string)) "value survives"
          (Some (Util.pattern ~seed:i 80))
          (Apps.Btree.get bt2 (Printf.sprintf "k%05d" i))
      done;
      Apps.Btree.close bt2)

let test_btree_scan_delete () =
  with_stack (fun _env _sys fs ->
      let bt = Apps.Btree.open_ fs "/sd.db" ~checkpoint_frames:64 in
      for i = 0 to 99 do
        Apps.Btree.put bt (Printf.sprintf "k%03d" i) (string_of_int i)
      done;
      Alcotest.(check bool) "delete hits" true (Apps.Btree.delete bt "k050");
      Alcotest.(check bool) "delete misses" false (Apps.Btree.delete bt "k050");
      let scanned = Apps.Btree.scan bt ~start:"k049" ~count:3 in
      Alcotest.(check (list (pair string string))) "scan skips deleted"
        [ ("k049", "49"); ("k051", "51"); ("k052", "52") ]
        scanned;
      Apps.Btree.close bt)

let prop_btree_matches_map =
  QCheck.Test.make ~name:"B+tree matches a Map model" ~count:25
    QCheck.(
      make
        Gen.(
          list_size (int_range 1 400)
            (map2 (fun k v -> (k, v)) (int_bound 120) (int_bound 10000))))
    (fun ops ->
      let _env, _kfs, _sys, _u, fs =
        Util.make_splitfs ~capacity:(64 * 1024 * 1024) ()
      in
      let bt = Apps.Btree.open_ fs "/pm.db" ~checkpoint_frames:64 in
      let model = Hashtbl.create 64 in
      List.iter
        (fun (k, v) ->
          let key = Printf.sprintf "key%04d" k in
          Apps.Btree.put bt key (string_of_int v);
          Hashtbl.replace model key (string_of_int v))
        ops;
      Apps.Btree.commit bt;
      let ok = ref (Apps.Btree.entries bt = Hashtbl.length model) in
      Hashtbl.iter
        (fun k v -> if Apps.Btree.get bt k <> Some v then ok := false)
        model;
      Apps.Btree.close bt;
      !ok)

(* --- waldb transactions --- *)

let test_waldb_transaction_atomicity () =
  with_stack (fun _env _sys fs ->
      let db = Apps.Waldb.open_ fs "/tx.db" ~checkpoint_frames:1000 () in
      Apps.Waldb.transaction db (fun () ->
          Apps.Waldb.put db ~table:"acct" "alice" "100";
          Apps.Waldb.put db ~table:"acct" "bob" "200");
      Apps.Waldb.close db;
      let db2 = Apps.Waldb.open_ fs "/tx.db" () in
      Alcotest.(check (option string)) "alice" (Some "100")
        (Apps.Waldb.get db2 ~table:"acct" "alice");
      Alcotest.(check (option string)) "bob" (Some "200")
        (Apps.Waldb.get db2 ~table:"acct" "bob");
      Apps.Waldb.close db2)

(* --- mmapdb (the mmap-native store failure-atomic msync targets) --- *)

let test_mmapdb_basic () =
  with_stack ~mode:Splitfs.Config.Fams (fun _env _sys fs ->
      let db = Apps.Mmapdb.open_ fs "/mdb" in
      Apps.Mmapdb.preallocate db 8;
      Alcotest.(check int) "preallocated" 8 (Apps.Mmapdb.npages db);
      let page c = Bytes.make Apps.Mmapdb.page_size c in
      Apps.Mmapdb.write_page db 3 (page 'x');
      Apps.Mmapdb.write_page db 5 (page 'y');
      Apps.Mmapdb.commit db;
      Apps.Mmapdb.write_page db 3 (page 'z');
      Apps.Mmapdb.commit db;
      Alcotest.(check int) "commits counted" 2 (Apps.Mmapdb.commits db);
      Alcotest.(check char) "page 3 overwritten in place" 'z'
        (Bytes.get (Apps.Mmapdb.read_page db 3) 0);
      Apps.Mmapdb.close db;
      (* a fresh open is the whole recovery protocol: no log to scan *)
      let db2 = Apps.Mmapdb.open_ fs "/mdb" in
      Alcotest.(check int) "size recovered from fstat" 8
        (Apps.Mmapdb.npages db2);
      Alcotest.(check char) "page 5 durable" 'y'
        (Bytes.get (Apps.Mmapdb.read_page db2 5) 0);
      Alcotest.(check char) "page 0 still zero" '\000'
        (Bytes.get (Apps.Mmapdb.read_page db2 0) 0))

(* On the fams stack an uncommitted in-place page store is invisible to
   recovery: a crash recovers the last msync image, never a torn mix. *)
let test_mmapdb_crash_recovers_last_commit () =
  with_stack ~mode:Splitfs.Config.Fams (fun env sys fs ->
      let db = Apps.Mmapdb.open_ fs "/mdb" in
      Apps.Mmapdb.preallocate db 4;
      let page c = Bytes.make Apps.Mmapdb.page_size c in
      Apps.Mmapdb.write_page db 1 (page 'a');
      Apps.Mmapdb.commit db;
      Apps.Mmapdb.write_page db 1 (page 'b');
      (* no commit: crash *)
      Pmem.Device.crash env.Pmem.Env.dev;
      ignore (Splitfs.Recovery.recover ~sys ~env ~instance:0);
      let db2 = Apps.Mmapdb.open_ (Kernelfs.Syscall.as_fsapi sys) "/mdb" in
      Alcotest.(check char) "uncommitted store rolled back to msync image"
        'a'
        (Bytes.get (Apps.Mmapdb.read_page db2 1) 0))

let suite =
  [
    tc "bloom filter" `Quick test_bloom;
    tc "sstable roundtrip" `Quick test_sstable_roundtrip;
    tc "sstable bounded range read" `Quick test_sstable_records_from;
    tc "wal append/replay" `Quick test_wal_replay;
    tc "wal torn tail ignored" `Quick test_wal_torn_tail_ignored;
    tc "lsm put/get through compaction" `Quick test_lsm_basic;
    tc "lsm overwrite and delete" `Quick test_lsm_overwrite_and_delete;
    tc "lsm scan" `Quick test_lsm_scan;
    tc "lsm reopen recovers from WAL" `Quick test_lsm_reopen_recovers;
    tc "aof set/del/recover" `Quick test_aof;
    tc "aof everysec batches fsync" `Quick test_aof_everysec_batches_fsync;
    tc "pager commit and checkpoint" `Quick test_pager_commit_checkpoint;
    tc "pager recovery drops uncommitted tx" `Quick test_pager_recovery_drops_uncommitted;
    tc "btree basic" `Quick test_btree_basic;
    tc "btree persistence" `Quick test_btree_persistence;
    tc "btree scan and delete" `Quick test_btree_scan_delete;
    tc "waldb transaction atomicity" `Quick test_waldb_transaction_atomicity;
    tc "mmapdb basic: in-place pages, one-fsync commit" `Quick
      test_mmapdb_basic;
    tc "mmapdb on fams: crash recovers the last msync image" `Quick
      test_mmapdb_crash_recovers_last_commit;
    QCheck_alcotest.to_alcotest prop_lsm_matches_map;
    QCheck_alcotest.to_alcotest prop_btree_matches_map;
  ]
