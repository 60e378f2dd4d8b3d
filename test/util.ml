(** Shared helpers for the test suites. *)

let make_env ?(capacity = 32 * 1024 * 1024) () = Pmem.Env.create ~capacity ()

let make_kernel ?capacity () =
  let env = make_env ?capacity () in
  let kfs = Kernelfs.Ext4.mkfs ~journal_len:(2 * 1024 * 1024) env in
  let sys = Kernelfs.Syscall.make kfs in
  (env, kfs, sys)

let small_splitfs_cfg mode =
  {
    Splitfs.Config.default with
    Splitfs.Config.mode;
    staging_files = 2;
    staging_size = 1024 * 1024;
    oplog_size = 64 * 1024;
  }

let make_splitfs ?capacity ?(mode = Splitfs.Config.Posix) ?cfg () =
  let env, kfs, sys = make_kernel ?capacity () in
  let cfg = match cfg with Some c -> c | None -> small_splitfs_cfg mode in
  let u = Splitfs.Usplit.mount ~cfg ~sys ~env ~instance:0 () in
  (env, kfs, sys, u, Splitfs.Usplit.as_fsapi u)

let string_of_len n c = String.make n c

(** Deterministic pseudo-random bytes for content checks. *)
let pattern ~seed len =
  String.init len (fun i ->
      Char.chr ((seed * 131 + i * 7 + (i * i mod 251)) mod 256))

(** Words [f] allocates straight into the major heap: major words that
    were not promoted from the minor heap, counted with the minor heap
    emptied on both sides. A minor collection adds the words it promotes
    to [promoted_words] at once but to [major_words] only at the next
    one, so each side collects twice. Direct allocations do not depend on
    when the GC runs, so the count is deterministic; a 4 KiB image chunk
    is too large for the minor heap and always counts here. *)
let direct_major_words f =
  let direct () =
    Gc.minor ();
    Gc.minor ();
    let s = Gc.quick_stat () in
    s.Gc.major_words -. s.Gc.promoted_words
  in
  let before = direct () in
  f ();
  direct () -. before

let check_str = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let fs_write_read_roundtrip (fs : Fsapi.Fs.t) path content =
  Fsapi.Fs.write_file fs path content;
  Fsapi.Fs.read_file fs path

(** [points] against the committed BENCH_PR16.json entries whose keys
    start with [prefix], one for one: the same keys, units and gates, and
    with [~values:true] the same values at full precision. *)
let check_points ~values prefix points =
  let module B = Harness.Benchdiff in
  let baseline =
    match (B.load "../BENCH_PR16.json").B.f_tests with
    | B.Declared ps ->
        List.filter (fun p -> String.starts_with ~prefix p.B.key) ps
    | B.Legacy _ -> Alcotest.fail "BENCH_PR16.json declares no gates"
  in
  let show p =
    String.concat " "
      ([ p.B.key; p.B.unit; B.gate_name p.B.gate ]
      @ if values then [ B.number p.B.value ] else [])
  in
  let sorted ps = List.sort compare (List.map show ps) in
  Alcotest.(check (list string))
    (prefix ^ "* matches BENCH_PR16.json")
    (sorted baseline) (sorted points)
