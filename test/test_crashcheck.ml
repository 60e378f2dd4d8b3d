(** Crashcheck: the crash-state exploration engine itself (exhaustive
    enumeration on a hand-built device trace), the relink-atomicity
    window, the sampled differential run against the ref_fs oracle, the
    enumerated run over a short generated workload, and the injected-bug
    canary (op-log checksum verification disabled must be caught by the
    sampler). *)

open Crashcheck

let tc = Alcotest.test_case

(* ------------------------------------------------------------------ *)
(* Exhaustive enumeration on a hand-built ≤10-store trace               *)
(* ------------------------------------------------------------------ *)

(** Three cache lines A (addr 0), B (64), C (128):

    - store A='a' (temporal, never flushed)
    - store B='b' (temporal), flush B
    - store_nt C='c'
    - fence                 — crash point 0: A, B, C each base-or-new: 8 states
    - store_nt C='d'
    - store_nt C='e'        — end of trace: A in {base,'a'}, C in
                              {'c','d','e'} (B committed): 6 states

    14 legal crash states in total; enumeration must visit every one
    exactly once. *)
let line c = Bytes.make 64 c

let run_trace dev =
  Pmem.Device.store dev ~addr:0 (line 'a') ~off:0 ~len:64;
  Pmem.Device.store dev ~addr:64 (line 'b') ~off:0 ~len:64;
  Pmem.Device.flush dev ~addr:64 ~len:64;
  Pmem.Device.store_nt dev ~addr:128 (line 'c') ~off:0 ~len:64;
  Pmem.Device.fence dev;
  Pmem.Device.store_nt dev ~addr:128 (line 'd') ~off:0 ~len:64;
  Pmem.Device.store_nt dev ~addr:128 (line 'e') ~off:0 ~len:64

(** Re-run the trace on a fresh device, crash into [survivors] at fence
    [fence] ([-1] = end of trace), and return the resulting (A, B, C)
    line contents. *)
let crash_state ~fence ~survivors =
  let env = Pmem.Env.create ~capacity:(64 * 1024) () in
  let dev = env.Pmem.Env.dev in
  Pmem.Device.journal_begin dev;
  if fence >= 0 then Pmem.Device.arm_crash dev ~fence ~survivors;
  (try run_trace dev with Pmem.Device.Crashed -> ());
  if fence < 0 then Pmem.Device.crash_partial dev ~survivors;
  let peek addr = Bytes.get (Pmem.Device.peek_persistent dev ~addr ~len:64) 0 in
  (peek 0, peek 64, peek 128)

let test_exhaustive_trace () =
  (* profile once to collect the crash points *)
  let env = Pmem.Env.create ~capacity:(64 * 1024) () in
  let dev = env.Pmem.Env.dev in
  Pmem.Device.journal_begin dev;
  run_trace dev;
  Util.check_int "one fence in the trace" 1 (Pmem.Device.fence_count dev);
  let p_fence = Pmem.Device.fence_pending dev 0 in
  let p_end = Pmem.Device.pending_now dev in
  Util.check_int "states at the fence" 8 (Explore.state_count p_fence);
  Util.check_int "states at end of trace" 6 (Explore.state_count p_end);
  Util.check_int "total legal crash states" 14
    (Explore.state_count p_fence + Explore.state_count p_end);
  (* enumerate both points; every state visited exactly once *)
  let states_of ~fence pending =
    List.map (fun survivors -> crash_state ~fence ~survivors)
      (Explore.enumerate pending)
  in
  let distinct l = List.sort_uniq compare l in
  let at_fence = states_of ~fence:0 p_fence in
  Util.check_int "fence: no state visited twice" 8
    (List.length (distinct at_fence));
  Util.check_int "fence: every state visited" 8 (List.length at_fence);
  (* the 8 states are exactly base-or-new per line *)
  let expect =
    List.concat_map
      (fun a ->
        List.concat_map
          (fun b -> List.map (fun c -> (a, b, c)) [ '\000'; 'c' ])
          [ '\000'; 'b' ])
      [ '\000'; 'a' ]
  in
  Alcotest.(check bool)
    "fence: states are exactly {base,new}^3" true
    (distinct at_fence = List.sort compare expect);
  let at_end = states_of ~fence:(-1) p_end in
  Util.check_int "end: no state visited twice" 6
    (List.length (distinct at_end));
  Util.check_int "end: every state visited" 6 (List.length at_end);
  (* B committed at the fence; A still at risk; C one of its 3 versions *)
  List.iter
    (fun (a, b, c) ->
      Alcotest.(check char) "end: B durable" 'b' b;
      Alcotest.(check bool) "end: A base or new" true (a = '\000' || a = 'a');
      Alcotest.(check bool)
        "end: C one version" true
        (List.mem c [ 'c'; 'd'; 'e' ]))
    at_end

(* A crash state is its index: [Explore.nth] decodes it in odometer
   order, the last pending line turning fastest. That order decides
   which violation an explorer reports first and shrinks. *)
let test_nth_odometer () =
  let pending =
    [|
      { Pmem.Device.p_line = 7; p_versions = 1; p_nt_mask = 0 };
      { Pmem.Device.p_line = 9; p_versions = 2; p_nt_mask = 0 };
    |]
  in
  let keeps i =
    match Explore.nth pending i with
    | [ a; b ] ->
        Alcotest.(check (list int))
          "lines in pending order, untorn" [ 7; 0; 9; 0 ]
          [ a.s_line; a.s_tear; b.s_line; b.s_tear ];
        (a.s_keep, b.s_keep)
    | _ -> Alcotest.fail "one survivor per pending line"
  in
  Alcotest.(check (list (pair int int)))
    "keeps in odometer order"
    [ (0, 0); (0, 1); (0, 2); (1, 0); (1, 1); (1, 2) ]
    (List.init (Explore.state_count pending) keeps)

(* ------------------------------------------------------------------ *)
(* Satellite: Device.crash resets the PR-1 path-hit counters            *)
(* ------------------------------------------------------------------ *)

let test_crash_resets_path_counters () =
  let env = Pmem.Env.create ~capacity:(64 * 1024) () in
  let dev = env.Pmem.Env.dev in
  let stats = env.Pmem.Env.stats in
  let buf = Bytes.create 64 in
  Pmem.Device.store dev ~addr:0 (line 'x') ~off:0 ~len:64;
  Pmem.Device.load dev ~addr:0 buf ~off:0 ~len:64;
  Pmem.Device.load dev ~addr:4096 buf ~off:0 ~len:64;
  Alcotest.(check bool)
    "counters moved" true
    (stats.Pmem.Stats.fast_path_hits + stats.Pmem.Stats.slow_path_hits > 0);
  Pmem.Device.crash dev;
  Util.check_int "fast-path hits reset" 0 stats.Pmem.Stats.fast_path_hits;
  Util.check_int "slow-path hits reset" 0 stats.Pmem.Stats.slow_path_hits;
  (* and the partial-crash path resets them too *)
  Pmem.Device.journal_begin dev;
  Pmem.Device.store dev ~addr:0 (line 'y') ~off:0 ~len:64;
  Pmem.Device.load dev ~addr:0 buf ~off:0 ~len:64;
  Pmem.Device.crash_partial dev ~survivors:[];
  Util.check_int "fast-path hits reset (partial)" 0
    stats.Pmem.Stats.fast_path_hits;
  Util.check_int "slow-path hits reset (partial)" 0
    stats.Pmem.Stats.slow_path_hits

(* ------------------------------------------------------------------ *)
(* Satellite: relink atomicity window                                   *)
(* ------------------------------------------------------------------ *)

(** Strict mode, one staged full-block append, then fsync. The fsync's
    fences bracket the relink journal commit and the op-log Relinked
    append: a crash anywhere must recover to the pre-relink (empty) or
    post-relink (4096 B) file — never a mix — and both outcomes must
    actually be reachable. The empty outcome appears at the write's own
    fence (op-log entry line dropped, or entry kept with torn staged
    data); once the relink transaction commits, only the full file is
    legal. *)
let test_relink_atomicity_window () =
  let w =
    {
      Workload.mode = Splitfs.Config.Strict;
      nfiles = 1;
      initial = [| 0 |];
      ops =
        [
          Workload.Write { file = 0; at = 0; len = 4096; seed = 11 };
          Workload.Fsync { file = 0 };
        ];
    }
  in
  let points = Runner.profile w in
  (* fence 0 is the write's own fence; everything after belongs to the
     fsync — the relink window proper *)
  Alcotest.(check bool) "fsync emits fences" true
    (List.length (List.filter (fun (p : Explore.point) -> p.fence >= 1) points)
    >= 2);
  let sizes_seen = ref [] in
  let rng = Workloads.Rng.create 0xAB1E in
  List.iter
    (fun (p : Explore.point) ->
      let states =
        if Explore.state_count p.pending <= 256 then
          Explore.enumerate p.pending
        else List.init 64 (fun _ -> Explore.sample rng p.pending)
      in
      List.iter
        (fun survivors ->
          let t = Runner.run_trial w ~point:p ~survivors in
          (match t.Runner.violations with
          | [] -> ()
          | (_, reason) :: _ ->
              Alcotest.failf "fence %d: relink window violation: %s" p.fence
                reason);
          let size = Bytes.length t.Runner.recovered.(0) in
          Alcotest.(check bool)
            "recovered file is pre- or post-relink, never a mix" true
            (size = 0 || size = 4096);
          if not (List.mem size !sizes_seen) then
            sizes_seen := size :: !sizes_seen)
        states)
    points;
  Alcotest.(check bool)
    "both pre- and post-relink outcomes reachable" true
    (List.mem 0 !sizes_seen && List.mem 4096 !sizes_seen)

(* ------------------------------------------------------------------ *)
(* Satellite: sampled differential run, committed seed                  *)
(* ------------------------------------------------------------------ *)

let committed_seed = 0x51ED

let test_differential mode () =
  let r = check_mode ~samples:200 ~seed:committed_seed ~nops:24 mode in
  Alcotest.(check bool) "space too large to enumerate" false r.Trial.r_exhaustive;
  Util.check_int "explored exactly the sample budget" 200 r.r_explored;
  Alcotest.(check bool)
    "every crash point got pending-line summaries" true (r.r_points > 0);
  match r.r_violations with
  | [] -> ()
  | v :: _ -> Alcotest.failf "differential violation: %a" Trial.pp_violation v

(* A generated workload's whole crash-state space fits a budget: stores
   that leave a line's content unchanged add no version, so an 8-op sync
   or strict workload at the committed seed has 1,293 states over 17
   crash points, every one of them replayed and checked. *)
let test_enumerated mode () =
  let r = check_mode ~samples:2000 ~seed:committed_seed ~nops:8 mode in
  Util.check_int "crash points" 17 r.Trial.r_points;
  Util.check_int "legal states" 1293 r.r_states;
  Alcotest.(check bool) "enumerated" true r.r_exhaustive;
  Util.check_int "explored every state" r.r_states r.r_explored;
  match r.r_violations with
  | [] -> ()
  | v :: _ -> Alcotest.failf "differential violation: %a" Trial.pp_violation v

(* ------------------------------------------------------------------ *)
(* What a crash trial allocates                                         *)
(* ------------------------------------------------------------------ *)

(* Words [f] allocates straight into the major heap: major words that
   were not promoted from the minor heap, counted with the minor heap
   emptied on both sides. Direct allocations do not depend on when the
   GC runs, so the count is deterministic. *)
let direct_major_words f =
  let direct () =
    Gc.minor ();
    let s = Gc.quick_stat () in
    s.Gc.major_words -. s.Gc.promoted_words
  in
  let before = direct () in
  f ();
  direct () -. before

(* A crash trial allocates what it touches. Building the crash-trial
   stack, with tracing and the timeline off (their defaults), allocates
   nothing directly in the major heap: no capacity-sized dirty bitmap,
   wear counters or chunk table, no full lock-stripe table. A strict
   trial of the pinned 24-op workload, one per crash point with every
   pending line reverted, averages at most 12,000 such words, mostly the
   4 KiB image chunks it writes and their table. *)
let test_trial_allocation () =
  let build () =
    ignore (Fs_config.make_small Fs_config.Splitfs_strict : Fs_config.stack)
  in
  Util.check_int "words the crash-trial stack allocates in the major heap" 0
    (int_of_float (direct_major_words build));
  let mode = Splitfs.Config.Strict in
  let p =
    Trial.of_workload
      (Workload.generate ~mode ~seed:committed_seed ~nops:24 ())
  in
  let points = points mode p in
  let words =
    direct_major_words (fun () ->
        List.iter
          (fun (point : Explore.point) ->
            ignore
              (trial mode p ~point ~survivors:(Explore.nth point.pending 0)
                : Trial.trial))
          points)
  in
  let per_trial = words /. float_of_int (List.length points) in
  if per_trial > 12_000. then
    Alcotest.failf "a strict trial allocates %.0f words in the major heap"
      per_trial

(* ------------------------------------------------------------------ *)
(* Injected bug: skipping checksum verification must be caught          *)
(* ------------------------------------------------------------------ *)

let test_injected_bug_caught () =
  (* per-env toggle: the broken configuration is confined to the trials
     that opt into it — nothing to restore, no cross-trial leakage *)
  let checks =
    { (Pmem.Env.default_checks ()) with Pmem.Env.verify_checksums = false }
  in
  let r =
    check_mode ~samples:200 ~seed:committed_seed ~nops:24 ~checks
      Splitfs.Config.Strict
  in
  match r.Trial.r_violations with
  | [] -> Alcotest.fail "disabled checksum verification went unnoticed"
  | v :: _ ->
      (* the first violation is the one the shrinker minimises; its
         counterexample is pinned so a shrinker change shows up here *)
      Util.check_int "fence" 3 v.v_fence;
      Alcotest.(check (option int)) "op in flight" (Some 2) v.v_op;
      Alcotest.(check (option string)) "path" (Some "/f2") v.v_path;
      Alcotest.(check (list string))
        "shrunk counterexample" [ "line 36939 keep 0" ]
        (List.map (Fmt.str "%a" Trial.pp_survivor) v.v_survivors)

(* ------------------------------------------------------------------ *)
(* The shared greedy shrinker, in faultcheck's drop-one form            *)
(* ------------------------------------------------------------------ *)

(* Each pass visits the elements of the candidate it started from, in
   order, and keeps every drop that still violates; passes repeat while
   one makes progress, within the budget of [violates] calls. From
   [1..6] with "2 and 5 present" as the violation, pass one drops 1, 3,
   4 and 6 (six calls) and pass two confirms [2; 5] is minimal (two
   more). A budget of 4 stops pass one after the drop of 4. *)
let test_greedy_shrinker () =
  let calls = ref 0 in
  let violates c =
    incr calls;
    List.mem 2 c && List.mem 5 c
  in
  let drop x c =
    if List.length c > 1 then Some (List.filter (( <> ) x) c) else None
  in
  let run budget =
    calls := 0;
    let r = Shrink.greedy ~budget ~violates ~simpler:drop [ 1; 2; 3; 4; 5; 6 ] in
    (r, !calls)
  in
  Alcotest.(check (pair (list int) int))
    "minimal culprit set" ([ 2; 5 ], 8) (run 100);
  Alcotest.(check (pair (list int) int))
    "budget bounds the re-runs" ([ 2; 5; 6 ], 4) (run 4)

(* ------------------------------------------------------------------ *)
(* The payload formula and the per-byte judge                            *)
(* ------------------------------------------------------------------ *)

(* [Workload.payload_into] carries i*i mod 251 incrementally; every byte
   must still be the closed formula's, for negative seeds, across the
   251-byte period and at length 0, and bytes past [len] stay as they
   were. *)
let test_payload_formula () =
  List.iter
    (fun seed ->
      List.iter
        (fun len ->
          let got = Workload.payload ~seed len in
          Util.check_int "length" len (Bytes.length got);
          for i = 0 to len - 1 do
            let want = (seed * 131 + (i * 7) + (i * i mod 251)) land 0xFF in
            if Char.code (Bytes.get got i) <> want then
              Alcotest.failf "seed %d len %d: byte %d is %d, formula %d" seed
                len i
                (Char.code (Bytes.get got i))
                want
          done)
        [ 0; 1; 250; 251; 252; 502; 503; 4096; 70_000 ])
    [ -50; -7; -1; 0; 1; 7; 250; 251; 3000 ];
  let buf = Bytes.make 8 'x' in
  Workload.payload_into ~seed:5 buf ~len:3;
  Util.check_str "bytes past len untouched" "xxxxx"
    (Bytes.sub_string buf 3 5);
  Workload.payload_into ~seed:5 buf ~len:0;
  Util.check_str "length 0 writes nothing" "xxxxx" (Bytes.sub_string buf 3 5)

(* Views of different lengths: a byte no view covers is free, a byte
   some view covers must match one of the views that cover it, and the
   first byte that does not is the one reported. *)
let test_check_bytes_views () =
  let b = Bytes.of_string in
  let views = [ b "abcd"; b "abXdefgh"; b "" ] in
  let judge ?upto s = Check.check_bytes ?upto (b s) views in
  let msg = Alcotest.(check (option string)) in
  msg "covered bytes match, uncovered bytes free" None (judge "abcdefghZZ");
  msg "a byte only the shorter view explains" None (judge "abcd");
  msg "a byte only the longer view explains" None (judge "abXd");
  msg "covered by the longer view only"
    (Some "byte 6 (0x51) matches no legal view")
    (judge "abcdefQhZZ");
  msg "first failing byte wins"
    (Some "byte 1 (0x7a) matches no legal view")
    (judge "azcdefQh");
  msg "zero byte" (Some "byte 4 (00) matches no legal view")
    (judge "abcd\000fgh");
  msg "nothing judged from upto on" None (judge ~upto:6 "abcdefQh");
  msg "no views, nothing covered" None
    (Check.check_bytes (b "anything") [])

let suite =
  [
    tc "exhaustive enumeration visits all 14 states once" `Quick
      test_exhaustive_trace;
    tc "nth decodes a state index in odometer order" `Quick test_nth_odometer;
    tc "crash resets fast/slow path counters" `Quick
      test_crash_resets_path_counters;
    tc "relink window: never a pre/post mix" `Quick
      test_relink_atomicity_window;
    tc "differential vs ref_fs oracle, posix (200 sampled states)" `Quick
      (test_differential Splitfs.Config.Posix);
    tc "differential vs ref_fs oracle, sync (200 sampled states)" `Quick
      (test_differential Splitfs.Config.Sync);
    tc "differential vs ref_fs oracle, strict (200 sampled states)" `Quick
      (test_differential Splitfs.Config.Strict);
    tc "differential vs ref_fs oracle, fams (200 sampled states)" `Quick
      (test_differential Splitfs.Config.Fams);
    tc "sync 8-op workload: every state enumerated" `Quick
      (test_enumerated Splitfs.Config.Sync);
    tc "strict 8-op workload: every state enumerated" `Quick
      (test_enumerated Splitfs.Config.Strict);
    tc "a crash trial allocates what it touches" `Quick test_trial_allocation;
    tc "injected bug: unverified op-log checksums are caught" `Quick
      test_injected_bug_caught;
    tc "greedy shrinker: visit order and budget" `Quick test_greedy_shrinker;
    tc "payload bytes follow the closed formula" `Quick test_payload_formula;
    tc "check_bytes over views of different lengths" `Quick
      test_check_bytes_views;
  ]
