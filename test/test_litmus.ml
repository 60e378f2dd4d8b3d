(** The litmus corpus (DESIGN.md §5i): Ferrite-style crash patterns run
    exhaustively on every stack, with exact crash-state counts pinned;
    fence-site coverage; and the fence minimizer's verdicts, including a
    pinned REQUIRED counterexample and a pinned REDUNDANT exhaustive
    proof. *)

let tc = Alcotest.test_case

module L = Crashcheck.Litmus
module M = Crashcheck.Minimize
module T = Crashcheck.Trial

(* ---- exhaustive state counts, pinned per (pattern, stack) ----------- *)

(* Counts in [Litmus.stacks] order: ext4-dax, pmfs, nova-relaxed,
   splitfs-posix, splitfs-sync, splitfs-strict, splitfs-fams. These are
   the *entire* crash spaces — any change to fence placement, journal
   traffic or the persist-order model drifts a count here before it
   manifests as a consistency bug. The SplitFS counts reflect the fences
   removed after the minimizer's REDUNDANT proofs (EXPERIMENTS.md,
   PR 7); the six pre-fams columns are unchanged since then — the fams
   mode and the CoW machinery must not perturb the other stacks. *)
let pinned_states =
  [
    ("create-rename", [ 6; 42; 23; 6; 23; 23; 25 ]);
    ("two-appends", [ 5; 11; 13; 4; 9; 9; 16 ]);
    ("chrome", [ 5; 42; 23; 4; 18; 18; 32 ]);
    ("replace-truncate", [ 8; 22; 15; 8; 24; 18; 20 ]);
    ("wal-commit", [ 4; 14; 11; 6; 271; 271; 2065 ]);
    ("relink-publish", [ 8; 16; 19; 22; 156; 156; 1064 ]);
    ("msync-publish", [ 15; 29; 33; 46; 44; 42; 77 ]);
    ("snapshot-cow", [ 19; 60; 43; 18; 26; 42; 46 ]);
  ]

let check_pattern name () =
  let p =
    match L.find_pattern name with
    | Some p -> p
    | None -> Alcotest.fail ("no litmus pattern " ^ name)
  in
  List.iter2
    (fun c expected ->
      let r = L.run_combo c in
      let where = L.combo_name c in
      Alcotest.(check (list string))
        (where ^ ": no violations") []
        (List.map (Fmt.str "%a" T.pp_violation) r.T.r_violations);
      Alcotest.(check int) (where ^ ": crash states") expected r.T.r_states)
    (List.map (L.on_stack p) L.stacks)
    (List.assoc name pinned_states)

let test_aux_configs () =
  let runs = L.run_corpus L.aux_combos in
  Alcotest.(check int) "aux configs" 2 (List.length runs);
  List.iter
    (fun ((c : L.combo), (r : T.report)) ->
      Alcotest.(check (list string))
        (c.c_config ^ ": no violations") []
        (List.map (Fmt.str "%a" T.pp_violation) r.r_violations);
      Alcotest.(check int)
        (c.c_config ^ ": crash states")
        (match c.c_config with
        | "splitfs-sync-degraded" -> 9
        | _ -> 7)
        r.r_states;
      (* kernel-path writes: DRAM metadata survives, data tails may
         zero — the aux configs are held to the DAX contract, not the
         staged-append Sync one *)
      Alcotest.(check string)
        (c.c_config ^ ": contract") "sync-dax"
        (Crashcheck.Check.contract_name c.c_contract))
    runs

(* ---- fence-site coverage -------------------------------------------- *)

(* Every registered fence site must fire somewhere in the corpus (or at
   the mounts the corpus performs — oplog:init is mount-time only):
   a site no workload reaches is a site the minimizer cannot vouch
   for. *)
let test_fence_site_coverage () =
  Alcotest.(check int) "registered sites" 17
    (List.length (Pmem.Device.fence_sites ()));
  let coverage = L.site_coverage () in
  Alcotest.(check int) "coverage rows" 17 (List.length coverage);
  List.iter
    (fun (_site, name, hits) ->
      Alcotest.(check bool) (name ^ " exercised") true (hits > 0))
    coverage

(* ---- minimizer verdicts, pinned ------------------------------------- *)

(* The minimizer's evidence for one combo: its un-elided profile. *)
let profiled name =
  match List.find_opt (fun c -> L.combo_name c = name) L.combos with
  | Some c -> M.profile_combos [ c ]
  | None -> Alcotest.fail ("no litmus combo " ^ name)

let site name =
  match
    List.find_opt (fun (_, n) -> n = name) (Pmem.Device.fence_sites ())
  with
  | Some (s, _) -> s
  | None -> Alcotest.fail ("no fence site " ^ name)

(* A shrunk counterexample, pinned down to the keep value of every
   surviving line. Line addresses are left out: they follow the device
   layout, not the shrinker. *)
let check_counterexample (v : T.violation) ~fence ~op ~path ~keeps =
  Alcotest.(check int) "fence" fence v.v_fence;
  Alcotest.(check (option int)) "op in flight" op v.v_op;
  Alcotest.(check (option string)) "path" (Some path) v.v_path;
  Alcotest.(check (list int))
    "shrunk survivors' keep values" keeps
    (List.map (fun (s : Pmem.Device.survivor) -> s.s_keep) v.v_survivors)

(* Eliding the per-append persist barrier in strict mode must break the
   two-appends pattern: with the fence gone, the second append's oplog
   commit can persist while the first append's staged data line is
   still lost — B-without-A, exactly the prefix-append guarantee the
   Atomic contract pins. The counterexample shrinks to a minimal set of
   lost lines. *)
let test_strict_write_required () =
  match
    M.classify (profiled "two-appends/splitfs-strict")
      (site "usplit:strict-write")
  with
  | M.Required { q_combo; q_violation } ->
      Alcotest.(check string) "combo" "two-appends/splitfs-strict" q_combo;
      check_counterexample q_violation ~fence:0 ~op:None ~path:"/log"
        ~keeps:[ 0 ]
  | v ->
      Alcotest.fail ("expected REQUIRED for usplit:strict-write, got "
                     ^ M.verdict_name v)

(* The strict-truncate fence is double-covered on this corpus (the
   following fsync fences commit the same oplog lines), so eliding it
   and exhaustively re-exploring every crash state of the one combo it
   fires in finds no violation — a proof, relative to the corpus, with
   its size pinned. *)
let test_strict_truncate_redundant () =
  match
    M.classify (profiled "replace-truncate/splitfs-strict")
      (site "usplit:strict-truncate")
  with
  | M.Redundant { q_combos; q_states } ->
      Alcotest.(check int) "firing combos" 1 q_combos;
      Alcotest.(check int) "states exhaustively re-checked" 24 q_states
  | v ->
      Alcotest.fail ("expected REDUNDANT for usplit:strict-truncate, got "
                     ^ M.verdict_name v)

(* The fence before the msync commit record orders staged-data lines
   ahead of the record itself. Elide it and even create-rename on the
   fams stack breaks: the commit record can persist while a staged line
   for the data it promotes is still lost — recovery then publishes a
   torn image, violating the pre-or-post-msync contract. *)
let test_msync_pre_required () =
  match
    M.classify (profiled "create-rename/splitfs-fams")
      (site "usplit:msync-pre")
  with
  | M.Required { q_combo; q_violation } ->
      Alcotest.(check string) "combo" "create-rename/splitfs-fams" q_combo;
      check_counterexample q_violation ~fence:0 ~op:(Some 2) ~path:"/f.tmp"
        ~keeps:[ 0 ]
  | v ->
      Alcotest.fail ("expected REQUIRED for usplit:msync-pre, got "
                     ^ M.verdict_name v)

(* The CoW unshare fence orders the copied block's lines ahead of the
   extent-tree switch. The extent tree is DRAM metadata that survives a
   simulated crash, so without the fence the switch takes effect while
   the copy's lines can still be lost — the snapshot-cow pattern then
   reads back zeros in the unwritten region. The snapshot-cow pattern
   was what surfaced this site in the first place. *)
let test_cow_unshare_required () =
  match
    M.classify (profiled "snapshot-cow/splitfs-posix")
      (site "ext4:cow-unshare")
  with
  | M.Required { q_combo; q_violation } ->
      Alcotest.(check string) "combo" "snapshot-cow/splitfs-posix" q_combo;
      check_counterexample q_violation ~fence:2 ~op:(Some 2) ~path:"/src"
        ~keeps:[ 0 ]
  | v ->
      Alcotest.fail ("expected REQUIRED for ext4:cow-unshare, got "
                     ^ M.verdict_name v)

(* Harness self-test: with the msync commit record disabled the same
   exhaustive exploration MUST flag a torn msync. A harness that stays
   green with the publish protocol broken is vouching for nothing. *)
let test_catches_torn_msync () =
  Alcotest.(check bool) "torn-msync bug caught" true (L.catches_torn_msync ())

(* A site that only fires during mount initialisation is outside every
   crash window: no verdict, the fence stays. *)
let test_oplog_init_unexercised () =
  match M.classify (profiled "two-appends/splitfs-strict") (site "oplog:init")
  with
  | M.Unexercised -> ()
  | v -> Alcotest.fail ("expected unexercised, got " ^ M.verdict_name v)

let suite =
  [
    tc "create-rename: exhaustive, pinned" `Quick
      (check_pattern "create-rename");
    tc "two-appends: exhaustive, pinned" `Quick (check_pattern "two-appends");
    tc "chrome append-rename: exhaustive, pinned" `Quick
      (check_pattern "chrome");
    tc "replace-via-truncate: exhaustive, pinned" `Quick
      (check_pattern "replace-truncate");
    tc "wal-commit: exhaustive, pinned" `Quick (check_pattern "wal-commit");
    tc "relink-publish: exhaustive, pinned" `Quick
      (check_pattern "relink-publish");
    tc "msync-publish: exhaustive, pinned" `Quick
      (check_pattern "msync-publish");
    tc "snapshot-cow: exhaustive, pinned" `Quick (check_pattern "snapshot-cow");
    tc "aux configs: degraded and no-staging" `Quick test_aux_configs;
    tc "every fence site exercised" `Quick test_fence_site_coverage;
    tc "strict-write fence REQUIRED (pinned counterexample)" `Quick
      test_strict_write_required;
    tc "strict-truncate fence REDUNDANT (exhaustive proof)" `Quick
      test_strict_truncate_redundant;
    tc "msync-pre fence REQUIRED (pinned counterexample)" `Quick
      test_msync_pre_required;
    tc "cow-unshare fence REQUIRED (pinned counterexample)" `Quick
      test_cow_unshare_required;
    tc "torn-msync canary: broken protocol is caught" `Quick
      test_catches_torn_msync;
    tc "mount-time site unexercised" `Quick test_oplog_init_unexercised;
  ]
