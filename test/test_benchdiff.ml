(** Tests for the perf-regression sentinel (PR 9): trajectory-file
    parsing, per-key-class tolerances (sim exact, host within a relative
    band), direction awareness (SLO/speedup higher-better, exact counts
    both ways), schema refusal, legacy files and subset comparisons. *)

let tc = Alcotest.test_case

let write_file body =
  let path = Filename.temp_file "benchdiff" ".json" in
  let oc = open_out path in
  output_string oc body;
  close_out oc;
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  path

let trajectory ?meta tests =
  let b = Buffer.create 256 in
  Buffer.add_string b "{\n";
  (match meta with
  | Some m -> Buffer.add_string b (Printf.sprintf "  \"meta\": %s,\n" m)
  | None -> ());
  Buffer.add_string b "  \"tests\": {\n";
  List.iteri
    (fun i (k, v) ->
      Buffer.add_string b
        (Printf.sprintf "    \"%s\": {\"ns_per_op\": %.1f}%s\n" k v
           (if i = List.length tests - 1 then "" else ",")))
    tests;
  Buffer.add_string b "  },\n  \"date\": \"2026-08-09\"\n}\n";
  write_file (Buffer.contents b)

let meta2 = {|{"schema": 2, "mode": "full", "seed": 20973, "jobs": 4}|}

let base_tests =
  [
    ("table1/sim/ext4-dax", 9000.);
    ("scaling/splitfs-posix/c8", 1234.5);
    ("scale10k/splitfs-posix/n10000/slo", 0.9);
    ("litmus/create-rename/states", 96.);
    ("faults/splitfs-strict/injected", 41.);
    ("faults/degraded-lat/splitfs-strict/p999", 5000.);
    ("monolithic/4k-append/splitfs-strict", 800.);
    ("par/litmus/walltime-j4", 2e9);
    ("par/litmus/speedup-j4", 2.5);
    ("scale10k/dispatch/heap-ns", 150.);
  ]

let diff_tests ?(host_tol = 0.5) ?(subset = false) old_t new_t =
  let old_f = Harness.Benchdiff.load (trajectory ~meta:meta2 old_t) in
  let new_f = Harness.Benchdiff.load (trajectory ~meta:meta2 new_t) in
  match Harness.Benchdiff.diff ~host_tol ~subset old_f new_f with
  | Ok r -> r
  | Error msg -> Alcotest.failf "unexpected schema refusal: %s" msg

let keys_of entries = List.map (fun e -> e.Harness.Benchdiff.e_key) entries

let test_identical_ok () =
  let r = diff_tests base_tests base_tests in
  Alcotest.(check bool) "ok" true (Harness.Benchdiff.ok r);
  Alcotest.(check int) "all unchanged"
    (List.length base_tests)
    (Harness.Benchdiff.unchanged_count r);
  Alcotest.(check (list string)) "nothing regressed" []
    (keys_of (Harness.Benchdiff.regressed r))

(* Simulated-ns keys are exact: any increase, however small, regresses;
   any decrease is an improvement — never noise. *)
let test_sim_exact () =
  let bump k delta =
    List.map (fun (k', v) -> if k' = k then (k', v +. delta) else (k', v)) base_tests
  in
  let r = diff_tests base_tests (bump "table1/sim/ext4-dax" 0.1) in
  Alcotest.(check (list string)) "tiny sim increase regresses"
    [ "table1/sim/ext4-dax" ]
    (keys_of (Harness.Benchdiff.regressed r));
  Alcotest.(check bool) "gate fails" false (Harness.Benchdiff.ok r);
  let r = diff_tests base_tests (bump "scaling/splitfs-posix/c8" (-100.)) in
  Alcotest.(check (list string)) "sim decrease improves"
    [ "scaling/splitfs-posix/c8" ]
    (keys_of (Harness.Benchdiff.improved r));
  Alcotest.(check bool) "gate passes on improvement" true (Harness.Benchdiff.ok r)

(* Host-clock keys get the relative band: drift inside it is unchanged,
   beyond it is judged. *)
let test_host_tolerance () =
  let set k v =
    List.map (fun (k', v') -> if k' = k then (k', v) else (k', v')) base_tests
  in
  let r = diff_tests base_tests (set "par/litmus/walltime-j4" 2.8e9) in
  Alcotest.(check int) "+40%% host drift inside the band" 0
    (List.length (Harness.Benchdiff.regressed r)
    + List.length (Harness.Benchdiff.improved r));
  let r = diff_tests base_tests (set "par/litmus/walltime-j4" 3.2e9) in
  Alcotest.(check (list string)) "+60%% host drift regresses"
    [ "par/litmus/walltime-j4" ]
    (keys_of (Harness.Benchdiff.regressed r));
  let r =
    diff_tests ~host_tol:0.1 base_tests (set "scale10k/dispatch/heap-ns" 180.)
  in
  Alcotest.(check (list string)) "--host-tol narrows the band"
    [ "scale10k/dispatch/heap-ns" ]
    (keys_of (Harness.Benchdiff.regressed r))

(* The Bechamel kernels of bench/main.ml, end-to-end and per-layer, are
   host keys (judged inside the band); the simulated tables are exact. *)
let test_kernel_names_are_host () =
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ " is a host key") true
        (Harness.Benchdiff.is_host k))
    [
      "table6/varmail-splitfs-strict";
      "layer/crc32-4k";
      "layer/strict-pwrite-4k";
    ];
  Alcotest.(check bool) "a simulated table key is exact" false
    (Harness.Benchdiff.is_host "table6/sim/splitfs-strict/append")

(* Direction: SLO attainment and speedups are better when higher. *)
let test_higher_is_better () =
  let set k v =
    List.map (fun (k', v') -> if k' = k then (k', v) else (k', v')) base_tests
  in
  let r = diff_tests base_tests (set "scale10k/splitfs-posix/n10000/slo" 0.8) in
  Alcotest.(check (list string)) "SLO drop regresses"
    [ "scale10k/splitfs-posix/n10000/slo" ]
    (keys_of (Harness.Benchdiff.regressed r));
  (* the trajectory writer renders %.1f, so pick a rise that survives it *)
  let r = diff_tests base_tests (set "scale10k/splitfs-posix/n10000/slo" 1.0) in
  Alcotest.(check (list string)) "SLO rise improves"
    [ "scale10k/splitfs-posix/n10000/slo" ]
    (keys_of (Harness.Benchdiff.improved r));
  let r = diff_tests base_tests (set "par/litmus/speedup-j4" 1.1) in
  Alcotest.(check (list string)) "speedup collapse regresses (host band)"
    [ "par/litmus/speedup-j4" ]
    (keys_of (Harness.Benchdiff.regressed r))

(* Deterministic enumerations: a changed litmus state count or fault
   outcome count is a behaviour drift in either direction. *)
let test_exact_counts_both_ways () =
  let set k v =
    List.map (fun (k', v') -> if k' = k then (k', v) else (k', v')) base_tests
  in
  List.iter
    (fun (k, v) ->
      let r = diff_tests base_tests (set k v) in
      Alcotest.(check (list string))
        (Printf.sprintf "%s -> %g regresses" k v)
        [ k ]
        (keys_of (Harness.Benchdiff.regressed r)))
    [
      ("litmus/create-rename/states", 95.);
      ("litmus/create-rename/states", 97.);
      ("faults/splitfs-strict/injected", 40.);
      ("faults/splitfs-strict/injected", 42.);
    ];
  (* ...but the degraded-latency percentiles are sim latencies, not
     counts: a decrease is an improvement *)
  let r = diff_tests base_tests (set "faults/degraded-lat/splitfs-strict/p999" 4000.) in
  Alcotest.(check (list string)) "degraded-lat decrease improves"
    [ "faults/degraded-lat/splitfs-strict/p999" ]
    (keys_of (Harness.Benchdiff.improved r))

let test_schema_refusal () =
  let old_f =
    Harness.Benchdiff.load
      (trajectory ~meta:{|{"schema": 1, "mode": "full"}|} base_tests)
  in
  let new_f = Harness.Benchdiff.load (trajectory ~meta:meta2 base_tests) in
  (match Harness.Benchdiff.diff old_f new_f with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "cross-schema diff was not refused");
  (* legacy file without meta: accepted with a note, so the CI gate can
     compare against pre-PR-9 snapshots *)
  let legacy = Harness.Benchdiff.load (trajectory base_tests) in
  match Harness.Benchdiff.diff legacy new_f with
  | Ok r ->
      Alcotest.(check bool) "legacy diff ok" true (Harness.Benchdiff.ok r);
      Alcotest.(check bool) "legacy noted" true (r.Harness.Benchdiff.r_notes <> [])
  | Error msg -> Alcotest.failf "legacy file refused: %s" msg

(* --strict-meta upgrades the legacy-snapshot warning to a refusal (the
   CLI exits 2 on it) naming the file without the meta block; two
   meta-bearing files still diff normally under the flag. *)
let test_strict_meta () =
  let with_meta = Harness.Benchdiff.load (trajectory ~meta:meta2 base_tests) in
  let legacy = Harness.Benchdiff.load (trajectory base_tests) in
  (match Harness.Benchdiff.diff ~strict_meta:true legacy with_meta with
  | Error msg ->
      Alcotest.(check bool) "refusal names the legacy file" true
        (Harness.Benchdiff.contains legacy.Harness.Benchdiff.f_path msg);
      Alcotest.(check bool) "refusal names the missing meta block" true
        (Harness.Benchdiff.contains "meta" msg)
  | Ok _ -> Alcotest.fail "--strict-meta accepted a file without meta");
  (match Harness.Benchdiff.diff ~strict_meta:true with_meta legacy with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "--strict-meta accepted a new file without meta");
  match Harness.Benchdiff.diff ~strict_meta:true with_meta with_meta with
  | Ok r ->
      Alcotest.(check bool) "meta-bearing files still diff" true
        (Harness.Benchdiff.ok r)
  | Error msg -> Alcotest.failf "meta-bearing files refused: %s" msg

(* A fast-mode run carries no host entries: without --subset the missing
   keys fail the gate, with it they are accepted. Keys only in the new
   file are never a failure. *)
let test_subset () =
  let sim_only =
    List.filter
      (fun (k, _) ->
        not (Harness.Benchdiff.is_host k))
      base_tests
  in
  let r = diff_tests base_tests sim_only in
  Alcotest.(check bool) "missing keys fail without --subset" false
    (Harness.Benchdiff.ok r);
  let r = diff_tests ~subset:true base_tests sim_only in
  Alcotest.(check bool) "--subset accepts them" true (Harness.Benchdiff.ok r);
  Alcotest.(check int) "missing still reported"
    (List.length base_tests - List.length sim_only)
    (List.length r.Harness.Benchdiff.r_missing);
  let r =
    diff_tests ~subset:true base_tests
      (base_tests @ [ ("brand/new/key", 1.) ])
  in
  Alcotest.(check bool) "added keys never fail" true (Harness.Benchdiff.ok r);
  Alcotest.(check (list string)) "added reported" [ "brand/new/key" ]
    r.Harness.Benchdiff.r_added

let test_load_errors () =
  (match Harness.Benchdiff.load (write_file "{ not json") with
  | (_ : Harness.Benchdiff.file) -> Alcotest.fail "garbage parsed"
  | exception Failure _ -> ());
  (match Harness.Benchdiff.load (write_file "{\"date\": \"x\"}") with
  | (_ : Harness.Benchdiff.file) -> Alcotest.fail "missing tests accepted"
  | exception Failure _ -> ());
  (* the real thing parses: the committed PR 8 snapshot (tests run from
     the _build sandbox, so walk up towards the workspace copy) *)
  match
    List.find_opt Sys.file_exists
      [
        "BENCH_PR8.json"; "../BENCH_PR8.json"; "../../BENCH_PR8.json";
        "../../../BENCH_PR8.json";
      ]
  with
  | None -> ()
  | Some path ->
      let f = Harness.Benchdiff.load path in
      Alcotest.(check bool) "BENCH_PR8.json loads" true
        (List.length f.Harness.Benchdiff.f_tests > 100);
      Alcotest.(check bool) "PR 8 snapshot is legacy (no meta)" true
        (f.Harness.Benchdiff.f_meta = None)

let suite =
  [
    tc "identical files pass" `Quick test_identical_ok;
    tc "sim keys are exact" `Quick test_sim_exact;
    tc "host keys get the tolerance band" `Quick test_host_tolerance;
    tc "bechamel kernels are host keys" `Quick test_kernel_names_are_host;
    tc "slo and speedup are higher-better" `Quick test_higher_is_better;
    tc "exact counts regress both ways" `Quick test_exact_counts_both_ways;
    tc "schema mismatch refused, legacy accepted" `Quick test_schema_refusal;
    tc "--strict-meta refuses legacy files" `Quick test_strict_meta;
    tc "subset semantics" `Quick test_subset;
    tc "load errors and the committed snapshot" `Quick test_load_errors;
  ]
