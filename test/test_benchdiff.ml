(** Tests for the perf-regression sentinel: the trajectory record's file
    round trip, each declared gate's tolerance and direction (sim exact,
    host within a relative band, exact counts both ways), gate
    mismatches, schema-2 baselines, refusals and fast-run subsets, and
    the committed snapshots. *)

module B = Harness.Benchdiff

let tc = Alcotest.test_case

let temp () =
  let path = Filename.temp_file "benchdiff" ".json" in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  path

let write_file body =
  let path = temp () in
  let oc = open_out path in
  output_string oc body;
  close_out oc;
  path

let contains sub s =
  let ls = String.length sub and n = String.length s in
  let rec go i = i + ls <= n && (String.sub s i ls = sub || go (i + 1)) in
  go 0

(** A schema-3 file written by the real writer, loaded back. *)
let trajectory ?(mode = "full") points =
  let path = temp () in
  B.write ~mode ~seed:20973 ~jobs:4 ~stacks:[ "splitfs-posix" ] path points;
  B.load path

let meta2 = {|{"schema": 2, "mode": "full", "seed": 20973, "jobs": 4}|}

(** A file in the pre-schema-3 layout: one-decimal [ns_per_op] values,
    and a [meta] block only when given. *)
let legacy ?meta points =
  let b = Buffer.create 256 in
  Buffer.add_string b "{\n";
  Option.iter (Printf.bprintf b "  \"meta\": %s,\n") meta;
  Buffer.add_string b "  \"tests\": {\n";
  List.iteri
    (fun i p ->
      Printf.bprintf b "    \"%s\": {\"ns_per_op\": %.1f}%s\n" p.B.key p.B.value
        (if i = List.length points - 1 then "" else ","))
    points;
  Buffer.add_string b "  },\n  \"date\": \"2026-08-09\"\n}\n";
  write_file (Buffer.contents b)

let p gate unit key value = { B.key; value; unit; gate }
let recovery_ms = "fams/splitfs-fams/recovery-ms"

let base =
  [
    p B.Sim_lower "ns" "table1/sim/ext4-dax" 8998.588623046875;
    p B.Sim_lower "ns" "scaling/splitfs-posix-8c" 1234.5;
    p B.Sim_higher "fraction" "scale10k/splitfs-posix-10000a/slo" 0.9;
    p B.Exact "states" "litmus/create-rename/splitfs-strict" 96.;
    p B.Exact "trials" "faults/splitfs-strict/masked" 41.;
    p B.Sim_lower "ns" "faults/degraded-lat/splitfs-strict/starved/p99" 5000.;
    p B.Sim_lower "ms" recovery_ms 0.032267919257611036;
    p B.Host_lower "ns" "par/litmus/walltime-j4" 2e9;
    p B.Host_higher "x" "par/litmus/speedup-j4" 2.5;
    p B.Host_lower "ns" "scale10k/dispatch/heap_host_ns" 150.;
  ]

let set key value points =
  List.map (fun q -> if q.B.key = key then { q with B.value } else q) points

let diff_points ?mode old_ps new_ps =
  match B.diff (trajectory old_ps) (trajectory ?mode new_ps) with
  | Ok r -> r
  | Error msg -> Alcotest.failf "unexpected refusal: %s" msg

let keys_of entries = List.map (fun e -> e.B.e_key) entries

(* Tests read the committed snapshots through the dune sandbox. *)
let snapshot n = B.load (Printf.sprintf "../BENCH_PR%d.json" n)

let declared f =
  match f.B.f_tests with
  | B.Declared ps -> ps
  | B.Legacy _ -> Alcotest.failf "%s declares no gates" f.B.f_path

let test_identical_ok () =
  let r = diff_points base base in
  Alcotest.(check bool) "ok" true (B.ok r);
  Alcotest.(check int) "all unchanged" (List.length base) (B.unchanged_count r);
  Alcotest.(check (list string)) "nothing regressed" [] (keys_of (B.regressed r))

(* Every gate survives write -> load bit for bit, and judges through the
   file: the smallest representable move of a sim value is seen. *)
let test_round_trip () =
  List.iter
    (fun (gate, value, worse) ->
      let pt = p gate "u" ("rt/" ^ B.gate_name gate) value in
      (match declared (trajectory [ pt ]) with
      | [ q ] ->
          Alcotest.(check bool) (B.gate_name gate ^ " reads back") true (q = pt);
          Alcotest.(check int64) "same bits" (Int64.bits_of_float value)
            (Int64.bits_of_float q.B.value)
      | qs -> Alcotest.failf "%d points read back" (List.length qs));
      Alcotest.(check bool) "self diff ok" true (B.ok (diff_points [ pt ] [ pt ]));
      Alcotest.(check (list string))
        (B.gate_name gate ^ " worse regresses")
        [ pt.B.key ]
        (keys_of (B.regressed (diff_points [ pt ] [ { pt with B.value = worse } ]))))
    [
      (B.Exact, 96., 97.);
      (B.Sim_lower, 1. /. 3., Float.succ (1. /. 3.));
      (B.Sim_higher, 0.9, Float.pred 0.9);
      (B.Host_lower, 1234567.891, 2469135.782);
      (B.Host_higher, 1.9, 0.9);
    ];
  List.iter
    (fun v ->
      let path = temp () in
      let points = [ p B.Sim_lower "ns" "k" v ] in
      (match B.write ~mode:"full" ~seed:1 ~jobs:1 ~stacks:[] path points with
      | () -> Alcotest.failf "%f written" v
      | exception Invalid_argument _ -> ());
      Alcotest.(check int64) "nothing written" 0L
        (In_channel.with_open_bin path In_channel.length))
    [ Float.nan; Float.infinity; Float.neg_infinity ]

(* Simulated keys are exact: any increase, however small, regresses; any
   decrease is an improvement — never noise. *)
let test_sim_exact () =
  let key = "table1/sim/ext4-dax" in
  let r = diff_points base (set key (8998.588623046875 +. 0.01) base) in
  Alcotest.(check (list string)) "a change below 0.05 regresses" [ key ]
    (keys_of (B.regressed r));
  Alcotest.(check bool) "gate fails" false (B.ok r);
  let r = diff_points base (set "scaling/splitfs-posix-8c" 1234.49 base) in
  Alcotest.(check (list string)) "sim decrease improves"
    [ "scaling/splitfs-posix-8c" ] (keys_of (B.improved r));
  Alcotest.(check bool) "gate passes on improvement" true (B.ok r)

(* At the parent both recovery times were written as 0.0. *)
let test_recovery_ms () =
  let r = diff_points (set recovery_ms 0.0323 base) (set recovery_ms 0.045 base) in
  Alcotest.(check (list string)) "0.0323 -> 0.045 regresses" [ recovery_ms ]
    (keys_of (B.regressed r));
  match
    List.find_opt (contains recovery_ms) (String.split_on_char '\n' (B.render r))
  with
  | Some line ->
      Alcotest.(check bool) ("old value shown: " ^ line) true (contains "0.0323" line);
      Alcotest.(check bool) ("new value shown: " ^ line) true (contains "0.045" line)
  | None -> Alcotest.fail "no report line for the regressed key"

(* Host keys get the relative band: drift inside it is unchanged, beyond
   it is judged. *)
let test_host_tolerance () =
  let key = "par/litmus/walltime-j4" in
  let judged v =
    let r = diff_points base (set key v base) in
    (keys_of (B.regressed r), keys_of (B.improved r))
  in
  Alcotest.(check (pair (list string) (list string)))
    "+40%% host drift inside the band" ([], []) (judged 2.8e9);
  Alcotest.(check (pair (list string) (list string)))
    "+60%% host drift regresses" ([ key ], []) (judged 3.2e9);
  Alcotest.(check (pair (list string) (list string)))
    "-60%% host drift improves" ([], [ key ]) (judged 0.8e9)

(* The 13 Bechamel kernels of bench/main.ml, end-to-end and per-layer,
   are declared host keys in the committed snapshot. *)
let test_kernels_are_host () =
  let points = declared (snapshot 16) in
  List.iter
    (fun k ->
      match List.find_opt (fun q -> q.B.key = k) points with
      | Some q ->
          Alcotest.(check string) (k ^ " gate") "host-lower" (B.gate_name q.B.gate);
          Alcotest.(check string) (k ^ " unit") "ns" q.B.unit
      | None -> Alcotest.failf "%s missing from BENCH_PR16.json" k)
    [
      "table1/append-ext4-dax"; "table1/append-splitfs-posix";
      "table2/device-4k-write"; "table6/varmail-splitfs-strict";
      "table7/lsm-splitfs-strict"; "fig3/append-relink";
      "fig4/overwrite-splitfs"; "fig4/read-splitfs";
      "fig5/tpcc-tx-splitfs-sync"; "fig6/kv-nova-strict";
      "recovery/crash-replay"; "layer/crc32-4k"; "layer/strict-pwrite-4k";
    ]

(* Direction: SLO attainment and speedups are better when higher. *)
let test_higher_is_better () =
  let slo = "scale10k/splitfs-posix-10000a/slo" in
  let r = diff_points base (set slo 0.89 base) in
  Alcotest.(check (list string)) "SLO drop regresses" [ slo ] (keys_of (B.regressed r));
  let r = diff_points base (set slo 0.91 base) in
  Alcotest.(check (list string)) "SLO rise improves" [ slo ] (keys_of (B.improved r));
  let r = diff_points base (set "par/litmus/speedup-j4" 1.1 base) in
  Alcotest.(check (list string)) "speedup collapse regresses (host band)"
    [ "par/litmus/speedup-j4" ] (keys_of (B.regressed r))

(* Deterministic enumerations: a changed litmus state count or fault
   outcome count is a behaviour drift in either direction. *)
let test_exact_counts_both_ways () =
  List.iter
    (fun (k, v) ->
      let r = diff_points base (set k v base) in
      Alcotest.(check (list string))
        (Printf.sprintf "%s -> %g regresses" k v)
        [ k ] (keys_of (B.regressed r)))
    [
      ("litmus/create-rename/splitfs-strict", 95.);
      ("litmus/create-rename/splitfs-strict", 97.);
      ("faults/splitfs-strict/masked", 40.);
      ("faults/splitfs-strict/masked", 42.);
    ];
  (* ...but the degraded-latency percentiles are sim latencies, not
     counts: a decrease is an improvement *)
  let k = "faults/degraded-lat/splitfs-strict/starved/p99" in
  let r = diff_points base (set k 4000. base) in
  Alcotest.(check (list string)) "degraded-lat decrease improves" [ k ]
    (keys_of (B.improved r))

(* Two files that declare different gates for a key fail that key. *)
let test_gate_mismatch () =
  let key = "litmus/create-rename/splitfs-strict" in
  let relabelled =
    List.map (fun q -> if q.B.key = key then { q with B.gate = B.Sim_lower } else q) base
  in
  let r = diff_points base relabelled in
  Alcotest.(check (list string)) "mismatch reported" [ key ] (keys_of (B.mismatched r));
  Alcotest.(check bool) "gate fails" false (B.ok r);
  Alcotest.(check bool) "both declarations named" true
    (contains "old declares exact, new declares sim-lower" (B.render r))

(* Only schemas 2 and 3 load. A schema-2 baseline is judged by the new
   file's gates at its own one-decimal precision; a schema-2 candidate
   is refused. *)
let test_schema () =
  List.iter
    (fun n ->
      let meta = Printf.sprintf {|{"schema": %d, "mode": "full"}|} n in
      match B.load (legacy ~meta base) with
      | (_ : B.file) -> Alcotest.failf "schema %d loaded" n
      | exception Failure _ -> ())
    [ 1; 4 ];
  let old2 = B.load (legacy ~meta:meta2 base) in
  (match B.diff old2 old2 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a pair of schema-2 files was compared");
  let judged new_points =
    match B.diff old2 (trajectory new_points) with
    | Ok r -> r
    | Error msg -> Alcotest.failf "schema-2 baseline refused: %s" msg
  in
  let r = judged base in
  Alcotest.(check bool) "legacy baseline ok" true (B.ok r);
  Alcotest.(check int) "all compared" (List.length base) (B.unchanged_count r);
  let r = judged (set "table1/sim/ext4-dax" (8998.588623046875 +. 0.01) base) in
  Alcotest.(check bool) "a sub-decimal move is below its precision" true (B.ok r);
  let key = "litmus/create-rename/splitfs-strict" in
  let r = judged (set key 97. base) in
  Alcotest.(check (list string)) "the new file's exact gate judges" [ key ]
    (keys_of (B.regressed r))

let test_no_meta () =
  let path = legacy base in
  (match B.load path with
  | (_ : B.file) -> Alcotest.fail "a file without meta loaded"
  | exception Failure msg ->
      Alcotest.(check bool) "refusal names the file" true (contains path msg);
      Alcotest.(check bool) "refusal names the meta block" true (contains "meta" msg));
  match snapshot 8 with
  | (_ : B.file) -> Alcotest.fail "BENCH_PR8.json (no meta) loaded"
  | exception Failure msg ->
      Alcotest.(check bool) "BENCH_PR8.json refused for its meta" true (contains "meta" msg)

(* A fast run carries no host entries: in a full run the missing keys
   fail the gate, in a fast run they are accepted. Keys only in the new
   file are never a failure. *)
let test_subset () =
  let sim_only =
    List.filter
      (fun q -> match q.B.gate with B.Host_lower | B.Host_higher -> false | _ -> true)
      base
  in
  let r = diff_points base sim_only in
  Alcotest.(check bool) "missing keys fail a full run" false (B.ok r);
  let r = diff_points ~mode:"fast" base sim_only in
  Alcotest.(check bool) "a fast run may omit them" true (B.ok r);
  Alcotest.(check int) "missing still reported"
    (List.length base - List.length sim_only)
    (List.length r.B.r_missing);
  let r = diff_points base (base @ [ p B.Sim_lower "ns" "brand/new/key" 1. ]) in
  Alcotest.(check bool) "added keys never fail" true (B.ok r);
  Alcotest.(check (list string)) "added reported" [ "brand/new/key" ] r.B.r_added

let test_load_errors () =
  let refused what body =
    match B.load (write_file body) with
    | (_ : B.file) -> Alcotest.failf "%s accepted" what
    | exception Failure _ -> ()
  in
  let file3 test =
    Printf.sprintf {|{"meta": {"schema": 3}, "tests": {"k": %s}}|} test
  in
  refused "garbage" "{ not json";
  refused "missing tests" {|{"meta": {"schema": 3}, "date": "x"}|};
  refused "a key without a gate" (file3 {|{"value": 1, "unit": "ns"}|});
  refused "an unknown gate" (file3 {|{"value": 1, "unit": "ns", "gate": "fuzzy"}|});
  refused "a non-finite value" (file3 {|{"value": 1e999, "unit": "ns", "gate": "exact"}|});
  let f = snapshot 10 in
  Alcotest.(check string) "BENCH_PR10.json is a full run" "full" f.B.f_meta.B.m_mode;
  match f.B.f_tests with
  | B.Legacy kvs -> Alcotest.(check int) "BENCH_PR10.json keys" 471 (List.length kvs)
  | B.Declared _ -> Alcotest.fail "BENCH_PR10.json read as schema 3"

(* BENCH_PR10.json's values under BENCH_PR16.json's gates: equal keys and
   values, so nothing moves and nothing is missing. *)
let test_pr10_clean () =
  let pr10 = snapshot 10 in
  let gates = declared (snapshot 16) in
  let same =
    match pr10.B.f_tests with
    | B.Legacy kvs ->
        List.map
          (fun (k, v) ->
            match List.find_opt (fun q -> q.B.key = k) gates with
            | Some q -> { q with B.value = v }
            | None -> Alcotest.failf "%s has no gate in BENCH_PR16.json" k)
          kvs
    | B.Declared _ -> Alcotest.fail "BENCH_PR10.json read as schema 3"
  in
  match B.diff pr10 (trajectory same) with
  | Ok r ->
      Alcotest.(check bool) "clean" true (B.ok r);
      Alcotest.(check int) "every key unchanged" 471 (B.unchanged_count r);
      Alcotest.(check (list string)) "none missing" [] r.B.r_missing
  | Error msg -> Alcotest.failf "refused: %s" msg

(* The committed snapshot is the baseline `make bench-diff` judges by:
   every key declares a unit and a finite value, and it covers every key
   of the previous snapshot. *)
let test_pr16_complete () =
  let f = snapshot 16 in
  Alcotest.(check string) "a full run" "full" f.B.f_meta.B.m_mode;
  let points = declared f in
  List.iter
    (fun q ->
      Alcotest.(check bool) (q.B.key ^ " has a unit") true (q.B.unit <> "");
      Alcotest.(check bool) (q.B.key ^ " is finite") true (Float.is_finite q.B.value))
    points;
  match (snapshot 10).B.f_tests with
  | B.Legacy kvs ->
      List.iter
        (fun (k, _) ->
          Alcotest.(check bool) (k ^ " covered") true
            (List.exists (fun q -> q.B.key = k) points))
        kvs
  | B.Declared _ -> Alcotest.fail "BENCH_PR10.json read as schema 3"

let suite =
  [
    tc "identical files pass" `Quick test_identical_ok;
    tc "sim keys are exact" `Quick test_sim_exact;
    tc "host keys get the tolerance band" `Quick test_host_tolerance;
    tc "bechamel kernels are host keys" `Quick test_kernels_are_host;
    tc "slo and speedup are higher-better" `Quick test_higher_is_better;
    tc "exact counts regress both ways" `Quick test_exact_counts_both_ways;
    tc "schema mismatch refused, legacy accepted" `Quick test_schema;
    tc "a file without meta is refused" `Quick test_no_meta;
    tc "subset semantics" `Quick test_subset;
    tc "load errors and the committed snapshot" `Quick test_load_errors;
    tc "write, load, diff round trip per gate" `Quick test_round_trip;
    tc "sub-decimal recovery-ms change regresses" `Quick test_recovery_ms;
    tc "gate mismatch fails the key" `Quick test_gate_mismatch;
    tc "BENCH_PR10 diffs clean under schema 3" `Quick test_pr10_clean;
    tc "committed BENCH_PR16 declares every key" `Quick test_pr16_complete;
  ]
