(** Benchmark entry point: one workload per invocation.

    perfbench --workload NAME --seed N --seconds S --trace 0|1
              [--nproc N] [--commit SHA]
    perfbench --selftest
    perfbench --list-metrics

    Prints a human-readable report, a [meta] line, and as its last line
    one JSON object: end-to-end metrics with [--trace 0], per-layer
    metrics with [--trace 1]. Exits 1 if any output check failed. *)

open Common

let workloads = [ "varmail-strict"; "zipf-rw"; "crash-strict" ]

(* Base windows for the exact metrics (a data run adds a seed-drawn
   eighth), and set-up repetitions. *)
let varmail_exact_units = 2048 (* x 16 ops *)
let zipf_exact_units = 4096 (* x 64 ops *)
let crash_exact_states = 768
let setup_reps = 9

(* ------------------------------------------------------------------ *)
(* Metric catalogue                                                     *)
(* ------------------------------------------------------------------ *)

(** End-to-end metrics, printed by every untraced run. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("throughput_per_s", "1/s");
    ("sim_ns_per_op", "ns");
    ("write_amp", "B/B");
    ("peak_heap_mb", "MB");
  ]

let sim_cats =
  Obs.[ Media; Usplit; Syscall; Kernel; Journal; Alloc; Log_append; Relink_copy ]

let call_layers =
  [ l_open; l_close; l_write; l_pread; l_pwrite; l_fsync; l_unlink; l_relink_all ]

let setup_layers = [ l_env_create; l_mkfs; l_mount ]

let crash_layers =
  [ l_sample; l_setup; l_replay; l_read_back; l_check; l_oracle; l_recover; l_trial; l_run_trial ]

(** Per-layer metrics, printed by every traced run (0 where the workload
    never calls the layer). *)
let per_layer =
  List.concat
    [
      List.concat_map
        (fun l ->
          let n = Span.name_of l in
          [ (n ^ ".host_ns", "ns"); (n ^ ".minor_words", "words") ])
        call_layers;
      List.concat_map
        (fun l ->
          let n = Span.name_of l in
          [ (n ^ ".host_us", "us"); (n ^ ".minor_words", "words") ])
        setup_layers;
      List.map (fun l -> (Span.name_of l ^ ".host_us", "us")) crash_layers;
      [
        ("crashcheck.unattributed.host_us", "us");
        ("crashcheck.generate.host_us", "us");
        ("crashcheck.profile.host_ms", "ms");
        ("harness.make.host_ms", "ms");
        ("harness.prefill.host_ms", "ms");
        ("gc.major_collections_per_state", "count");
        ("pmem.fences_per_op", "count/op");
        ("pmem.flushes_per_op", "count/op");
        ("pmem.nt_stores_per_op", "count/op");
        ("pmem.pm_write_bytes_per_op", "B/op");
        ("pmem.pm_read_bytes_per_op", "B/op");
        ("pmem.fast_path_ratio", "1");
        ("kernelfs.syscalls_per_op", "count/op");
        ("kernelfs.journal_commits_per_op", "count/op");
        ("kernelfs.journal_bytes_per_op", "B/op");
        ("splitfs.log_entries_per_op", "count/op");
        ("splitfs.relinks_per_op", "count/op");
        ("splitfs.relink_copied_bytes_per_op", "B/op");
        ("splitfs.staged_bytes_per_op", "B/op");
        ("splitfs.mmap_setups", "count");
      ];
      List.map (fun c -> ("sim." ^ Obs.cat_name c ^ "_ns_per_op", "ns")) sim_cats;
      [
        ("sim.op_p50_ns", "ns");
        ("sim.op_p999_ns", "ns");
        ("sim.op_samples", "count");
        ("sim.recovery_ns", "ns");
        ("crashcheck.points", "count");
        ("crashcheck.total_states", "count");
        ("splitfs.recover.entries_replayed", "count");
        ("gc.minor_words_per_op", "words");
        ("gc.major_collections_per_kop", "count");
        ("workloads.gen.host_ns", "ns");
        ("tracing.overhead", "1");
      ];
    ]

(* ------------------------------------------------------------------ *)
(* Output                                                               *)
(* ------------------------------------------------------------------ *)

let num x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let print_result ~correct ~attempted ~failed catalogue values =
  let metrics =
    List.map
      (fun (name, unit) ->
        let v = try List.assoc name values with Not_found -> 0. in
        let v = if Float.is_finite v then v else 0. in
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v) unit)
      catalogue
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", " metrics)

let print_meta ~workload ~seed ~seconds ~trace ~nproc ~commit ~units =
  let g = Gc.get () in
  Printf.printf
    "meta {\"workload\": %S, \"seed\": %d, \"seconds\": %s, \"trace\": %d, \
     \"jobs\": 1, \"nproc\": %d, \"ocaml\": %S, \"commit\": %S, \"gc\": \
     {\"minor_heap_size\": %d, \"space_overhead\": %d, \"max_overhead\": %d, \
     \"allocation_policy\": %d, \"custom_major_ratio\": %d, \
     \"custom_minor_ratio\": %d, \"custom_minor_max_size\": %d}, %s}\n"
    workload seed (num seconds) trace nproc Sys.ocaml_version commit
    g.Gc.minor_heap_size g.Gc.space_overhead g.Gc.max_overhead
    g.Gc.allocation_policy g.Gc.custom_major_ratio g.Gc.custom_minor_ratio
    g.Gc.custom_minor_max_size
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "%S: %d" k v) units))

let line fmt = Printf.printf (fmt ^^ "\n")

(* ------------------------------------------------------------------ *)
(* Metric values                                                        *)
(* ------------------------------------------------------------------ *)

(** Per-op counters and simulated-time shares of an exact window. *)
let exact_layer_values (e : exact) =
  let per x = float_of_int x /. float_of_int (max 1 e.ops) in
  let s = e.stats in
  let sorted = sorted_lat e in
  let fast = s.Pmem.Stats.fast_path_hits and slow = s.Pmem.Stats.slow_path_hits in
  [
    ("pmem.fences_per_op", per s.Pmem.Stats.fences);
    ("pmem.flushes_per_op", per s.Pmem.Stats.flushes);
    ("pmem.nt_stores_per_op", per s.Pmem.Stats.nt_stores);
    ("pmem.pm_write_bytes_per_op", per s.Pmem.Stats.pm_write_bytes);
    ("pmem.pm_read_bytes_per_op", per s.Pmem.Stats.pm_read_bytes);
    ("pmem.fast_path_ratio", float_of_int fast /. float_of_int (max 1 (fast + slow)));
    ("kernelfs.syscalls_per_op", per s.Pmem.Stats.syscalls);
    ("kernelfs.journal_commits_per_op", per s.Pmem.Stats.journal_commits);
    ("kernelfs.journal_bytes_per_op", per s.Pmem.Stats.journal_bytes);
    ("splitfs.log_entries_per_op", per s.Pmem.Stats.log_entries);
    ("splitfs.relinks_per_op", per s.Pmem.Stats.relinks);
    ("splitfs.relink_copied_bytes_per_op", per s.Pmem.Stats.relink_copied_bytes);
    ("splitfs.staged_bytes_per_op", per s.Pmem.Stats.staged_bytes);
    ("splitfs.mmap_setups", float_of_int s.Pmem.Stats.mmap_setups);
    ("sim.op_p50_ns", percentile sorted 0.5);
    ("sim.op_p999_ns", percentile sorted 0.999);
    ("sim.op_samples", float_of_int (Array.length sorted));
    ( "sim.recovery_ns",
      if e.states = 0 then 0. else e.recover_sim_ns /. float_of_int e.states );
    ("splitfs.recover.entries_replayed", float_of_int e.entries_replayed);
  ]
  @ List.map
      (fun c ->
        ( "sim." ^ Obs.cat_name c ^ "_ns_per_op",
          e.cats.(Obs.cat_index c) /. float_of_int (max 1 e.ops) ))
      sim_cats

(** Host means per call from the span aggregates. *)
let span_layer_values t =
  List.concat_map
    (fun l ->
      let n = Span.name_of l in
      [ (n ^ ".host_ns", Span.mean_ns t l); (n ^ ".minor_words", Span.mean_words t l) ])
    call_layers
  @ List.concat_map
      (fun l ->
        let n = Span.name_of l in
        [ (n ^ ".host_us", Span.mean_ns t l /. 1e3); (n ^ ".minor_words", Span.mean_words t l) ])
      setup_layers
  @ List.map (fun l -> (Span.name_of l ^ ".host_us", Span.mean_ns t l /. 1e3)) crash_layers
  @ [
      ( "crashcheck.unattributed.host_us",
        Span.self_ns t l_trial /. 1e3 /. float_of_int (max 1 (Span.calls t l_trial)) );
      ("crashcheck.generate.host_us", Span.mean_ns t l_generate /. 1e3);
      ("crashcheck.profile.host_ms", Span.mean_ns t l_profile /. 1e6);
      ("harness.make.host_ms", Span.mean_ns t l_make /. 1e6);
      ("harness.prefill.host_ms", Span.mean_ns t l_prefill /. 1e6);
      ("workloads.gen.host_ns", Span.mean_ns t l_gen);
    ]

(** Self time per span name, as a share of [root]'s inclusive time: the
    rows sum to the root's time, the root's own self time being the
    unattributed remainder. *)
let print_self_times t ~title ~total_ns ~names =
  line "%s (host self time, %.1f ms total)" title (total_ns /. 1e6);
  line "  %-26s %10s %12s %12s %7s" "span" "calls" "mean ns" "self ms" "share";
  let sum = ref 0. in
  List.iter
    (fun l ->
      if Span.calls t l > 0 then begin
        let self = Span.self_ns t l in
        sum := !sum +. self;
        line "  %-26s %10d %12.0f %12.2f %6.1f%%" (Span.name_of l) (Span.calls t l)
          (Span.mean_ns t l) (self /. 1e6)
          (100. *. self /. Float.max 1. total_ns)
      end)
    names;
  line "  %-26s %10s %12s %12.2f %6.1f%%" "sum" "" "" (!sum /. 1e6)
    (100. *. !sum /. Float.max 1. total_ns)

(* ------------------------------------------------------------------ *)
(* Runs                                                                 *)
(* ------------------------------------------------------------------ *)

let data_kind = function
  | "varmail-strict" -> Data.Varmail
  | _ -> Data.Zipf

let exact_units = function
  | Data.Varmail -> varmail_exact_units
  | Data.Zipf -> zipf_exact_units

(** Span files go to [.perfbench/] under the working directory. *)
let trace_path workload seed =
  (try Sys.mkdir ".perfbench" 0o755 with Sys_error _ -> ());
  Filename.concat ".perfbench" (Printf.sprintf "trace-%s-%d.json" workload seed)

let report_exact name (e : exact) =
  let sorted = sorted_lat e in
  line "%s sim_ns_per_op %.3f ns (exact, %d ops)" name (sim_ns_per_op e) e.ops;
  line "%s sim_op_p50_ns %.0f ns  sim_op_p999_ns %.0f ns (exact, %d samples)"
    name (percentile sorted 0.5) (percentile sorted 0.999) (Array.length sorted);
  line "%s write_amp %.4f B/B (%d pm bytes / %d user bytes)" name (write_amp e)
    e.stats.Pmem.Stats.pm_write_bytes e.user_bytes

(** Returns (correct, attempted, failed, values, meta units). *)
let run_data workload ~seed ~seconds ~trace =
  let kind = data_kind workload in
  let run ~seconds tr =
    Data.run kind ~seed ~seconds ~exact_units:(exact_units kind)
      ~setup_reps ~tr
  in
  if not trace then begin
    let r = run ~seconds None in
    let frac = float_of_int r.Data.failed /. float_of_int (max 1 r.Data.attempted) in
    line "%s setup_s %.4f s (median of %s, each scaled by the probe)" workload r.Data.setup_s
      (String.concat ", " (List.map (Printf.sprintf "%.4f") r.Data.setup_runs));
    line "%s host_ops_per_s %.1f 1/s (%d ops in %.2f s, %d slices)"
      workload r.Data.ops_per_s r.Data.timed_ops r.Data.timed_s r.Data.slices;
    line "%s slice rates %s" workload r.Data.spread;
    line "%s scaled slice rates %s" workload r.Data.scaled_spread;
    line "%s throughput_per_s %.1f 1/s (90th percentile of scaled slice rates)"
      workload r.Data.throughput;
    report_exact workload r.Data.exact;
    line "%s peak_heap_mb %.1f MB" workload (peak_heap_mb ());
    line "%s failed_op_frac %g (%d of %d)" workload frac r.Data.failed r.Data.attempted;
    line "%s identity %s" workload (if r.Data.identity_ok then "ok" else "VIOLATED");
    ( r.Data.failed = 0,
      r.Data.attempted,
      r.Data.failed,
      [
        ("setup_s", r.Data.setup_s);
        ("throughput_per_s", r.Data.throughput);
        ("sim_ns_per_op", sim_ns_per_op r.Data.exact);
        ("write_amp", write_amp r.Data.exact);
        ("peak_heap_mb", peak_heap_mb ());
      ],
      [ ("ops", r.Data.timed_ops); ("exact_ops", r.Data.exact.ops) ] )
  end
  else begin
    let half = seconds /. 2. in
    let u = run ~seconds:half None in
    let t = Span.create () in
    let r = run ~seconds:half (Some t) in
    let same = u.Data.exact = r.Data.exact in
    let failed = u.Data.failed + r.Data.failed + if same then 0 else 1 in
    let attempted = u.Data.attempted + r.Data.attempted in
    let overhead = (u.Data.ops_per_s /. r.Data.ops_per_s) -. 1. in
    line "%s exact metrics traced vs untraced: %s" workload
      (if same then "bit-identical" else "DIFFERENT");
    line "%s host_ops_per_s untraced %.1f traced %.1f (tracing overhead %.1f%%)"
      workload u.Data.ops_per_s r.Data.ops_per_s (100. *. overhead);
    print_self_times t ~title:(workload ^ " timed phase")
      ~total_ns:(Span.total_ns t l_iter)
      ~names:[ l_iter; l_gen; l_verify; l_open; l_close; l_write; l_pread; l_pwrite; l_fsync; l_unlink ];
    print_self_times t ~title:(workload ^ " set-up")
      ~total_ns:(Span.total_ns t l_make +. Span.total_ns t l_prefill)
      ~names:[ l_make; l_env_create; l_mkfs; l_mount; l_prefill ];
    let path = trace_path workload seed in
    Span.write_chrome t path;
    line "%s span file %s (%d spans kept, %d dropped)" workload path t.Span.n
      t.Span.dropped;
    ( failed = 0,
      attempted,
      failed,
      exact_layer_values r.Data.exact
      @ span_layer_values t
      @ [
          ("gc.minor_words_per_op", u.Data.minor_words_per_op);
          ("gc.major_collections_per_kop", u.Data.major_per_kop);
          ("tracing.overhead", overhead);
        ],
      [ ("ops", u.Data.timed_ops + r.Data.timed_ops); ("exact_ops", r.Data.exact.ops) ] )
  end

let run_crash ~seed ~seconds ~trace =
  let workload = "crash-strict" in
  let tr = if trace then Some (Span.create ()) else None in
  let r =
    Crash.run ~seed ~seconds ~exact_states:crash_exact_states
      ~setup_reps ~tr
  in
  let e = r.Crash.exact in
  let frac = float_of_int r.Crash.failed /. float_of_int (max 1 r.Crash.attempted) in
  line "%s setup_s %.4f s (median of %s, each scaled by the probe)" workload r.Crash.setup_s
    (String.concat ", " (List.map (Printf.sprintf "%.4f") r.Crash.setup_runs));
  line "%s crash_states_per_s %.2f 1/s (%d states in %.2f s, %d slices)"
    workload r.Crash.states_per_s r.Crash.timed_states r.Crash.timed_s r.Crash.slices;
  line "%s slice rates %s" workload r.Crash.spread;
  line "%s scaled slice rates %s" workload r.Crash.scaled_spread;
  line "%s throughput_per_s %.2f 1/s (90th percentile of scaled slice rates)"
    workload r.Crash.throughput;
  line "%s sim_recovery_ns %.3f ns (exact, mean over %d states, %d entries replayed)"
    workload
    (e.recover_sim_ns /. float_of_int (max 1 e.states))
    e.states e.entries_replayed;
  line "%s replayed ops:" workload;
  report_exact workload e;
  line "%s crash points %d, line-granular states %d" workload r.Crash.npoints
    r.Crash.total_states;
  line "%s peak_heap_mb %.1f MB" workload (peak_heap_mb ());
  line "%s failed_op_frac %g (%d of %d states)" workload frac r.Crash.failed
    r.Crash.attempted;
  let values, units =
    match tr with
    | None ->
        ( [
            ("setup_s", r.Crash.setup_s);
            ("throughput_per_s", r.Crash.throughput);
            ("sim_ns_per_op", sim_ns_per_op e);
            ("write_amp", write_amp e);
            ("peak_heap_mb", peak_heap_mb ());
          ],
          [ ("states", r.Crash.timed_states); ("exact_states", e.states) ] )
    | Some t ->
        let trial_ns = Span.mean_ns t l_trial in
        let run_trial_ns = Span.mean_ns t l_run_trial in
        let overhead = (trial_ns /. run_trial_ns) -. 1. in
        line "%s recomposed trial vs Runner.run_trial: %d mismatching states of %d"
          workload r.Crash.mismatches r.Crash.timed_states;
        line "%s trial host us: traced recomposition %.1f, run_trial %.1f (tracing overhead %.1f%%)"
          workload (trial_ns /. 1e3) (run_trial_ns /. 1e3) (100. *. overhead);
        print_self_times t ~title:(workload ^ " per trial")
          ~total_ns:(Span.total_ns t l_trial)
          ~names:
            [ l_env_create; l_mkfs; l_mount; l_setup; l_oracle; l_replay; l_pwrite;
              l_fsync; l_relink_all; l_recover; l_read_back; l_check; l_trial ];
        line "  (crashcheck.trial's own self time is the unattributed remainder)";
        let path = trace_path workload seed in
        Span.write_chrome t path;
        line "%s span file %s (%d spans kept, %d dropped)" workload path t.Span.n
          t.Span.dropped;
        ( exact_layer_values e @ span_layer_values t
          @ [
              ("crashcheck.points", float_of_int r.Crash.npoints);
              ("crashcheck.total_states", float_of_int r.Crash.total_states);
              ("gc.major_collections_per_state", r.Crash.major_per_state);
              ("tracing.overhead", overhead);
            ],
          [ ("states", r.Crash.timed_states); ("exact_states", e.states) ] )
  in
  (r.Crash.failed = 0, r.Crash.attempted, r.Crash.failed, values, units)

(* ------------------------------------------------------------------ *)
(* Self-test                                                            *)
(* ------------------------------------------------------------------ *)

(** Determinism and seed reach on short runs: two runs at one seed give
    equal exact metrics; another seed changes the zipf-rw op stream and
    the crash-strict state sample; tracing changes no exact metric. *)
let selftest () =
  let ok = ref true in
  let check what b =
    line "selftest %-58s %s" what (if b then "ok" else "FAIL");
    if not b then ok := false
  in
  let data kind seed tr =
    Data.run kind ~seed ~seconds:0. ~exact_units:64 ~setup_reps:1 ~tr
  in
  List.iter
    (fun kind ->
      let n = Data.kind_name kind in
      let a = data kind 1 None and b = data kind 1 None in
      let c = data kind 2 None in
      let t = data kind 1 (Some (Span.create ())) in
      check (n ^ ": same seed, equal exact metrics") (a.Data.exact = b.Data.exact);
      check (n ^ ": traced, equal exact metrics") (a.Data.exact = t.Data.exact);
      check (n ^ ": no failed op") (a.Data.failed + c.Data.failed + t.Data.failed = 0);
      if kind = Data.Zipf then
        check (n ^ ": other seed, other op stream")
          (a.Data.exact.digest <> c.Data.exact.digest))
    [ Data.Varmail; Data.Zipf ];
  let crash seed tr =
    Crash.run ~seed ~seconds:0. ~exact_states:16 ~setup_reps:1 ~tr
  in
  let a = crash 1 None and b = crash 1 None and c = crash 2 None in
  let t = crash 1 (Some (Span.create ())) in
  check "crash-strict: same seed, equal exact metrics" (a.Crash.exact = b.Crash.exact);
  check "crash-strict: other seed, other state sample"
    (a.Crash.exact.digest <> c.Crash.exact.digest);
  check "crash-strict: traced recomposition matches run_trial"
    (t.Crash.mismatches = 0 && t.Crash.exact = a.Crash.exact);
  check "crash-strict: no violation" (a.Crash.failed + c.Crash.failed + t.Crash.failed = 0);
  !ok

(* ------------------------------------------------------------------ *)
(* Entry point                                                          *)
(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and nproc = ref 0 and commit = ref "unknown" in
  let mode = ref `Run in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  " ^ String.concat " | " workloads);
      ("--seed", Arg.Set_int seed, "N  workload seed");
      ("--seconds", Arg.Set_float seconds, "S  length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1  per-layer traced run");
      ("--nproc", Arg.Set_int nproc, "N  host processors, for the meta block");
      ("--commit", Arg.Set_string commit, "SHA  source commit, for the meta block");
      ("--selftest", Arg.Unit (fun () -> mode := `Selftest), " determinism and seed checks");
      ("--list-metrics", Arg.Unit (fun () -> mode := `List), " print the metric catalogue");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  match !mode with
  | `List ->
      let pr (n, u) = Printf.sprintf "{\"name\": %S, \"unit\": %S}" n u in
      line "{\"end_to_end\": [%s], \"per_layer\": [%s]}"
        (String.concat ", " (List.map pr end_to_end))
        (String.concat ", " (List.map pr per_layer))
  | `Selftest -> exit (if selftest () then 0 else 1)
  | `Run ->
      if not (List.mem !workload workloads) then begin
        prerr_endline ("unknown workload " ^ !workload);
        exit 2
      end;
      let traced = !trace = 1 in
      let correct, attempted, failed, values, units =
        if !workload = "crash-strict" then
          run_crash ~seed:!seed ~seconds:!seconds ~trace:traced
        else run_data !workload ~seed:!seed ~seconds:!seconds ~trace:traced
      in
      print_meta ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:!trace
        ~nproc:!nproc ~commit:!commit ~units;
      print_result ~correct ~attempted ~failed
        (if traced then per_layer else end_to_end)
        values;
      exit (if correct then 0 else 1)
