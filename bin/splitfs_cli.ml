(** Command-line driver: run any experiment of the evaluation
    individually, or poke at a file system interactively via subcommands.

    [dune exec bin/splitfs_cli.exe -- <experiment> [options]] *)

open Cmdliner

module E = Harness.Experiments

(** Print an experiment's tables and hand back its value. *)
let show (r : _ Harness.Runner.report) =
  print_string r.text;
  r.value

let print r = ignore (show r)
let run_table1 total_mb = print (E.table1 ~total_mb ())
let run_table2 () = print (E.table2 ())
let run_table6 iterations = print (E.table6 ~iterations ())
let run_table7 records operations = print (E.table7 ~records ~operations ())
let run_fig3 total_mb = print (E.fig3 ~total_mb ())
let run_fig4 total_mb = print (E.fig4 ~total_mb ())
let run_fig5 records operations = print (E.fig5 ~records ~operations ())
let run_fig6 records operations = print (E.fig6 ~records ~operations ())
let run_recovery () = print (E.recovery ())

let run_crashcheck samples seed nops jobs =
  let reports = show (E.crashcheck ~samples ~seed ~nops ?jobs ()) in
  if
    List.exists
      (fun (_, (r : Crashcheck.Trial.report)) -> r.r_violations <> [])
      reports
  then exit 1

let run_faultcheck seed nops jobs =
  if not (Faultcheck.clean (show (E.faultcheck ~seed ~nops ?jobs ()))) then
    exit 1

let run_litmus no_minimize jobs =
  let runs = show (E.litmus ~minimize:(not no_minimize) ?jobs ()) in
  (* REQUIRED verdicts are findings, not failures: they are the proof a
     fence is load-bearing. Only a contract violation with every fence
     in place fails the run. *)
  if
    List.exists
      (fun (_, (r : Crashcheck.Trial.report)) -> r.r_violations <> [])
      runs
  then exit 1

(** [fams]: the failure-atomic-msync verification leg. Four parts:
    - the two fams-specific litmus patterns (msync-publish, snapshot-cow)
      exhaustively on every stack;
    - the canary: with the commit record disabled the same exploration
      MUST flag a torn msync — a harness that stays green with the
      protocol broken is vouching for nothing;
    - faultcheck on the fams stack (staging starvation must surface an
      honest ENOSPC, never a mangled file);
    - the FAMS-vs-WAL experiment table. *)
let run_fams jobs =
  let fams_pattern (c : Crashcheck.Litmus.combo) =
    List.mem c.c_pattern.p_name [ "msync-publish"; "snapshot-cow" ]
  in
  let runs =
    Crashcheck.Litmus.(run_corpus ?jobs (List.filter fams_pattern combos))
  in
  List.iter (fun r -> Fmt.pr "%a@." Crashcheck.Litmus.pp_run r) runs;
  let failed = ref false in
  if
    List.exists
      (fun (_, (r : Crashcheck.Trial.report)) -> r.r_violations <> [])
      runs
  then begin
    Printf.eprintf "fams: litmus contract violation\n";
    failed := true
  end;
  if Crashcheck.Litmus.catches_torn_msync () then
    print_endline
      "canary: torn-msync bug (commit record disabled) caught, as it must be"
  else begin
    Printf.eprintf
      "fams: canary FAILED — corpus did not flag the broken publish protocol\n";
    failed := true
  end;
  let report =
    Faultcheck.check_stack ?jobs Harness.Fs_config.Splitfs_fams
  in
  Fmt.pr "%a@." Faultcheck.pp_stack_report report;
  if report.Faultcheck.s_violations <> [] then begin
    Printf.eprintf "fams: faultcheck violation on splitfs-fams\n";
    failed := true
  end;
  print (E.fams_vs_wal ());
  if !failed then exit 1

let run_ablations total_mb = print (E.ablations ~total_mb ())
let run_resources () = print (E.resources ())
let run_scaling () = print (E.scaling ())

let run_scale fast dispatch_n jobs =
  let counts = if fast then [ 16; 100; 1000 ] else E.scale_counts in
  print (E.scale ~counts ?jobs ());
  let speedup = show (E.dispatch_bench ~nactors:dispatch_n ()) in
  if speedup < 10. then begin
    Printf.eprintf "dispatch speedup %.1fx below the 10x floor\n" speedup;
    exit 1
  end

(* [par-bench]: wall-time every verification campaign at 1/2/4/8 worker
   domains. On hosts with at least 4 recommended domains the sweep is
   also a gate: 4 jobs must be at least 2x faster than 1 job on the
   heavyweight campaigns (litmus, minimize). On smaller hosts (CI
   containers pinned to one core) the gate is skipped — there is nothing
   to parallelise onto. *)
let run_par_bench () =
  let wall = E.par_wall (show (E.par_bench ())) in
  if Domain.recommended_domain_count () >= 4 then
    List.iter
      (fun campaign ->
        let speedup = wall campaign 1 /. wall campaign 4 in
        if speedup < 2.0 then begin
          Printf.eprintf "%s: %.2fx speedup at 4 jobs, below the 2x floor\n"
            campaign speedup;
          exit 1
        end)
      [ "litmus"; "minimize" ]
  else
    Printf.printf
      "(speedup gate skipped: only %d recommended domain(s) on this host)\n"
      (Domain.recommended_domain_count ())

let run_profile () = print (E.profile ())
let run_latency () = print (E.latency ())

(** [trace]: run a multi-client workload with span tracing on and write a
    Chrome trace-event JSON (load it at https://ui.perfetto.dev). With
    [--syscalls], also stream strace-style lines to stdout as they
    happen. *)
let run_trace fs_name nclients ops out sample syscalls =
  let spec = Harness.Fs_config.of_name fs_name in
  let env_ref = ref None in
  let on_env (env : Pmem.Env.t) =
    env_ref := Some env;
    let obs = env.Pmem.Env.obs in
    Obs.set_tracing ~sample obs true;
    if syscalls then
      Obs.set_on_event obs
        (Some
           (fun s ->
             let n = s.Obs.e_name in
             if String.length n >= 4 && String.sub n 0 4 = "sys:" then
               match s.Obs.e_arg with
               | Some line ->
                   Printf.printf "[%12.0f ns] actor%-2d %s\n" s.Obs.e_t0
                     s.Obs.e_actor line
               | None -> ()))
  in
  let r =
    Harness.Multiclient.run ~ops_per_client:ops ~instrument:true ~on_env spec
      ~nclients
  in
  let env = Option.get !env_ref in
  let obs = env.Pmem.Env.obs in
  let actors =
    List.map
      (fun a -> (a.Pmem.Simclock.aid, a.Pmem.Simclock.a_name))
      (Pmem.Simclock.actors env.Pmem.Env.clock)
  in
  let oc = open_out out in
  output_string oc (Obs.chrome_json ~actors obs);
  close_out oc;
  Printf.printf
    "wrote %s: %d spans retained (%d overwritten), %d actor tracks, makespan %.0f ns\n"
    out (Obs.span_count obs) (Obs.overwritten obs) (List.length actors)
    r.Harness.Multiclient.makespan_ns

(** [bench-diff]: the perf-regression sentinel. Exit codes: 0 clean,
    1 a regression, a gate mismatch or (outside a fast run) missing keys,
    2 a file failed to load or the pair refuses to compare. *)
let run_bench_diff old_path new_path =
  match
    Result.bind
      (try Ok (Harness.Benchdiff.load old_path, Harness.Benchdiff.load new_path)
       with Failure msg -> Error msg)
      (fun (old_f, new_f) -> Harness.Benchdiff.diff old_f new_f)
  with
  | Error msg ->
      Printf.eprintf "bench-diff: %s\n" msg;
      exit 2
  | Ok report ->
      print_string (Harness.Benchdiff.render report);
      if not (Harness.Benchdiff.ok report) then exit 1

(** [timeline]: one serving-tier run with the virtual-time sampler and
    tail forensics on; print the warmup-vs-steady window table, export
    the series as OpenMetrics text and as Perfetto counter tracks merged
    into the span trace. *)
let run_timeline fs_name nactors out_metrics out_trace =
  let spec = Harness.Fs_config.of_name fs_name in
  let env_ref = ref None in
  let on_env (env : Pmem.Env.t) =
    env_ref := Some env;
    Obs.set_tracing env.Pmem.Env.obs true
  in
  let r = show (E.timeline_report ~spec ~nactors ~on_env ()) in
  let env = Option.get !env_ref in
  let tl = Option.get r.Harness.Multiclient.sr_timeline in
  let oc = open_out out_metrics in
  output_string oc (Obs.Timeline.openmetrics tl);
  close_out oc;
  let actors =
    List.map
      (fun a -> (a.Pmem.Simclock.aid, a.Pmem.Simclock.a_name))
      (Pmem.Simclock.actors env.Pmem.Env.clock)
  in
  let oc = open_out out_trace in
  output_string oc (Obs.chrome_json ~actors env.Pmem.Env.obs);
  close_out oc;
  Printf.printf
    "wrote %s (%d series, %d samples) and %s (%d spans + counter tracks)\n"
    out_metrics
    (List.length (Obs.Timeline.series_names tl))
    (Obs.Timeline.samples_taken tl)
    out_trace
    (Obs.span_count env.Pmem.Env.obs)

let total_mb =
  Arg.(value & opt int 16 & info [ "size-mb" ] ~doc:"Total IO volume in MB.")

let records =
  Arg.(value & opt int 3000 & info [ "records" ] ~doc:"YCSB record count.")

let operations =
  Arg.(value & opt int 3000 & info [ "ops" ] ~doc:"Operations per workload.")

let iterations =
  Arg.(value & opt int 200 & info [ "iterations" ] ~doc:"Microbenchmark iterations.")

let samples =
  Arg.(
    value & opt int 200
    & info [ "samples" ] ~doc:"Crash states explored per mode.")

let seed =
  Arg.(value & opt int 0x51ED & info [ "seed" ] ~doc:"Workload/sampler seed.")

let cc_ops =
  Arg.(
    value & opt int 24
    & info [ "ops" ] ~doc:"Operations per crashcheck workload.")

let fc_seed =
  Arg.(value & opt int 0xFA17 & info [ "seed" ] ~doc:"Fault-campaign workload seed.")

let fc_ops =
  Arg.(
    value & opt int 24
    & info [ "ops" ] ~doc:"Operations per faultcheck workload.")

let lm_no_minimize =
  Arg.(
    value & flag
    & info [ "no-minimize" ]
        ~doc:"Skip the fence-minimization pass (corpus exploration only).")

let trace_fs =
  Arg.(
    value
    & opt string "splitfs-posix"
    & info [ "fs" ] ~doc:"File system stack to trace.")

let trace_clients =
  Arg.(value & opt int 4 & info [ "clients" ] ~doc:"Concurrent clients.")

let trace_ops =
  Arg.(value & opt int 200 & info [ "ops" ] ~doc:"Appends per client.")

let trace_out =
  Arg.(
    value & opt string "trace.json"
    & info [ "out" ] ~doc:"Output path for the Chrome trace-event JSON.")

let trace_sample =
  Arg.(
    value & opt int 1
    & info [ "sample" ] ~doc:"Keep 1-in-N spans (1 keeps everything).")

let trace_syscalls =
  Arg.(
    value & flag
    & info [ "syscalls" ] ~doc:"Stream strace-style per-syscall lines to stdout.")

let scale_fast =
  Arg.(
    value & flag
    & info [ "fast" ]
        ~doc:"Smoke mode: stop the actor sweep at N=1000 (CI-friendly).")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ]
        ~doc:
          "Worker domains for the campaign's trial fan-out (default: \
           \\$SPLITFS_JOBS, else the host's recommended domain count). \
           Results are identical at every job count; 1 runs the \
           sequential harness on the calling domain.")

let scale_dispatch_n =
  Arg.(
    value & opt int 10_000
    & info [ "dispatch-actors" ]
        ~doc:"Actor count for the dispatch-overhead microbenchmark.")

let bd_old =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"OLD" ~doc:"Baseline trajectory point (BENCH_PR*.json).")

let bd_new =
  Arg.(
    required
    & pos 1 (some file) None
    & info [] ~docv:"NEW" ~doc:"Candidate trajectory point to judge.")

let tl_fs =
  Arg.(
    value
    & opt string "splitfs-posix"
    & info [ "fs" ] ~doc:"File system stack to sample.")

let tl_actors =
  Arg.(value & opt int 1000 & info [ "actors" ] ~doc:"Serving-tier actor count.")

let tl_out_metrics =
  Arg.(
    value & opt string "timeline.prom"
    & info [ "out-metrics" ] ~doc:"Output path for the OpenMetrics text.")

let tl_out_trace =
  Arg.(
    value & opt string "timeline-trace.json"
    & info [ "out-trace" ]
        ~doc:"Output path for the Perfetto trace (spans + counter tracks).")

let cmd name doc term = Cmd.v (Cmd.info name ~doc) term

let smoke =
  let run fs_name =
    let spec = Harness.Fs_config.of_name fs_name in
    let stack = Harness.Fs_config.make spec in
    let fs = stack.Harness.Fs_config.fs in
    Fsapi.Fs.write_file fs "/hello.txt" "hello from the PM simulator";
    Printf.printf "wrote and read back on %s: %S\n" fs_name
      (Fsapi.Fs.read_file fs "/hello.txt");
    Printf.printf "simulated time: %.0f ns\n%s"
      (Pmem.Env.now stack.Harness.Fs_config.env)
      (Fmt.str "%a" Pmem.Stats.pp_table
         stack.Harness.Fs_config.env.Pmem.Env.stats)
  in
  let fs_arg =
    Arg.(
      value
      & opt string "splitfs-strict"
      & info [ "fs" ] ~doc:"File system (e.g. ext4-dax, splitfs-posix, nova-strict).")
  in
  cmd "smoke" "Write and read one file, print simulated cost."
    Term.(const run $ fs_arg)

let all_cmd =
  let run total_mb records operations iterations =
    run_table1 total_mb;
    run_table2 ();
    run_table6 iterations;
    run_fig3 total_mb;
    run_fig4 total_mb;
    run_fig5 records operations;
    run_fig6 records operations;
    run_table7 records operations;
    run_recovery ();
    run_resources ();
    print (E.ablations ())
  in
  cmd "all" "Run every experiment of the evaluation."
    Term.(const run $ total_mb $ records $ operations $ iterations)

let () =
  let info = Cmd.info "splitfs_cli" ~doc:"SplitFS reproduction experiments." in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [
            cmd "table1" "Software overhead of 4K appends."
              Term.(const run_table1 $ total_mb);
            cmd "table2" "PM performance characteristics."
              Term.(const run_table2 $ const ());
            cmd "table6" "System call latencies (varmail)."
              Term.(const run_table6 $ iterations);
            cmd "table7" "Strata vs SplitFS-strict on YCSB."
              Term.(const run_table7 $ records $ operations);
            cmd "fig3" "Technique contribution breakdown."
              Term.(const run_fig3 $ total_mb);
            cmd "fig4" "IO patterns across file systems."
              Term.(const run_fig4 $ total_mb);
            cmd "fig5" "Relative software overhead in applications."
              Term.(const run_fig5 $ records $ operations);
            cmd "fig6" "Application performance."
              Term.(const run_fig6 $ records $ operations);
            cmd "recovery" "Crash-recovery time vs log entries."
              Term.(const run_recovery $ const ());
            cmd "crashcheck"
              "Crash-state exploration with a differential recovery oracle."
              Term.(const run_crashcheck $ samples $ seed $ cc_ops $ jobs_arg);
            cmd "faultcheck"
              "Fault-injection campaign: media errors, resource exhaustion, oracle."
              Term.(const run_faultcheck $ fc_seed $ fc_ops $ jobs_arg);
            cmd "litmus"
              "Exhaustive litmus corpus (Ferrite patterns and more) plus \
               fence minimization."
              Term.(const run_litmus $ lm_no_minimize $ jobs_arg);
            cmd "fams"
              "Failure-atomic msync: litmus legs, torn-msync canary, \
               faultcheck, FAMS-vs-WAL experiment."
              Term.(const run_fams $ jobs_arg);
            cmd "ablations" "Design-choice ablations (DRAM staging, huge pages, mmap size)."
              Term.(const run_ablations $ total_mb);
            cmd "resources" "U-Split resource consumption."
              Term.(const run_resources $ const ());
            cmd "scaling"
              "Aggregate throughput vs concurrent clients (deterministic)."
              Term.(const run_scaling $ const ());
            cmd "scale"
              "Multi-tenant serving tier at up to 10k actors, plus the \
               dispatch-overhead microbenchmark."
              Term.(const run_scale $ scale_fast $ scale_dispatch_n $ jobs_arg);
            cmd "par-bench"
              "Wall-time every verification campaign at 1/2/4/8 worker \
               domains; gate the 4-job speedup on multi-core hosts."
              Term.(const run_par_bench $ const ());
            cmd "profile"
              "Software-overhead attribution: where every simulated ns goes."
              Term.(const run_profile $ const ());
            cmd "latency" "Latency percentiles per (stack x op)."
              Term.(const run_latency $ const ());
            cmd "trace"
              "Run a traced multi-client workload, write Perfetto-loadable JSON."
              Term.(
                const run_trace $ trace_fs $ trace_clients $ trace_ops
                $ trace_out $ trace_sample $ trace_syscalls);
            cmd "timeline"
              "Sample the serving tier over virtual time; export OpenMetrics \
               and Perfetto counter tracks, print warmup vs steady state."
              Term.(
                const run_timeline $ tl_fs $ tl_actors $ tl_out_metrics
                $ tl_out_trace);
            cmd "bench-diff"
              "Compare two perf trajectory points; exit nonzero on regression."
              Term.(const run_bench_diff $ bd_old $ bd_new);
            smoke;
            all_cmd;
          ]))
