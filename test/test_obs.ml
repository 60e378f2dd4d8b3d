(** Tests for the observability layer (PR 4): the attribution identity on
    every stack, zero simulated-time perturbation from tracing, Chrome
    trace JSON shape, strace-style syscall lines, histograms and the
    stats pretty-printers. *)

let tc = Alcotest.test_case

(* --- a tiny JSON reader, enough to validate a Chrome trace ---------- *)

type json =
  | Jnull
  | Jbool of bool
  | Jnum of float
  | Jstr of string
  | Jarr of json list
  | Jobj of (string * json) list

let json_parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = Alcotest.failf "json_parse: %s at %d" msg !pos in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let next () =
    let c = peek () in
    incr pos;
    c
  in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' ->
        incr pos;
        skip_ws ()
    | _ -> ()
  in
  let expect c = if next () <> c then fail (Printf.sprintf "expected %c" c) in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match next () with
      | '"' -> Buffer.contents b
      | '\\' -> (
          match next () with
          | '"' -> Buffer.add_char b '"'; go ()
          | '\\' -> Buffer.add_char b '\\'; go ()
          | '/' -> Buffer.add_char b '/'; go ()
          | 'n' -> Buffer.add_char b '\n'; go ()
          | 'r' -> Buffer.add_char b '\r'; go ()
          | 't' -> Buffer.add_char b '\t'; go ()
          | 'u' ->
              let hex = String.sub s !pos 4 in
              pos := !pos + 4;
              Buffer.add_char b (Char.chr (int_of_string ("0x" ^ hex) land 0xff));
              go ()
          | c -> fail (Printf.sprintf "bad escape %c" c))
      | '\000' -> fail "eof in string"
      | c -> Buffer.add_char b c; go ()
    in
    go ()
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
        incr pos;
        skip_ws ();
        if peek () = '}' then (incr pos; Jobj [])
        else
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match next () with
            | ',' -> members ((k, v) :: acc)
            | '}' -> Jobj (List.rev ((k, v) :: acc))
            | _ -> fail "expected , or }"
          in
          members []
    | '[' ->
        incr pos;
        skip_ws ();
        if peek () = ']' then (incr pos; Jarr [])
        else
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            match next () with
            | ',' -> elems (v :: acc)
            | ']' -> Jarr (List.rev (v :: acc))
            | _ -> fail "expected , or ]"
          in
          elems []
    | '"' -> Jstr (parse_string ())
    | 't' ->
        pos := !pos + 4;
        Jbool true
    | 'f' ->
        pos := !pos + 5;
        Jbool false
    | 'n' ->
        pos := !pos + 4;
        Jnull
    | _ ->
        let start = !pos in
        let isnum c =
          (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e'
          || c = 'E'
        in
        while isnum (peek ()) do incr pos done;
        if !pos = start then fail "unexpected character";
        Jnum (float_of_string (String.sub s start (!pos - start)))
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let jfield k = function
  | Jobj kvs -> List.assoc_opt k kvs
  | _ -> None

(* --- the accounting identity on every stack ------------------------- *)

(** Every simulated nanosecond on every stack must land in exactly one
    category: [check_identity] raises if attribution and the per-actor
    clocks disagree beyond float-summation rounding (the documented
    tolerance: 1e-8 relative + 1e-6 ns absolute). *)
let test_identity_all_stacks () =
  List.iter
    (fun spec ->
      let stack = Harness.Fs_config.make spec in
      let (_ : int) = Harness.Experiments.profile_workload stack.Harness.Fs_config.fs in
      let att, acc = Pmem.Env.check_identity stack.Harness.Fs_config.env in
      Alcotest.(check bool)
        (Printf.sprintf "%s: identity positive" (Harness.Fs_config.name spec))
        true
        (att > 0. && acc > 0.);
      (* no category may go negative *)
      List.iter
        (fun (c, v) ->
          if v < 0. then
            Alcotest.failf "%s: negative attribution for %s: %f"
              (Harness.Fs_config.name spec) (Obs.cat_name c) v)
        (Obs.breakdown stack.Harness.Fs_config.env.Pmem.Env.obs))
    Harness.Fs_config.all

(** The identity also holds under concurrency: shared locks, bandwidth
    queueing and per-actor clocks, with instrumentation on. *)
let test_identity_multiclient () =
  List.iter
    (fun spec ->
      let env_ref = ref None in
      let (_ : Harness.Multiclient.result) =
        Harness.Multiclient.run ~instrument:true
          ~on_env:(fun e -> env_ref := Some e)
          spec ~nclients:4
      in
      let env = Option.get !env_ref in
      let (_ : float * float) = Pmem.Env.check_identity env in
      ())
    [ Harness.Fs_config.Ext4_dax; Harness.Fs_config.Splitfs_posix;
      Harness.Fs_config.Splitfs_strict ]

(** Background work is its own category, and it must agree exactly with
    the stats counter the environment already keeps. *)
let test_background_attribution () =
  let env = Util.make_env () in
  Pmem.Env.in_background env (fun () -> Pmem.Env.cpu env 1234.);
  Alcotest.(check (float 0.)) "background category = background_ns"
    env.Pmem.Env.stats.Pmem.Stats.background_ns
    (Obs.attributed env.Pmem.Env.obs Obs.Background);
  let (_ : float * float) = Pmem.Env.check_identity env in
  ()

(* --- tracing must not move the simulated clock ---------------------- *)

let test_tracing_bit_identical () =
  let run ~traced spec =
    let stack = Harness.Fs_config.make spec in
    if traced then
      Obs.set_tracing ~sample:1 ~ring:4096 stack.Harness.Fs_config.env.Pmem.Env.obs true;
    let (_ : int) = Harness.Experiments.profile_workload stack.Harness.Fs_config.fs in
    (Pmem.Env.now stack.Harness.Fs_config.env, stack)
  in
  List.iter
    (fun spec ->
      let t_off, _ = run ~traced:false spec in
      let t_on, stack = run ~traced:true spec in
      Alcotest.(check (float 0.))
        (Printf.sprintf "%s: simulated ns identical with tracing on"
           (Harness.Fs_config.name spec))
        t_off t_on;
      Alcotest.(check bool) "spans were actually recorded" true
        (Obs.span_count stack.Harness.Fs_config.env.Pmem.Env.obs > 0))
    [ Harness.Fs_config.Ext4_dax; Harness.Fs_config.Splitfs_posix;
      Harness.Fs_config.Splitfs_strict; Harness.Fs_config.Nova_relaxed ];
  (* and under the deterministic scheduler: same makespan, same
     interleaving fingerprint *)
  let plain = Harness.Multiclient.run Harness.Fs_config.Splitfs_posix ~nclients:4 in
  let traced =
    Harness.Multiclient.run ~instrument:true
      ~on_env:(fun e -> Obs.set_tracing e.Pmem.Env.obs true)
      Harness.Fs_config.Splitfs_posix ~nclients:4
  in
  Alcotest.(check (float 0.)) "multiclient makespan identical"
    plain.Harness.Multiclient.makespan_ns traced.Harness.Multiclient.makespan_ns;
  Alcotest.(check int) "multiclient interleaving identical"
    plain.Harness.Multiclient.trace_hash traced.Harness.Multiclient.trace_hash

(* --- Chrome trace JSON ---------------------------------------------- *)

let test_chrome_json () =
  let env_ref = ref None in
  let (_ : Harness.Multiclient.result) =
    Harness.Multiclient.run ~instrument:true
      ~on_env:(fun e ->
        env_ref := Some e;
        Obs.set_tracing e.Pmem.Env.obs true)
      Harness.Fs_config.Splitfs_posix ~nclients:3
  in
  let env = Option.get !env_ref in
  let actors =
    List.map
      (fun a -> (a.Pmem.Simclock.aid, a.Pmem.Simclock.a_name))
      (Pmem.Simclock.actors env.Pmem.Env.clock)
  in
  let doc = json_parse (Obs.chrome_json ~actors env.Pmem.Env.obs) in
  let events =
    match jfield "traceEvents" doc with
    | Some (Jarr evs) -> evs
    | _ -> Alcotest.fail "no traceEvents array"
  in
  let complete =
    List.filter (fun e -> jfield "ph" e = Some (Jstr "X")) events
  in
  Alcotest.(check bool) "has complete spans" true (List.length complete > 0);
  let distinct f =
    List.sort_uniq compare (List.filter_map f complete)
  in
  let cats =
    distinct (fun e ->
        match jfield "cat" e with Some (Jstr c) -> Some c | _ -> None)
  in
  let tids =
    distinct (fun e ->
        match jfield "tid" e with Some (Jnum t) -> Some t | _ -> None)
  in
  Alcotest.(check bool)
    (Printf.sprintf "spans from >= 4 layers (got %s)" (String.concat "," cats))
    true
    (List.length cats >= 4);
  Alcotest.(check bool) "spans on >= 2 actor tracks" true (List.length tids >= 2);
  (* every complete event is well-formed: name, non-negative ts/dur *)
  List.iter
    (fun e ->
      (match jfield "name" e with
      | Some (Jstr _) -> ()
      | _ -> Alcotest.fail "span without name");
      match (jfield "ts" e, jfield "dur" e) with
      | Some (Jnum ts), Some (Jnum dur) ->
          if ts < 0. || dur < 0. then Alcotest.fail "negative ts/dur"
      | _ -> Alcotest.fail "span without ts/dur")
    complete;
  (* thread-name metadata names every actor track *)
  let named_tids =
    List.filter_map
      (fun e ->
        if jfield "ph" e = Some (Jstr "M") && jfield "name" e = Some (Jstr "thread_name")
        then match jfield "tid" e with Some (Jnum t) -> Some t | _ -> None
        else None)
      events
  in
  List.iter
    (fun tid ->
      Alcotest.(check bool) "span tid has thread_name metadata" true
        (List.mem tid named_tids))
    tids

(* --- strace-style syscall lines ------------------------------------- *)

let test_syscall_trace_lines () =
  let env, _kfs, sys = Util.make_kernel () in
  let fs = Kernelfs.Syscall.as_fsapi sys in
  let obs = env.Pmem.Env.obs in
  Obs.set_tracing obs true;
  let lines = ref [] in
  Obs.set_on_event obs
    (Some
       (fun s ->
         match s.Obs.e_arg with
         | Some l -> lines := l :: !lines
         | None -> ()));
  Fsapi.Fs.write_file fs "/traced.txt" "hello";
  (match fs.Fsapi.Fs.stat "/missing" with
  | (_ : Fsapi.Fs.stat) -> Alcotest.fail "stat of missing path succeeded"
  | exception Fsapi.Errno.Error (Fsapi.Errno.ENOENT, _) -> ());
  let all = String.concat "\n" (List.rev !lines) in
  let has sub =
    let nl = String.length all and ns = String.length sub in
    let rec go i = i + ns <= nl && (String.sub all i ns = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "open line rendered" true (has "open(\"/traced.txt\")");
  Alcotest.(check bool) "write result rendered" true (has "= 5");
  Alcotest.(check bool) "failed stat rendered as errno" true
    (has "stat(\"/missing\") = ENOENT")

(* --- histograms ------------------------------------------------------ *)

let test_hist_percentiles () =
  let h = Obs.Hist.create () in
  for i = 1 to 1000 do
    Obs.Hist.record h (float_of_int i)
  done;
  Alcotest.(check int) "count" 1000 (Obs.Hist.n h);
  let p50 = Obs.Hist.percentile h 50. in
  let p99 = Obs.Hist.percentile h 99. in
  let p999 = Obs.Hist.percentile h 99.9 in
  (* log-bucketed: quarter-log2 buckets give ~19% worst-case error *)
  Alcotest.(check bool) "p50 in bucket range" true (p50 > 350. && p50 < 700.);
  Alcotest.(check bool) "p99 above p50" true (p99 >= p50);
  Alcotest.(check bool) "p999 above p99, below max" true
    (p999 >= p99 && p999 <= 1000.);
  (* a constant distribution reports the constant exactly *)
  let c = Obs.Hist.create () in
  for _ = 1 to 100 do Obs.Hist.record c 42. done;
  List.iter
    (fun p ->
      Alcotest.(check (float 0.)) "constant percentile exact" 42.
        (Obs.Hist.percentile c p))
    [ 50.; 90.; 99.; 99.9 ]

(* Edge cases for the SLO-attainment arithmetic: empty histogram (no op
   violated any objective), single sample (every percentile clamps to
   the one observed value), and a threshold exactly equal to the sample
   (whole buckets count as below when their upper edge does). *)
let test_hist_edge_cases () =
  let e = Obs.Hist.create () in
  Alcotest.(check (float 0.)) "empty frac_below" 1. (Obs.Hist.frac_below e 100.);
  Alcotest.(check (float 0.)) "empty percentile" 0. (Obs.Hist.percentile e 99.);
  Alcotest.(check (float 0.)) "empty mean" 0. (Obs.Hist.mean e);
  let s = Obs.Hist.create () in
  Obs.Hist.record s 1000.;
  List.iter
    (fun p ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "single-sample p%g" p)
        1000. (Obs.Hist.percentile s p))
    [ 0.; 50.; 100. ];
  Alcotest.(check (float 0.)) "boundary-equal counts as below" 1.
    (Obs.Hist.frac_below s 1000.);
  Alcotest.(check (float 0.)) "threshold above" 1. (Obs.Hist.frac_below s 2000.);
  Alcotest.(check (float 0.)) "threshold below" 0. (Obs.Hist.frac_below s 500.)

(* --- stats printers (satellite: lock/bw wait in the dump) ------------ *)

let test_stats_printers () =
  let s = Pmem.Stats.create () in
  s.Pmem.Stats.lock_wait_ns <- 123.;
  s.Pmem.Stats.bw_wait_ns <- 456.;
  let table = Fmt.str "%a" Pmem.Stats.pp_table s in
  let has sub str =
    let nl = String.length str and ns = String.length sub in
    let rec go i = i + ns <= nl && (String.sub str i ns = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "table has lock wait" true (has "lock wait" table);
  Alcotest.(check bool) "table has bandwidth wait" true
    (has "bandwidth wait" table);
  let s0 = Pmem.Stats.copy s in
  s.Pmem.Stats.syscalls <- s.Pmem.Stats.syscalls + 7;
  s.Pmem.Stats.lock_wait_ns <- s.Pmem.Stats.lock_wait_ns +. 100.;
  let delta = Fmt.str "%a" Pmem.Stats.pp_delta (s, s0) in
  Alcotest.(check bool) "delta shows syscalls" true (has "+7" delta);
  Alcotest.(check bool) "delta shows lock wait" true (has "+100 ns" delta);
  Alcotest.(check bool) "delta hides unchanged rows" false
    (has "pm read bytes" delta);
  let none = Fmt.str "%a" Pmem.Stats.pp_delta (s, Pmem.Stats.copy s) in
  Alcotest.(check bool) "empty delta says so" true (has "no change" none)

(* --- the profile experiment ------------------------------------------ *)

let test_profile_experiment () =
  let r = Harness.Experiments.profile () in
  Util.check_points ~values:true "profile/" r.points;
  let rows = r.value in
  let find spec =
    List.find
      (fun r -> r.Harness.Experiments.pr_spec = spec)
      rows
  in
  let total r =
    List.fold_left (fun a (_, v) -> a +. v) 0. r.Harness.Experiments.pr_breakdown
  in
  let cat r c = List.assoc c r.Harness.Experiments.pr_breakdown in
  let ext4 = find Harness.Fs_config.Ext4_dax in
  let posix = find Harness.Fs_config.Splitfs_posix in
  (* the paper's Figure 2 shape: ext4 DAX spends most of its time in
     software (traps, kernel CPU, jbd2); SplitFS-POSIX is mostly media *)
  Alcotest.(check bool) "ext4 software overhead > 50%" true
    (total ext4 -. cat ext4 Obs.Media > 0.5 *. total ext4);
  Alcotest.(check bool) "splitfs-posix media >= 50%" true
    (cat posix Obs.Media >= 0.5 *. total posix);
  Alcotest.(check bool) "splitfs usplit-cpu present" true
    (cat posix Obs.Usplit > 0.);
  Alcotest.(check bool) "ext4 journal present" true (cat ext4 Obs.Journal > 0.);
  Alcotest.(check bool) "ext4 has no usplit time" true (cat ext4 Obs.Usplit = 0.)

let test_latency_experiment () =
  let r = Harness.Experiments.latency () in
  Util.check_points ~values:true "lat/" r.points;
  let rows = r.value in
  let find spec op =
    List.find
      (fun r ->
        r.Harness.Experiments.lat_spec = spec
        && r.Harness.Experiments.lat_op = op)
      rows
  in
  let e = find Harness.Fs_config.Ext4_dax "pwrite" in
  let p = find Harness.Fs_config.Splitfs_posix "pwrite" in
  Alcotest.(check int) "all writes measured" 512 e.Harness.Experiments.lat_n;
  Alcotest.(check bool) "splitfs p50 write below ext4" true
    (p.Harness.Experiments.lat_p50 < e.Harness.Experiments.lat_p50);
  List.iter
    (fun (r : Harness.Experiments.latency_row) ->
      if
        not
          (r.Harness.Experiments.lat_p50 <= r.Harness.Experiments.lat_p90
          && r.Harness.Experiments.lat_p90 <= r.Harness.Experiments.lat_p99
          && r.Harness.Experiments.lat_p99 <= r.Harness.Experiments.lat_p999)
      then
        Alcotest.failf "percentiles not monotone for %s/%s"
          (Harness.Fs_config.name r.Harness.Experiments.lat_spec)
          r.Harness.Experiments.lat_op)
    rows

(* --- virtual-time timeline (PR 9) ------------------------------------ *)

(** The timeline leg of the accounting identity: with a timeline attached,
    every stack's sampled per-series deltas must sum to the final
    cumulative counters ([Timeline.check], invoked by [check_identity]
    after a flush). *)
let test_timeline_identity_all_stacks () =
  List.iter
    (fun spec ->
      let stack = Harness.Fs_config.make spec in
      let tl = Pmem.Env.enable_timeline stack.Harness.Fs_config.env in
      let (_ : int) =
        Harness.Experiments.profile_workload stack.Harness.Fs_config.fs
      in
      let (_ : float * float) =
        Pmem.Env.check_identity stack.Harness.Fs_config.env
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: timeline sampled" (Harness.Fs_config.name spec))
        true
        (Obs.Timeline.samples_taken tl > 0
        && List.length (Obs.Timeline.series_names tl) >= Obs.ncats))
    Harness.Fs_config.all

(** When the buffer fills, adjacent samples pair-merge and the period
    doubles — and because compaction depends only on the sample count,
    the whole history is reproducible byte-for-byte. *)
let test_timeline_widen_determinism () =
  let run () =
    let tl = Obs.Timeline.create ~capacity:8 ~period_ns:10. () in
    let counter = ref 0. in
    Obs.Timeline.add_source tl ~name:"c" (fun () -> !counter);
    for i = 1 to 100 do
      counter := !counter +. float_of_int (i mod 7);
      Obs.Timeline.sample tl ~now:(10. *. float_of_int i)
    done;
    (tl, !counter)
  in
  let tl, final = run () in
  Alcotest.(check bool) "compaction happened" true (Obs.Timeline.doublings tl > 0);
  Alcotest.(check bool) "retained below capacity" true
    (Obs.Timeline.length tl <= 8);
  Alcotest.(check bool) "period doubled" true (Obs.Timeline.period_ns tl > 10.);
  (* nothing is evicted: retained deltas alone cover the run *)
  let retained =
    Array.fold_left (fun acc (_, d, _) -> acc +. d) 0.
      (Obs.Timeline.samples tl "c")
  in
  Alcotest.(check (float 1e-9)) "retained deltas = final - cum0" final retained;
  Alcotest.(check int) "identity" 1 (Obs.Timeline.check tl);
  let tl2, _ = run () in
  Alcotest.(check string) "two identical runs export identical bytes"
    (Obs.Timeline.openmetrics tl)
    (Obs.Timeline.openmetrics tl2)

(** Zero perturbation, end to end: a serving-tier run with the timeline
    sampler and tail forensics on must produce bit-identical simulated
    results (makespan, interleaving fingerprint) to the same run with
    both off. *)
let test_timeline_bit_identical () =
  List.iter
    (fun spec ->
      let plain =
        Harness.Multiclient.run_scale ~ops_per_actor:40 spec ~nactors:32
      in
      let observed =
        Harness.Multiclient.run_scale ~ops_per_actor:40 ~timeline:true
          ~forensics:true spec ~nactors:32
      in
      Alcotest.(check (float 0.))
        (Printf.sprintf "%s: makespan identical with telemetry on"
           (Harness.Fs_config.name spec))
        plain.Harness.Multiclient.sr_makespan_ns
        observed.Harness.Multiclient.sr_makespan_ns;
      Alcotest.(check int)
        (Printf.sprintf "%s: interleaving identical with telemetry on"
           (Harness.Fs_config.name spec))
        plain.Harness.Multiclient.sr_trace_hash
        observed.Harness.Multiclient.sr_trace_hash;
      (* and the telemetry actually observed something *)
      (match observed.Harness.Multiclient.sr_timeline with
      | Some tl ->
          Alcotest.(check bool) "samples taken" true
            (Obs.Timeline.samples_taken tl > 0)
      | None -> Alcotest.fail "no timeline attached");
      match observed.Harness.Multiclient.sr_forensics with
      | Some fo ->
          Alcotest.(check bool) "exemplars captured" true
            (Obs.Forensics.keys fo <> [])
      | None -> Alcotest.fail "no forensics attached")
    [ Harness.Fs_config.Ext4_dax; Harness.Fs_config.Splitfs_posix ]

(** The timeline report's four windows span the fleet, from its first
    spawn to its end, so at 1,000 actors every window serves ops. The
    first samples are taken during tenant set-up, before any actor
    runs: windows bounded by them would show set-up, not serving. *)
let test_timeline_windows_span_fleet () =
  let r =
    Harness.Experiments.timeline_report ~spec:Harness.Fs_config.Splitfs_posix
      ~nactors:1000 ()
  in
  let rows =
    String.split_on_char '\n' r.Harness.Runner.text
    |> List.filter_map (fun line ->
           match List.map String.trim (String.split_on_char '|' line) with
           | [ ""; window; _; ops; _; _; "" ] when window <> "window" ->
               Some (window, int_of_string ops)
           | _ -> None)
  in
  Util.check_int "four windows" 4 (List.length rows);
  List.iter
    (fun (window, ops) ->
      Util.check_bool (Printf.sprintf "window %s serves ops" window) true
        (ops > 0))
    rows;
  Util.check_int "every fleet op lands in a window"
    r.Harness.Runner.value.Harness.Multiclient.sr_total_ops
    (List.fold_left (fun acc (_, ops) -> acc + ops) 0 rows)

(** The obs-disabled fast path in the clock funnel must stay
    allocation-free apart from the boxed float store on the actor clock:
    no closures, tuples or options per advance. Native-only — bytecode
    does not unbox float compares. *)
let test_advance_alloc_free () =
  match Sys.backend_type with
  | Sys.Native ->
      let env = Util.make_env () in
      let clock = env.Pmem.Env.clock in
      for _ = 1 to 1000 do Pmem.Simclock.advance clock 1. done;
      let iters = 100_000 in
      let w0 = Gc.minor_words () in
      for _ = 1 to iters do Pmem.Simclock.advance clock 1. done;
      let per_iter = (Gc.minor_words () -. w0) /. float_of_int iters in
      if per_iter > 4. then
        Alcotest.failf
          "Simclock.advance allocates %.2f words/iter with obs disabled \
           (budget: 4 — the one boxed a_now store plus rounding)"
          per_iter
  | _ -> ()

(* --- tail forensics --------------------------------------------------- *)

let test_forensics_topk () =
  let fo = Obs.Forensics.create ~k:2 ~ncats:3 () in
  let op ~lat ~media =
    Obs.Forensics.op_begin fo ~key:"fs/pwrite" ~actor:0 ~t0:0.
      ~cats:[| 0.; 0.; 0. |];
    Obs.Forensics.op_end fo ~t1:lat ~cats:[| media; lat -. media; 0. |]
  in
  List.iter (fun l -> op ~lat:l ~media:(l /. 2.)) [ 50.; 300.; 100.; 200.; 300. ];
  Alcotest.(check (list string)) "keys" [ "fs/pwrite" ] (Obs.Forensics.keys fo);
  Alcotest.(check int) "population counted" 5
    (Obs.Forensics.total_ops fo "fs/pwrite");
  let exs = Obs.Forensics.exemplars fo "fs/pwrite" in
  Alcotest.(check int) "capped at k" 2 (List.length exs);
  (match exs with
  | [ a; b ] ->
      Alcotest.(check (float 0.)) "slowest first" 300. a.Obs.Forensics.ex_lat_ns;
      Alcotest.(check (float 0.)) "runner-up" 300. b.Obs.Forensics.ex_lat_ns;
      Alcotest.(check (list int)) "provenance: both 300s retained" [ 1; 4 ]
        (List.sort compare [ a.Obs.Forensics.ex_seq; b.Obs.Forensics.ex_seq ]);
      (* category decomposition is the snapshot delta *)
      Alcotest.(check (float 0.)) "cats sum to latency" 300.
        (Array.fold_left ( +. ) 0. a.Obs.Forensics.ex_cats)
  | _ -> Alcotest.fail "expected exactly two exemplars");
  (* a tie against a full list loses: the incumbent keeps its slot *)
  op ~lat:300. ~media:10.;
  Alcotest.(check (list int)) "tie rejected, incumbents stay" [ 1; 4 ]
    (List.sort compare
       (List.map
          (fun e -> e.Obs.Forensics.ex_seq)
          (Obs.Forensics.exemplars fo "fs/pwrite")));
  (* nested instrumented ops fold into the outermost capture *)
  Obs.Forensics.op_begin fo ~key:"fs/outer" ~actor:1 ~t0:0. ~cats:[| 0.; 0.; 0. |];
  Obs.Forensics.op_begin fo ~key:"fs/inner" ~actor:1 ~t0:1. ~cats:[| 0.; 0.; 0. |];
  Obs.Forensics.op_end fo ~t1:5. ~cats:[| 1.; 0.; 0. |];
  Obs.Forensics.op_end fo ~t1:10. ~cats:[| 2.; 0.; 0. |];
  Alcotest.(check (list string)) "inner op folded into outer"
    [ "fs/outer" ]
    (List.filter
       (fun k -> k = "fs/outer" || k = "fs/inner")
       (Obs.Forensics.keys fo))

(** Through the real capture hook: exemplars carry the op's inner spans,
    with the op's own span last — without the trace ring being on. *)
let test_forensics_span_capture () =
  let r =
    Harness.Multiclient.run_scale ~ops_per_actor:20 ~forensics:true
      Harness.Fs_config.Splitfs_posix ~nactors:8
  in
  let fo = Option.get r.Harness.Multiclient.sr_forensics in
  let checked = ref 0 in
  List.iter
    (fun key ->
      List.iter
        (fun ex ->
          match List.rev ex.Obs.Forensics.ex_spans with
          | last :: _ ->
              incr checked;
              let n = last.Obs.e_name in
              if not (String.length n > 3 && String.sub n 0 3 = "op:") then
                Alcotest.failf "%s: exemplar's last span is %S, not the op span"
                  key n
          | [] -> Alcotest.failf "%s: exemplar without spans" key)
        (Obs.Forensics.exemplars fo key))
    (Obs.Forensics.keys fo);
  Alcotest.(check bool) "some exemplars checked" true (!checked > 0)

(* --- exporters -------------------------------------------------------- *)

let test_openmetrics_export () =
  let tl = Obs.Timeline.create ~capacity:8 ~period_ns:10. () in
  let c = ref 0. in
  Obs.Timeline.add_source tl ~name:"cat/media" (fun () -> !c);
  c := 42.;
  Obs.Timeline.sample tl ~now:10.;
  let text = Obs.Timeline.openmetrics tl in
  let has sub =
    let nl = String.length text and ns = String.length sub in
    let rec go i = i + ns <= nl && (String.sub text i ns = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "metric name sanitized" true
    (has "splitfs_cat_media{series=\"cat/media\"} 42");
  Alcotest.(check bool) "HELP and TYPE rendered" true
    (has "# TYPE splitfs_cat_media gauge");
  Alcotest.(check bool) "ends with the OpenMetrics EOF marker" true
    (has "# EOF\n"
    && String.sub text (String.length text - 6) 6 = "# EOF\n")

(** Counter tracks ride along in the Chrome trace: with a timeline
    attached, [chrome_json] emits ["ph":"C"] events carrying the sampled
    values next to the spans. *)
let test_chrome_counter_tracks () =
  let env_ref = ref None in
  let (_ : Harness.Multiclient.scale_result) =
    Harness.Multiclient.run_scale ~ops_per_actor:20 ~timeline:true
      ~on_env:(fun e ->
        env_ref := Some e;
        Obs.set_tracing e.Pmem.Env.obs true)
      Harness.Fs_config.Splitfs_posix ~nactors:8
  in
  let env = Option.get !env_ref in
  let doc = json_parse (Obs.chrome_json env.Pmem.Env.obs) in
  let events =
    match jfield "traceEvents" doc with
    | Some (Jarr evs) -> evs
    | _ -> Alcotest.fail "no traceEvents array"
  in
  let counters =
    List.filter (fun e -> jfield "ph" e = Some (Jstr "C")) events
  in
  Alcotest.(check bool) "counter events present" true (List.length counters > 0);
  List.iter
    (fun e ->
      (match jfield "name" e with
      | Some (Jstr _) -> ()
      | _ -> Alcotest.fail "counter without name");
      match jfield "args" e with
      | Some (Jobj kvs) when List.mem_assoc "value" kvs -> ()
      | _ -> Alcotest.fail "counter without args.value")
    counters;
  Alcotest.(check bool) "span events still present" true
    (List.exists (fun e -> jfield "ph" e = Some (Jstr "X")) events)

(* --- histogram merge -------------------------------------------------- *)

let test_hist_merge () =
  let a = Obs.Hist.create () and b = Obs.Hist.create () in
  for i = 1 to 500 do Obs.Hist.record a (float_of_int i) done;
  for i = 501 to 1000 do Obs.Hist.record b (float_of_int i) done;
  let whole = Obs.Hist.create () in
  for i = 1 to 1000 do Obs.Hist.record whole (float_of_int i) done;
  Obs.Hist.merge ~into:a b;
  Alcotest.(check int) "merged count" (Obs.Hist.n whole) (Obs.Hist.n a);
  Alcotest.(check (float 0.)) "merged sum" (Obs.Hist.sum whole) (Obs.Hist.sum a);
  Alcotest.(check (float 0.)) "merged min" (Obs.Hist.min_v whole) (Obs.Hist.min_v a);
  Alcotest.(check (float 0.)) "merged max" (Obs.Hist.max_v whole) (Obs.Hist.max_v a);
  List.iter
    (fun p ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "merged p%g = whole-population p%g" p p)
        (Obs.Hist.percentile whole p)
        (Obs.Hist.percentile a p))
    [ 50.; 90.; 99.; 99.9 ];
  (* merging an empty histogram is the identity *)
  let before = Obs.Hist.percentile a 50. in
  Obs.Hist.merge ~into:a (Obs.Hist.create ());
  Alcotest.(check (float 0.)) "merge with empty is identity" before
    (Obs.Hist.percentile a 50.)

let suite =
  [
    tc "identity: every stack" `Quick test_identity_all_stacks;
    tc "identity: multiclient" `Quick test_identity_multiclient;
    tc "identity: background category" `Quick test_background_attribution;
    tc "tracing leaves simulated ns bit-identical" `Quick
      test_tracing_bit_identical;
    tc "chrome trace json" `Quick test_chrome_json;
    tc "strace-style syscall lines" `Quick test_syscall_trace_lines;
    tc "histogram percentiles" `Quick test_hist_percentiles;
    tc "histogram edge cases" `Quick test_hist_edge_cases;
    tc "stats table and delta printers" `Quick test_stats_printers;
    tc "profile experiment shape" `Quick test_profile_experiment;
    tc "latency experiment shape" `Quick test_latency_experiment;
    tc "timeline identity: every stack" `Quick test_timeline_identity_all_stacks;
    tc "timeline widen determinism" `Quick test_timeline_widen_determinism;
    tc "telemetry leaves simulated ns bit-identical" `Quick
      test_timeline_bit_identical;
    tc "timeline windows span the fleet" `Quick
      test_timeline_windows_span_fleet;
    tc "clock funnel alloc-free with obs off" `Quick test_advance_alloc_free;
    tc "forensics top-k" `Quick test_forensics_topk;
    tc "forensics span capture" `Quick test_forensics_span_capture;
    tc "openmetrics export" `Quick test_openmetrics_export;
    tc "chrome counter tracks" `Quick test_chrome_counter_tracks;
    tc "histogram merge" `Quick test_hist_merge;
  ]
