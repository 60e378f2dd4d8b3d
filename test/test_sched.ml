(** Tests for the per-actor clock, the deterministic scheduler, the
    contention model, and the multi-client scaling experiment (PR 3). *)

let tc = Alcotest.test_case

(* --- Simclock actors ------------------------------------------------ *)

let test_actor_clocks () =
  let clock = Pmem.Simclock.create () in
  Alcotest.(check bool) "single actor: not multi" false (Pmem.Simclock.multi clock);
  Pmem.Simclock.advance clock 100.;
  let a = Pmem.Simclock.new_actor clock ~name:"a" in
  Alcotest.(check bool) "two actors: multi" true (Pmem.Simclock.multi clock);
  Alcotest.(check (float 0.)) "spawned at current time" 100. a.Pmem.Simclock.a_now;
  Pmem.Simclock.set_current clock a;
  Pmem.Simclock.advance clock 50.;
  Alcotest.(check (float 0.)) "charge lands on current actor" 150.
    a.Pmem.Simclock.a_now;
  Alcotest.(check (float 0.)) "other actor unaffected" 100.
    (List.hd (Pmem.Simclock.actors clock)).Pmem.Simclock.a_now

(* --- Lock contention model ------------------------------------------ *)

let test_lock_charges_wait () =
  let env = Util.make_env ~capacity:(1024 * 1024) () in
  let l = Pmem.Lock.create "l" in
  let a = Pmem.Env.new_actor env ~name:"a" in
  let b = Pmem.Env.new_actor env ~name:"b" in
  (* actor a holds the lock over [0, 500) *)
  Pmem.Env.run_as env a (fun () ->
      Pmem.Env.with_lock env l (fun () -> Pmem.Env.cpu env 500.));
  (* actor b, dispatched at 0, must wait until 500 *)
  Pmem.Env.run_as env b (fun () ->
      Pmem.Env.with_lock env l (fun () -> Pmem.Env.cpu env 100.));
  Alcotest.(check (float 0.)) "b waited for a's critical section" 600.
    b.Pmem.Simclock.a_now;
  Alcotest.(check (float 0.)) "wait accounted" 500.
    env.Pmem.Env.stats.Pmem.Stats.lock_wait_ns;
  Alcotest.(check (float 0.)) "wait charged to b" 500.
    b.Pmem.Simclock.a_lock_wait_ns

let test_lock_inert_single_actor () =
  let env = Util.make_env ~capacity:(1024 * 1024) () in
  let l = Pmem.Lock.create "l" in
  Pmem.Env.with_lock env l (fun () -> Pmem.Env.cpu env 500.);
  (* a single-actor clock is monotone, but even a rewound clock (as
     [in_background] produces) must charge nothing without a second actor *)
  Pmem.Simclock.set_now env.Pmem.Env.clock 0.;
  Pmem.Env.with_lock env l (fun () -> ());
  Alcotest.(check (float 0.)) "no contention charge" 0.
    env.Pmem.Env.stats.Pmem.Stats.lock_wait_ns

(* --- Scheduler ------------------------------------------------------ *)

let test_min_clock_dispatch () =
  let env = Util.make_env ~capacity:(1024 * 1024) () in
  let s = Sched.create env in
  let order = ref [] in
  let mk name cost nops =
    Sched.spawn s ~name ~step:(fun c i ->
        if i >= nops then false
        else begin
          order := (c.Sched.c_name, i) :: !order;
          Pmem.Env.cpu env cost;
          true
        end)
  in
  let _a = mk "a" 10. 3 in
  let _b = mk "b" 25. 2 in
  Sched.run s;
  (* a@0 (tie, lower id), b@0, a@10, a@20, b@25, then exhaustion probes *)
  Alcotest.(check (list (pair string int)))
    "min-clock order, ties by id"
    [ ("a", 0); ("b", 0); ("a", 1); ("a", 2); ("b", 1) ]
    (List.rev !order);
  Alcotest.(check int) "total ops" 5 (Sched.total_ops s);
  Alcotest.(check (float 0.)) "makespan = slowest client" 50. (Sched.makespan s)

(* The event heap must be a pure drop-in for the reference min-scan: same
   dispatch trace, same makespan, same per-client op counts. Two workload
   shapes — heterogeneous costs, and tie-heavy bursts that stress the
   client-id tiebreak — across seeds and fleet sizes. *)
let test_heap_matches_reference () =
  let build_staircase seed env s n =
    for i = 0 to n - 1 do
      let rng = Workloads.Rng.create (seed + (i * 7919)) in
      let nops = 3 + (i mod 5) in
      ignore
        (Sched.spawn s
           ~name:(Printf.sprintf "c%d" i)
           ~step:(fun _ j ->
             if j >= nops then false
             else begin
               Pmem.Env.cpu env (50. +. float_of_int (Workloads.Rng.int rng 200));
               true
             end))
    done
  in
  let build_bursty seed env s n =
    for i = 0 to n - 1 do
      let rng = Workloads.Rng.create (seed + (i * 104729)) in
      ignore
        (Sched.spawn s
           ~name:(Printf.sprintf "c%d" i)
           ~step:(fun _ j ->
             if j >= 6 then false
             else begin
               (* zero-cost steps leave many clients tied on one clock *)
               if Workloads.Rng.bool rng then Pmem.Env.cpu env 1000.;
               true
             end))
    done
  in
  let fingerprint runner build seed n =
    let env = Util.make_env ~capacity:(1024 * 1024) () in
    let s = Sched.create env in
    build seed env s n;
    runner s;
    ( Sched.trace_hash s,
      Sched.makespan s,
      List.map (fun c -> c.Sched.ops_done) (Sched.clients s) )
  in
  List.iter
    (fun (wname, build) ->
      List.iter
        (fun seed ->
          List.iter
            (fun n ->
              let h1, m1, o1 = fingerprint Sched.run build seed n in
              let h2, m2, o2 = fingerprint Sched.run_reference build seed n in
              let label fmt =
                Printf.sprintf "%s seed=%d n=%d %s" wname seed n fmt
              in
              Alcotest.(check int) (label "trace hash") h2 h1;
              Alcotest.(check (float 0.)) (label "makespan") m2 m1;
              Alcotest.(check (list int)) (label "per-client ops") o2 o1)
            [ 1; 2; 4; 8; 16 ])
        [ 1; 0xBEEF ])
    [ ("staircase", build_staircase); ("bursty", build_bursty) ]

let test_spawn_many_clients () =
  let env = Util.make_env ~capacity:(1024 * 1024) () in
  let s = Sched.create env in
  let n = 2048 in
  for i = 0 to n - 1 do
    ignore
      (Sched.spawn s
         ~name:(Printf.sprintf "c%d" i)
         ~step:(fun _ j ->
           if j >= 1 then false
           else begin
             Pmem.Env.cpu env 10.;
             true
           end))
  done;
  Sched.run s;
  Alcotest.(check int) "all clients dispatched" n (Sched.total_ops s);
  Alcotest.(check int) "client list intact" n (List.length (Sched.clients s))

let test_scheduler_deterministic () =
  let go () =
    let r =
      Harness.Multiclient.run Harness.Fs_config.Splitfs_posix ~nclients:4
    in
    (r.Harness.Multiclient.makespan_ns, r.Harness.Multiclient.trace_hash,
     r.Harness.Multiclient.total_ops)
  in
  let m1, h1, o1 = go () in
  let m2, h2, o2 = go () in
  Alcotest.(check (float 0.)) "identical simulated makespan" m1 m2;
  Alcotest.(check int) "identical interleaving (trace hash)" h1 h2;
  Alcotest.(check int) "identical op count" o1 o2

(* --- Contention end to end ------------------------------------------ *)

let test_single_client_no_contention () =
  let r = Harness.Multiclient.run Harness.Fs_config.Ext4_dax ~nclients:1 in
  Alcotest.(check (float 0.)) "one client: no lock waits" 0.
    r.Harness.Multiclient.lock_wait_ns;
  Alcotest.(check (float 0.)) "one client: no bandwidth waits" 0.
    r.Harness.Multiclient.bw_wait_ns

let test_contention_appears () =
  let r = Harness.Multiclient.run Harness.Fs_config.Ext4_dax ~nclients:8 in
  Alcotest.(check bool) "8 ext4 clients contend on the journal lock" true
    (r.Harness.Multiclient.lock_wait_ns > 0.);
  Alcotest.(check bool) "8 ext4 clients contend on PM bandwidth" true
    (r.Harness.Multiclient.bw_wait_ns > 0.)

let test_splitfs_scales_over_ext4 () =
  let split =
    Harness.Multiclient.run Harness.Fs_config.Splitfs_posix ~nclients:8
  in
  let ext4 = Harness.Multiclient.run Harness.Fs_config.Ext4_dax ~nclients:8 in
  let ratio =
    split.Harness.Multiclient.kops_per_s /. ext4.Harness.Multiclient.kops_per_s
  in
  if ratio < 2. then
    Alcotest.failf
      "SplitFS(posix) aggregate at 8 clients is only %.2fx ext4 DAX (need >= 2x)"
      ratio

let test_scaling_improves_with_clients () =
  let run n =
    (Harness.Multiclient.run Harness.Fs_config.Splitfs_posix ~nclients:n)
      .Harness.Multiclient.kops_per_s
  in
  let t1 = run 1 and t8 = run 8 in
  if not (t8 > t1 *. 1.5) then
    Alcotest.failf "aggregate throughput barely scales: 1 client %.1f, 8 clients %.1f"
      t1 t8

(* --- Multi-tenant scale runs ---------------------------------------- *)

let test_scale_run_deterministic () =
  let go () =
    let r =
      Harness.Multiclient.run_scale ~ops_per_actor:12
        Harness.Fs_config.Splitfs_posix ~nactors:64
    in
    ( r.Harness.Multiclient.sr_trace_hash,
      r.Harness.Multiclient.sr_makespan_ns,
      r.Harness.Multiclient.sr_total_ops )
  in
  let h1, m1, o1 = go () in
  let h2, m2, o2 = go () in
  Alcotest.(check int) "identical interleaving" h1 h2;
  Alcotest.(check (float 0.)) "identical makespan" m1 m2;
  Alcotest.(check int) "identical op count" o1 o2;
  Alcotest.(check bool) "fleet did work" true (o1 > 64 * 12)

(* --- Crashcheck under concurrency ----------------------------------- *)

(* Two clients, 12 ops each, 60 sampled states at the committed seed:
   the crash-point count of each mode's merged trace is pinned, and the
   report must not depend on the job count. *)
let weave mode = Crashcheck.weave ~mode ~seed:0x51ED ~nops:12

let test_concurrent_crashcheck () =
  List.iter
    (fun jobs ->
      List.iter
        (fun (mode, points) ->
          let where =
            Printf.sprintf "%s, %d jobs"
              (Splitfs.Config.mode_to_string mode)
              jobs
          in
          let r =
            Crashcheck.check_program ~samples:60 ~seed:0x51ED ~jobs mode
              (weave mode)
          in
          Alcotest.(check int) (where ^ ": crash points") points
            r.Crashcheck.Trial.r_points;
          Alcotest.(check int) (where ^ ": explored") 60 r.r_explored;
          List.iter
            (fun v ->
              Alcotest.failf "%s: %a" where Crashcheck.Trial.pp_violation v)
            r.r_violations)
        Splitfs.Config.[ (Posix, 20); (Sync, 45); (Strict, 45); (Fams, 44) ])
    [ 1; 2 ]

(* The two-client leg's canary: with op-log checksum verification off,
   the same strict campaign must report violations. The first one in
   trial order gets the shrinking budget; its counterexample is pinned
   like the single-client one. Every violation names the woven path it
   is on, as the report prints it: client 1's files are /c1f0.., not
   the program's path indices. *)
let test_concurrent_canary () =
  let checks =
    { Pmem.Env.default_checks with Pmem.Env.verify_checksums = false }
  in
  let r =
    Crashcheck.check_program ~samples:60 ~seed:0x51ED ~checks
      Splitfs.Config.Strict (weave Splitfs.Config.Strict)
  in
  let module T = Crashcheck.Trial in
  Alcotest.(check int) "violations" 6 (List.length r.T.r_violations);
  (* "fence F (op K in flight), PATH: reason ..." *)
  let printed_path v =
    let s = Fmt.str "%a" T.pp_violation v in
    let from = String.index s ',' + 2 in
    String.sub s from (String.index_from s from ':' - from)
  in
  Alcotest.(check (list string))
    "printed paths, in trial order"
    [ "/c0f1"; "/c0f1"; "/c1f2"; "/c0f1"; "/c0f1"; "/c0f1" ]
    (List.map printed_path r.r_violations);
  let v = List.hd r.r_violations in
  Alcotest.(check int) "fence" 28 v.v_fence;
  Alcotest.(check (option int)) "op in flight" (Some 14) v.v_op;
  Alcotest.(check (list string))
    "shrunk counterexample" [ "line 37010 keep 0" ]
    (List.map (Fmt.str "%a" T.pp_survivor) v.v_survivors)

let suite =
  [
    tc "actor clocks independent" `Quick test_actor_clocks;
    tc "lock charges deterministic wait" `Quick test_lock_charges_wait;
    tc "lock inert without second actor" `Quick test_lock_inert_single_actor;
    tc "scheduler dispatches min clock first" `Quick test_min_clock_dispatch;
    tc "event heap matches reference min-scan" `Quick test_heap_matches_reference;
    tc "spawn scales to thousands of clients" `Quick test_spawn_many_clients;
    tc "multi-client run is deterministic" `Quick test_scheduler_deterministic;
    tc "multi-tenant scale run is deterministic" `Quick test_scale_run_deterministic;
    tc "single client sees no contention" `Quick test_single_client_no_contention;
    tc "contention appears at 8 clients" `Quick test_contention_appears;
    tc "splitfs >= 2x ext4 at 8 clients" `Quick test_splitfs_scales_over_ext4;
    tc "aggregate throughput scales" `Quick test_scaling_improves_with_clients;
    tc "2-client interleaved crashcheck" `Slow test_concurrent_crashcheck;
    tc "2-client canary: unverified op-log checksums are caught" `Slow
      test_concurrent_canary;
  ]
