(** Reproduction-shape tests: run (scaled-down) experiments and assert the
    paper's qualitative results — orderings, who wins, rough factors — plus
    the Table 1 / Table 2 calibration bands. These are the repository's
    executable claims about fidelity to the paper. *)

let tc = Alcotest.test_case

let within pct ~target x =
  abs_float (x -. target) /. target <= pct /. 100.

(* --- Table 1: calibrated within 15% and correctly ordered --- *)

let test_table1_calibration () =
  let r = Harness.Experiments.table1 ~total_mb:4 () in
  Util.check_points ~values:false "table1/sim/" r.points;
  let get name = List.assoc name r.value in
  let ext4 = get "ext4-dax" in
  let pmfs = get "pmfs" in
  let nova = get "nova-strict" in
  let strict = get "splitfs-strict" in
  let posix = get "splitfs-posix" in
  Alcotest.(check bool) "ordering matches the paper" true
    (ext4 > pmfs && pmfs > nova && nova > strict && strict >= posix);
  List.iter
    (fun (label, measured, paper) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s within 15%% of paper (%.0f vs %.0f)" label measured paper)
        true
        (within 15. ~target:paper measured))
    [
      ("ext4-dax", ext4, 9002.);
      ("pmfs", pmfs, 4150.);
      ("nova-strict", nova, 3021.);
      ("splitfs-strict", strict, 1251.);
      ("splitfs-posix", posix, 1160.);
    ]

(* --- Table 2: media model matches the characterisation --- *)

let test_table2_media_model () =
  let rows = (Harness.Experiments.table2 ()).value in
  List.iter
    (fun (prop, measured, target) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s ~ %.1f (got %.1f)" prop target measured)
        true
        (within 15. ~target measured))
    rows

(* --- Table 6: syscall cost shape --- *)

let test_table6_shape () =
  let r = Harness.Experiments.table6 ~iterations:50 () in
  Util.check_points ~values:false "table6/sim/" r.points;
  let get fs = List.assoc fs r.value in
  let split = get "splitfs-strict" and ext4 = get "ext4-dax" in
  (* data ops much faster on SplitFS, metadata ops somewhat slower *)
  Alcotest.(check bool) "append 3-4x faster" true
    (ext4.Workloads.Varmail.append_ns > 3. *. split.Workloads.Varmail.append_ns);
  Alcotest.(check bool) "fsync much faster" true
    (ext4.Workloads.Varmail.fsync_ns > 2. *. split.Workloads.Varmail.fsync_ns);
  Alcotest.(check bool) "open slower on splitfs" true
    (split.Workloads.Varmail.open_ns > ext4.Workloads.Varmail.open_ns);
  Alcotest.(check bool) "close slower on splitfs" true
    (split.Workloads.Varmail.close_ns > ext4.Workloads.Varmail.close_ns);
  Alcotest.(check bool) "unlink slower on splitfs" true
    (split.Workloads.Varmail.unlink_ns > ext4.Workloads.Varmail.unlink_ns);
  (* stronger modes cost more *)
  let posix = get "splitfs-posix" in
  Alcotest.(check bool) "strict >= posix on appends" true
    (split.Workloads.Varmail.append_ns >= posix.Workloads.Varmail.append_ns)

(* --- Figure 3: each technique helps appends --- *)

let test_fig3_monotonic () =
  match (Harness.Experiments.fig3 ~total_mb:4 ()).value with
  | [ (_, ow_ext4, ap_ext4); (_, ow_split, ap_split); (_, _, ap_staging); (_, _, ap_relink) ] ->
      Alcotest.(check bool) "user-space overwrites beat ext4" true (ow_split > ow_ext4);
      Alcotest.(check bool) "staging roughly doubles appends" true
        (ap_staging > 1.5 *. ap_ext4);
      Alcotest.(check bool) "relink is the big append win (paper ~5x over staging)" true
        (ap_relink > 2.5 *. ap_staging);
      Alcotest.(check bool) "full splitfs appends 5x+ over ext4" true
        (ap_relink > 5. *. ap_ext4);
      Alcotest.(check bool) "split alone does not speed appends" true
        (ap_split < 1.5 *. ap_ext4)
  | _ -> Alcotest.fail "unexpected fig3 rows"

(* --- Figure 4: SplitFS wins within each guarantee group --- *)

let test_fig4_winners () =
  let r = Harness.Experiments.fig4 ~total_mb:4 () in
  Util.check_points ~values:false "fig4/sim/" r.points;
  List.iter
    (fun (group, (_bspec, bruns), cruns) ->
      (* the splitfs entry is the last challenger in each group *)
      let _, sruns = List.nth cruns (List.length cruns - 1) in
      List.iter
        (fun (p, bm) ->
          let sm = List.assoc p sruns in
          let ratio = Harness.Runner.kops sm /. Harness.Runner.kops bm in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s: splitfs >= baseline (%.2fx)" group
               (Workloads.Iopattern.pattern_name p) ratio)
            true (ratio >= 0.95))
        bruns)
    r.value

(* --- §5.3: recovery time grows linearly with log entries --- *)

let test_recovery_scaling () =
  let rows = (Harness.Experiments.recovery ()).value in
  let times =
    List.map (fun (n, r) -> (n, r.Splitfs.Recovery.replay_ns)) rows
  in
  let t1 = List.assoc 1_000 times and t18 = List.assoc 18_000 times in
  Alcotest.(check bool) "more entries, more time" true (t18 > t1);
  (* roughly linear: 18x entries within 10x-30x time *)
  Alcotest.(check bool)
    (Printf.sprintf "roughly linear (%.1fx)" (t18 /. t1))
    true
    (t18 /. t1 > 8. && t18 /. t1 < 40.);
  List.iter
    (fun (n, r) ->
      Util.check_int
        (Printf.sprintf "all %d entries replayed" n)
        n r.Splitfs.Recovery.entries_replayed)
    rows

(* --- §5.10: resource consumption is bounded and background work exists --- *)

let test_resources () =
  let rows = (Harness.Experiments.resources ()).value in
  List.iter
    (fun (n, mem, bg) ->
      Alcotest.(check bool) (n ^ ": memory bounded") true (mem > 0 && mem < 10_000_000);
      Alcotest.(check bool) (n ^ ": background thread did work") true (bg > 0.))
    rows

(* --- ablations: the section-4 design discussions --- *)

let test_ablations () =
  let rows = (Harness.Experiments.ablations ~total_mb:4 ()).value in
  let kops name variant =
    (List.find
       (fun r ->
         r.Harness.Experiments.ab_name = name
         && r.Harness.Experiments.ab_variant = variant)
       rows)
      .Harness.Experiments.ab_kops
  in
  let staging = "staging medium (append+fsync/10)" in
  Alcotest.(check bool) "PM staging beats DRAM staging (copy on fsync)" true
    (kops staging "PM staging (relink)"
    > 1.5 *. kops staging "DRAM staging (copy on fsync)");
  let huge = "huge pages (seq-read, cold mmaps)" in
  Alcotest.(check bool) "reads drop ~50% without huge pages" true
    (kops huge "4K pages only" < 0.7 *. kops huge "huge pages")

let suite =
  [
    tc "table1: append calibration within 15%" `Slow test_table1_calibration;
    tc "table2: media model" `Quick test_table2_media_model;
    tc "table6: syscall latency shape" `Slow test_table6_shape;
    tc "fig3: technique contributions monotonic" `Slow test_fig3_monotonic;
    tc "fig4: splitfs wins in-mode" `Slow test_fig4_winners;
    tc "recovery scales linearly" `Slow test_recovery_scaling;
    tc "resources bounded" `Slow test_resources;
    tc "ablations: DRAM staging loses, huge pages matter" `Slow test_ablations;
  ]
