(* Domain-parallel campaign runner (DESIGN.md §5j): the pool itself,
   deterministic seed partitioning, and job-count invariance of every
   campaign's report. *)

let tc = Alcotest.test_case

module Par = Par
module Rng = Workloads.Rng
module Explore = Crashcheck.Explore

(* ---- the pool ------------------------------------------------------- *)

let test_map_order () =
  let items = List.init 100 Fun.id in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "map = List.map at %d job(s)" jobs)
        (List.map (fun x -> (x * x) + 1) items)
        (Par.map ~jobs (fun _ x -> (x * x) + 1) items))
    [ 1; 2; 4; 8 ]

let test_map_index () =
  let items = [ "a"; "b"; "c"; "d"; "e" ] in
  Alcotest.(check (list string))
    "callback sees the item's index" [ "0a"; "1b"; "2c"; "3d"; "4e" ]
    (Par.map ~jobs:4 (fun i x -> string_of_int i ^ x) items)

exception Boom of int

let test_map_exception () =
  (* every odd item fails; the re-raised exception must be the
     lowest-index one no matter which domain hit it first *)
  match
    Par.map ~jobs:4
      (fun i x -> if i mod 2 = 1 then raise (Boom i) else x)
      (List.init 32 Fun.id)
  with
  | _ -> Alcotest.fail "expected an exception"
  | exception Boom i -> Util.check_int "lowest-index failure wins" 1 i

let test_resolve_jobs () =
  Util.check_int "explicit wins" 3 (Par.resolve_jobs ~jobs:3 ());
  Util.check_int "clamped below" 1 (Par.resolve_jobs ~jobs:0 ());
  Util.check_int "clamped above" 64 (Par.resolve_jobs ~jobs:1000 ())

(* ---- seed derivation ------------------------------------------------ *)

let test_derive_stable () =
  List.iter
    (fun (seed, index) ->
      Util.check_int
        (Printf.sprintf "derive %#x %d is a pure function" seed index)
        (Rng.derive seed index) (Rng.derive seed index);
      Alcotest.(check bool) "non-negative" true (Rng.derive seed index >= 0))
    [ (0, 0); (0x51ED, 0); (0x51ED, 1); (0xFA17, 999); (max_int, 123) ]

let test_derive_distinct () =
  (* no collisions across 10k trial indices of one campaign, and the
     same index under different campaign seeds diverges too *)
  let tbl = Hashtbl.create 1024 in
  for index = 0 to 9_999 do
    let d = Rng.derive 0x51ED index in
    (match Hashtbl.find_opt tbl d with
    | Some prev ->
        Alcotest.failf "derive collision: indices %d and %d" prev index
    | None -> ());
    Hashtbl.add tbl d index
  done;
  Alcotest.(check bool) "campaign seeds diverge" true
    (Rng.derive 0x51ED 7 <> Rng.derive 0xFA17 7)

let test_derived_streams_independent () =
  (* a derived stream depends only on (seed, index) — drawing from one
     stream must not perturb another, unlike a shared RNG *)
  let draws seed index n =
    let rng = Rng.create_derived seed index in
    List.init n (fun _ -> Rng.int rng 1000)
  in
  let alone = draws 0x51ED 5 32 in
  let interleaved =
    let r3 = Rng.create_derived 0x51ED 3 in
    let r5 = Rng.create_derived 0x51ED 5 in
    List.init 32 (fun _ ->
        ignore (Rng.int r3 1000);
        Rng.int r5 1000)
  in
  Alcotest.(check (list int)) "stream 5 unaffected by stream 3" alone
    interleaved

(* ---- partition-independent sampling --------------------------------- *)

let synthetic_pending =
  [|
    { Pmem.Device.p_line = 4; p_versions = 3; p_nt_mask = 0b101 };
    { Pmem.Device.p_line = 17; p_versions = 1; p_nt_mask = 0b1 };
    { Pmem.Device.p_line = 99; p_versions = 5; p_nt_mask = 0 };
  |]

let survivor_key (s : Pmem.Device.survivor) =
  Printf.sprintf "%d/%d/%d" s.s_line s.s_keep s.s_tear

let vector_key svs = String.concat ";" (List.map survivor_key svs)

let test_sample_indexed_partition_free () =
  (* a budget of 64 samples drawn sequentially vs split over 4 "domains"
     (each claiming every 4th index, worst-case interleaving) must visit
     the same multiset of crash states *)
  let budget = 64 in
  let sequential =
    List.init budget (fun index ->
        vector_key (Explore.sample_indexed ~seed:0x51ED ~index synthetic_pending))
  in
  let partitioned =
    List.concat_map
      (fun domain ->
        List.filter_map
          (fun index ->
            if index mod 4 = domain then
              Some
                (vector_key
                   (Explore.sample_indexed ~seed:0x51ED ~index
                      synthetic_pending))
            else None)
          (List.init budget Fun.id))
      [ 0; 1; 2; 3 ]
  in
  Alcotest.(check (list string))
    "partitioning does not change the sampled multiset"
    (List.sort compare sequential)
    (List.sort compare partitioned);
  (* and the space is actually being explored: the 64 draws are not all
     the same vector *)
  Alcotest.(check bool) "draws vary across indices" true
    (List.length (List.sort_uniq compare sequential) > 10)

(* ---- job-count invariance of the campaign reports ------------------- *)

let report_fingerprint jobs =
  let r =
    Crashcheck.check_mode ~samples:60 ~seed:0x51ED ~nops:12 ~jobs
      Splitfs.Config.Strict
  in
  Fmt.str "%a" Crashcheck.pp_mode_report r

let test_crashcheck_invariant () =
  let base = report_fingerprint 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "crashcheck report identical at %d jobs" jobs)
        base (report_fingerprint jobs))
    [ 2; 4; 8 ]

let faultcheck_fingerprint jobs =
  let rs = Faultcheck.run ~seed:0xFA17 ~nops:12 ~max_per_site:1 ~jobs () in
  Fmt.str "%a" (Fmt.list Faultcheck.pp_stack_report) rs

let test_faultcheck_invariant () =
  let base = faultcheck_fingerprint 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "faultcheck report identical at %d jobs" jobs)
        base (faultcheck_fingerprint jobs))
    [ 4 ]

let litmus_fingerprint jobs =
  let runs =
    Crashcheck.Litmus.(run_corpus ~jobs combos)
  in
  String.concat "\n"
    (List.map
       (fun (r : Crashcheck.Litmus.run) ->
         Printf.sprintf "%s/%s: %d points %d states %d violations"
           r.Crashcheck.Litmus.r_pattern r.Crashcheck.Litmus.r_config
           r.Crashcheck.Litmus.r_points r.Crashcheck.Litmus.r_states
           (List.length r.Crashcheck.Litmus.r_violations))
       runs)

let test_litmus_invariant () =
  let base = litmus_fingerprint 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "litmus corpus identical at %d jobs" jobs)
        base (litmus_fingerprint jobs))
    [ 4 ]

let suite =
  [
    tc "par map preserves order at 1/2/4/8 jobs" `Quick test_map_order;
    tc "par map passes the item index" `Quick test_map_index;
    tc "par map re-raises the lowest-index failure" `Quick test_map_exception;
    tc "job resolution clamps" `Quick test_resolve_jobs;
    tc "seed derivation is pure" `Quick test_derive_stable;
    tc "seed derivation is collision-free over 10k trials" `Quick
      test_derive_distinct;
    tc "derived streams are independent" `Quick
      test_derived_streams_independent;
    tc "partitioned sampling = sequential multiset" `Quick
      test_sample_indexed_partition_free;
    tc "crashcheck report invariant at 1/2/4/8 jobs" `Slow
      test_crashcheck_invariant;
    tc "faultcheck report invariant across jobs" `Slow
      test_faultcheck_invariant;
    tc "litmus corpus invariant across jobs" `Slow test_litmus_invariant;
  ]
