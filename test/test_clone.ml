(** Crash trials run on copy-on-write clones of one set-up stack
    (DESIGN.md §5d). A clone must be the state set-up leaves behind, so
    a trial on a clone and the same trial on a freshly built stack agree
    on everything they report and leave behind; and a start serves any
    number of trials, on any domain, without changing. *)

open Crashcheck
module Fs_config = Stacks.Fs_config

let tc = Alcotest.test_case
let seed = 0x51ED

(* ------------------------------------------------------------------ *)
(* Clone = build, in lockstep                                           *)
(* ------------------------------------------------------------------ *)

(* What a trial leaves behind beyond its report: the statistics, the
   attribution, every actor's clock and the durable image. *)
let observe (st : Fs_config.stack) =
  let env = st.env in
  ( Pmem.Stats.copy env.Pmem.Env.stats,
    Obs.snapshot env.Pmem.Env.obs,
    List.map
      (fun a -> a.Pmem.Simclock.a_now)
      (Pmem.Simclock.actors env.Pmem.Env.clock),
    Pmem.Device.image_digest env.Pmem.Env.dev )

(* [states] of [p], each run on a clone of one start and on a stack
   [build] makes afresh, which must agree. Returns the state count. *)
let lockstep ~name ~build ~contract p states =
  let trial (s : Trial.start) mount ~point ~survivors =
    let scratch = ref Bytes.empty in
    let m = mount ~scratch in
    let t =
      Trial.run_on ~scratch m s.s_oracle p ~faults:[]
        ~crash:(Some { Trial.contract; point; survivors })
    in
    let o = observe m.Trial.stack in
    Pmem.Device.release m.stack.env.Pmem.Env.dev;
    (t, o)
  in
  let s = Trial.start ~build p in
  List.iteri
    (fun i ((point : Explore.point), survivors) ->
      let tc, (sc, ac, cc, dc) =
        trial s (fun ~scratch -> Trial.mount ~scratch s p) ~point ~survivors
      in
      let tf, (sf, af, cf, df) =
        let f = Trial.start ~build p in
        trial f (fun ~scratch -> Trial.consume ~scratch f p) ~point ~survivors
      in
      let differ what =
        Alcotest.failf "%s state %d (fence %d): %s differs" name i
          point.Explore.fence what
      in
      if tc <> tf then differ "the trial";
      if sc <> sf then differ "Stats";
      if ac <> af then differ "the attribution";
      if cc <> cf then differ "the clock";
      if dc <> df then differ "the durable image")
    states;
  List.length states

let every_state points =
  List.concat_map
    (fun (pt : Explore.point) ->
      List.init (Explore.state_count pt.Explore.pending) (fun i ->
          (pt, Explore.nth pt.Explore.pending i)))
    points

let sampled ~n points =
  let pts = Array.of_list points in
  List.init n (fun index -> Explore.sample_point_indexed ~seed ~index pts)

let test_lockstep_modes () =
  let mode_case mode ~nops ~states =
    let spec = Fs_config.of_mode mode in
    let p = Trial.of_workload (Workload.generate ~mode ~seed ~nops ()) in
    lockstep
      ~name:(Fs_config.name spec)
      ~build:(fun () -> Fs_config.make_small spec)
      ~contract:(Check.contract_of spec) p
      (states (points mode p))
  in
  Util.check_int "every sync state" 1293
    (mode_case Splitfs.Config.Sync ~nops:8 ~states:every_state);
  Util.check_int "every strict state" 1293
    (mode_case Splitfs.Config.Strict ~nops:8 ~states:every_state);
  ignore (mode_case Splitfs.Config.Posix ~nops:24 ~states:(sampled ~n:150));
  ignore (mode_case Splitfs.Config.Fams ~nops:24 ~states:(sampled ~n:150))

let test_lockstep_weave () =
  let mode = Splitfs.Config.Strict in
  let spec = Fs_config.of_mode mode in
  let p = weave ~mode ~seed ~nops:8 in
  let build () = Fs_config.make_small spec in
  let points, _, _ = Trial.profile (Trial.start ~build p) p in
  ignore
    (lockstep ~name:"weave" ~build ~contract:(Check.contract_of spec) p
       (sampled ~n:200 points))

(* One litmus pattern on every stack the corpus runs, the degraded
   configuration (a sticky fault armed at build) and the no-staging one
   included: every crash state of each. *)
let test_lockstep_litmus () =
  let combos =
    List.filter
      (fun (c : Litmus.combo) ->
        c.c_pattern.p_name = Litmus.two_appends.Litmus.p_name)
      Litmus.combos
  in
  Util.check_int "combos" (List.length Litmus.stacks + 2) (List.length combos);
  List.iter
    (fun (c : Litmus.combo) ->
      let p = c.c_pattern.p_program in
      let points, _ = Litmus.profile (Litmus.start c) c in
      ignore
        (lockstep ~name:(Litmus.combo_name c) ~build:c.c_build
           ~contract:c.c_contract p (every_state points)))
    combos

(* ------------------------------------------------------------------ *)
(* A start stays untouched                                              *)
(* ------------------------------------------------------------------ *)

(* Everything a start holds: its clients' stacks (device images, kernel,
   U-Split and environment) and its oracle, closures by code address. *)
let digest (s : Trial.start) =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          (s.s_clients, s.s_slots, s.s_oracle)
          [ Marshal.Closures ]))

let test_start_untouched () =
  let mode = Splitfs.Config.Strict in
  let spec = Fs_config.of_mode mode in
  let p = Trial.of_workload (Workload.generate ~mode ~seed ~nops:24 ()) in
  let s = Trial.start ~build:(fun () -> Fs_config.make_small spec) p in
  let points, _, _ = Trial.profile s p in
  let states = Array.of_list (every_state points) in
  let d0 = digest s in
  let dev = s.s_clients.(0).env.Pmem.Env.dev in
  let trials ~from n =
    for i = from to from + n - 1 do
      let point, survivors = states.(i mod Array.length states) in
      ignore
        (Trial.run s p ~faults:[]
           ~crash:
             (Some
                { Trial.contract = Check.contract_of spec; point; survivors })
          : Trial.trial)
    done;
    Pmem.Device.spared dev
  in
  Util.check_int "the start's chunks on this domain's spare list" 0
    (trials ~from:0 1000);
  Util.check_str "the start after 1,000 trials" d0 (digest s);
  let spared =
    Par.map ~jobs:2
      (fun _ k -> trials ~from:(k * 100) 100)
      (List.init 8 Fun.id)
  in
  Alcotest.(check (list int))
    "the start's chunks on either domain's spare list"
    (List.init 8 (fun _ -> 0))
    spared;
  Util.check_str "the start after trials on two domains" d0 (digest s)

(* Faultcheck's two starts per stack (normal and tiny staging) serve
   every trial of the stack's campaign, on two domains, each trial
   judged against clones of the start's oracle. *)
let test_faultcheck_starts_untouched () =
  List.iter
    (fun spec ->
      let p, starts, trials =
        Faultcheck.plan ~seed:0xFA17 ~nops:24 ~max_per_site:3 spec
      in
      let d0 = Array.map digest starts in
      ignore
        (Par.map ~jobs:2
           (fun _ (points, tiny) ->
             Trial.run starts.(Bool.to_int tiny) p ~faults:points ~crash:None)
           trials);
      Array.iteri
        (fun i s ->
          Util.check_str
            (Printf.sprintf "%s start %d after its %d faultcheck trials"
               (Fs_config.name spec) i (List.length trials))
            d0.(i) (digest s))
        starts)
    Faultcheck.all_stacks

let suite =
  [
    tc "clone = build: every 8-op sync and strict state, sampled posix and fams"
      `Quick test_lockstep_modes;
    tc "clone = build: two clients" `Quick test_lockstep_weave;
    tc "clone = build: a litmus pattern on every stack" `Quick
      test_lockstep_litmus;
    tc "a start stays untouched by 1,000 trials on two domains" `Quick
      test_start_untouched;
    tc "faultcheck's starts stay untouched by their campaign" `Quick
      test_faultcheck_starts_untouched;
  ]
