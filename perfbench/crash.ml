(** [crash-strict]: the crash-state campaign as a closed loop, one domain
    ([jobs = 1]). Set-up generates a fixed corpus of strict-mode workloads
    and profiles their crash points; the run's seed then draws the crash
    states with [Explore.sample_point_indexed], and each state is run end
    to end by [Runner.run_trial]. A state with any [Check] violation is a
    failure.

    The traced run replays every state twice: once through a trial
    recomposed from the same public functions [run_trial] calls, with a
    span around each layer, and once through [run_trial] itself. Verdicts
    and recovered bytes must agree on every state. *)

open Common
module C = Crashcheck

let mode = Splitfs.Config.Strict
let nops = 24

(** The corpus: [nworkloads] 24-op workloads generated at seeds derived
    from crashcheck's default seed. A corpus drawn afresh from each run's
    seed made a run's states/s hang on that draw's op mix (fsyncs and
    checkpoints cost 5-10x an append on the host), so the corpus is fixed
    and the seed picks the states. *)
let nworkloads = 16

let corpus_seed = 0x51ED

type campaign = {
  seeds : int array;  (** sampler seed per workload, from the run's seed *)
  ws : C.Workload.t array;
  points : C.Explore.point array array;
}

let prepare ?tr ~seed () =
  let seeds = Array.init nworkloads (Workloads.Rng.derive seed) in
  let ws =
    Array.init nworkloads (fun k ->
        Span.opt tr l_generate (fun () ->
            C.Workload.generate ~mode
              ~seed:(Workloads.Rng.derive corpus_seed k)
              ~nops ()))
  in
  let points =
    Array.map
      (fun w -> Span.opt tr l_profile (fun () -> Array.of_list (C.Runner.profile w)))
      ws
  in
  { seeds; ws; points }

let npoints cp = Array.fold_left (fun a p -> a + Array.length p) 0 cp.points

let total_states cp =
  Array.fold_left
    (fun a pts ->
      Array.fold_left
        (fun a (p : C.Explore.point) ->
          min C.Explore.count_cap (a + C.Explore.state_count p.pending))
        a pts)
    0 cp.points

(** State [i] of the campaign: workload [i mod n], that workload's
    sampler index [i / n] — the sampler [Crashcheck.check_mode] uses. *)
let sample cp i =
  let k = i mod nworkloads in
  let p, svs =
    C.Explore.sample_point_indexed ~seed:cp.seeds.(k) ~index:(i / nworkloads)
      cp.points.(k)
  in
  (k, p, svs)

let state_digest h k (p : C.Explore.point) svs =
  List.fold_left
    (fun h (s : Pmem.Device.survivor) ->
      mix (mix (mix h s.s_line) s.s_keep) s.s_tear)
    (mix (mix h k) p.fence) svs

(* ------------------------------------------------------------------ *)
(* Exact accumulation across states                                     *)
(* ------------------------------------------------------------------ *)

type acc = {
  a_lat : Fbuf.t;
  mutable a_user : int;
  a_stats : Pmem.Stats.t;
  a_cats : float array;
  mutable a_recover : float;
  mutable a_entries : int;
  mutable a_digest : int;
  mutable a_verdicts : int;
  mutable a_states : int;
}

let acc () =
  {
    a_lat = Fbuf.create ();
    a_user = 0;
    a_stats = Pmem.Stats.create ();
    a_cats = Array.make Obs.ncats 0.;
    a_recover = 0.;
    a_entries = 0;
    a_digest = 0;
    a_verdicts = 0;
    a_states = 0;
  }

let exact_of a =
  let lat = Fbuf.contents a.a_lat in
  {
    ops = Array.length lat;
    lat;
    user_bytes = a.a_user;
    stats = Pmem.Stats.copy a.a_stats;
    cats = Array.copy a.a_cats;
    digest = a.a_digest;
    states = a.a_states;
    recover_sim_ns = a.a_recover;
    entries_replayed = a.a_entries;
    verdicts = a.a_verdicts;
  }

let verdict_digest h (t : C.Runner.trial) =
  let h =
    mix h (match t.C.Runner.crashed_at_op with None -> -1 | Some k -> k)
  in
  let h = mix h (List.length t.C.Runner.violations) in
  Array.fold_left (fun h b -> mix h (Hashtbl.hash b)) h t.C.Runner.recovered

(* ------------------------------------------------------------------ *)
(* The recomposed trial                                                 *)
(* ------------------------------------------------------------------ *)

(** [Runner.build] recomposed: env, mkfs, mount, each spanned. *)
let build tr =
  let env =
    Span.opt tr l_env_create (fun () ->
        Pmem.Env.create ~capacity:(8 * 1024 * 1024) ())
  in
  let kfs =
    Span.opt tr l_mkfs (fun () ->
        Kernelfs.Ext4.mkfs ~journal_len:(1024 * 1024) env)
  in
  let sys = Kernelfs.Syscall.make kfs in
  let cfg =
    {
      (Splitfs.Config.with_mode mode) with
      Splitfs.Config.staging_files = 2;
      staging_size = 256 * 1024;
      oplog_size = 16 * 1024;
    }
  in
  let u =
    Span.opt tr l_mount (fun () -> Splitfs.Usplit.mount ~cfg ~sys ~env ~instance:0 ())
  in
  (env, sys, u, Splitfs.Usplit.as_fsapi u)

let layer_of = function
  | C.Workload.Write _ -> l_pwrite
  | C.Workload.Fsync _ -> l_fsync
  | C.Workload.Checkpoint -> l_relink_all

(** One crash state end to end, as [Runner.run_trial] does it, with the
    simulated latency and counters of the replayed ops added to [a]. *)
let trial ?tr a (w : C.Workload.t) ~(point : C.Explore.point) ~survivors =
  let scratch = ref Bytes.empty in
  let env, sys, u, fs = build tr in
  let fds = Span.opt tr l_setup (fun () -> C.Runner.setup ~scratch w fs) in
  let ofs, oracle, ofds =
    Span.opt tr l_oracle (fun () ->
        let ofs, oracle = Fsapi.Ref_fs.make_oracle () in
        (ofs, oracle, C.Runner.setup ~scratch w ofs))
  in
  let dev = env.Pmem.Env.dev in
  Pmem.Device.journal_begin dev;
  Pmem.Device.arm_crash dev ~fence:point.C.Explore.fence ~survivors;
  let real_cp () = Splitfs.Usplit.relink_all u in
  let oracle_cp () = Array.iter (fun fd -> ofs.Fsapi.Fs.fsync fd) ofds in
  let oracle_apply op =
    Span.opt tr l_oracle (fun () ->
        C.Runner.apply ~scratch ~checkpoint:oracle_cp ofs ofds op)
  in
  let s0 = Pmem.Stats.copy env.Pmem.Env.stats in
  let c0 = Obs.snapshot env.Pmem.Env.obs in
  let pre = ref [||] and post = ref [||] and crashed_at = ref None in
  let rec go k = function
    | [] ->
        pre := C.Runner.snapshot w oracle;
        post := !pre;
        Pmem.Device.crash_partial dev ~survivors
    | op :: rest -> (
        let t0 = Pmem.Env.now env in
        match
          Span.opt tr (layer_of op) (fun () ->
              C.Runner.apply ~scratch ~checkpoint:real_cp fs fds op)
        with
        | () ->
            Fbuf.push a.a_lat (Pmem.Env.now env -. t0);
            (match op with
            | C.Workload.Write { len; _ } -> a.a_user <- a.a_user + len
            | _ -> ());
            oracle_apply op;
            go (k + 1) rest
        | exception Pmem.Device.Crashed ->
            crashed_at := Some k;
            pre := C.Runner.snapshot w oracle;
            oracle_apply op;
            post := C.Runner.snapshot w oracle)
  in
  Span.opt tr l_replay (fun () -> go 0 w.C.Workload.ops);
  stats_add a.a_stats (Pmem.Stats.diff env.Pmem.Env.stats s0);
  cats_add a.a_cats env.Pmem.Env.obs c0;
  Pmem.Device.resume dev;
  Pmem.Device.journal_stop dev;
  let t0 = Pmem.Env.now env in
  let recovery =
    Span.opt tr l_recover (fun () ->
        Splitfs.Recovery.recover ~sys ~env ~instance:0)
  in
  a.a_recover <- a.a_recover +. (Pmem.Env.now env -. t0);
  a.a_entries <- a.a_entries + recovery.Splitfs.Recovery.entries_replayed;
  let recovered =
    Span.opt tr l_read_back (fun () ->
        Array.init w.C.Workload.nfiles (fun i ->
            match C.Runner.read_back sys i with Some b -> b | None -> Bytes.empty))
  in
  let violations =
    Span.opt tr l_check (fun () ->
        let v = ref [] in
        for i = w.C.Workload.nfiles - 1 downto 0 do
          match
            C.Check.check w.C.Workload.mode ~pre:(!pre).(i) ~post:(!post).(i)
              recovered.(i)
          with
          | None -> ()
          | Some reason -> v := (i, reason) :: !v
        done;
        !v)
  in
  let t =
    { C.Runner.crashed_at_op = !crashed_at; violations; recovered; recovery }
  in
  a.a_verdicts <- verdict_digest a.a_verdicts t;
  a.a_states <- a.a_states + 1;
  t

(** The first [n] states through the recomposed trial, untraced: the
    exact metrics of the run. Returns them and the violating-state
    count. *)
let exact_pass cp ~n =
  let a = acc () in
  let bad = ref 0 in
  for i = 0 to n - 1 do
    let k, p, svs = sample cp i in
    a.a_digest <- state_digest a.a_digest k p svs;
    let t = trial a cp.ws.(k) ~point:p ~survivors:svs in
    if t.C.Runner.violations <> [] then incr bad
  done;
  (exact_of a, !bad)

(* ------------------------------------------------------------------ *)
(* One run                                                              *)
(* ------------------------------------------------------------------ *)

type result = {
  setup_s : float;
  setup_runs : float list;
  states_per_s : float;  (** raw, over the whole timed phase *)
  throughput : float;  (** [Common.throughput] *)
  timed_states : int;
  timed_s : float;
  slices : int;
  spread : string;  (** raw slice-rate spread within the run *)
  scaled_spread : string;
  exact : exact;
  attempted : int;
  failed : int;
  mismatches : int;  (** traced: states where the recomposition disagreed *)
  npoints : int;
  total_states : int;
  major_per_state : float;  (** traced: around [Runner.run_trial] *)
}

let run ~seed ~seconds ~exact_states ~setup_reps ~tr =
  let setups = ref [] and cp = ref None in
  for _ = 1 to setup_reps do
    let x, dt = timed (fun () -> prepare ?tr ~seed ()) in
    setups := dt :: !setups;
    cp := Some x
  done;
  let cp = Option.get !cp in
  let exact, bad = exact_pass cp ~n:exact_states in
  let failed = ref bad and attempted = ref exact_states in
  let mismatches = ref 0 in
  let deadline = int_of_float (seconds *. 1e9) in
  (* the meter ticks once per round of one state from every workload of
     the corpus, so every slice has the same workload mix *)
  let m = meter ~slice_ns:50_000_000 in
  let elapsed = ref 0 and i = ref 0 in
  let majors = ref 0 in
  let traced_acc = acc () and spare = acc () in
  let state () =
    let st = !i in
    incr i;
    incr attempted;
    let k, p, svs =
      match tr with
      | None -> sample cp st
      | Some t ->
          Span.set_id t st;
          Span.span t l_sample (fun () -> sample cp st)
    in
    let w = cp.ws.(k) in
    (match tr with
    | None ->
        let r = C.Runner.run_trial w ~point:p ~survivors:svs in
        if r.C.Runner.violations <> [] then incr failed
    | Some t ->
        let a = if st < exact_states then traced_acc else spare in
        if st < exact_states then a.a_digest <- state_digest a.a_digest k p svs;
        let mine =
          Span.span t l_trial (fun () -> trial ~tr:t a w ~point:p ~survivors:svs)
        in
        let g0 = (Gc.quick_stat ()).Gc.major_collections in
        let r =
          Span.span t l_run_trial (fun () ->
              C.Runner.run_trial w ~point:p ~survivors:svs)
        in
        majors := !majors + ((Gc.quick_stat ()).Gc.major_collections - g0);
        if r.C.Runner.violations <> [] then incr failed;
        if mine <> r then begin
          incr mismatches;
          incr failed
        end)
  in
  while !elapsed < deadline || (tr <> None && !i < exact_states) do
    for _ = 1 to nworkloads do
      state ()
    done;
    elapsed := tick m nworkloads
  done;
  (* the traced replay of the exact window must reproduce the untraced
     exact metrics bit for bit *)
  if tr <> None && exact_of traced_acc <> exact then begin
    incr mismatches;
    incr failed
  end;
  {
    setup_s = median !setups;
    setup_runs = List.rev !setups;
    states_per_s = rate m;
    throughput = throughput m;
    timed_states = m.work;
    timed_s = float_of_int !elapsed /. 1e9;
    slices = List.length m.rates;
    spread = rate_spread m.rates;
    scaled_spread = rate_spread m.scaled;
    exact;
    attempted = !attempted;
    failed = !failed;
    mismatches = !mismatches;
    npoints = npoints cp;
    total_states = total_states cp;
    major_per_state = float_of_int !majors /. float_of_int (max 1 !i);
  }
