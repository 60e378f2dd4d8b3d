(** An experiment environment: one PM device plus the clock, timing model and
    statistics shared by every layer of the stack. *)

(** Per-environment verification knobs, fixed when the environment is
    created. These used to be process-global [ref]s
    ([Oplog.verify_checksums], [Usplit.honest_degraded_writes]);
    campaigns running concurrently on separate domains set them per
    stack, so they live on the env every layer already threads, and a
    {!clone} shares its original's. *)
type checks = {
  verify_checksums : bool;
      (** CRC-check op-log entries on decode; campaigns clear it to prove
          the oracle catches torn entries that slip past recovery *)
  honest_degraded_writes : bool;
      (** degraded (kernel-path) writes really write; campaigns clear it
          to prove the fault oracle catches acknowledge-but-drop bugs *)
  fams_commit_record : bool;
      (** fams msync appends its commit record before publishing;
          campaigns clear it to prove the crash oracle catches a torn
          msync (staged data published without the commit barrier) *)
}

let default_checks =
  { verify_checksums = true; honest_degraded_writes = true;
    fams_commit_record = true }

type t = {
  clock : Simclock.t;
  timing : Timing.t;
  stats : Stats.t;
  dev : Device.t;
  obs : Obs.t;  (** same object [Simclock.advance] attributes into *)
  faults : Faults.t;
      (** fault-injection plane shared by every layer; disarmed (and
          charge-free) unless a faultcheck campaign arms it *)
  checks : checks;
}

(** [enable_timeline t] attaches a virtual-time {!Obs.Timeline} to the
    environment and registers the env-level counter sources: the 12
    attribution categories, the contention/journal/staging stats, and
    the fault-plane outcome counters. Harness layers register their own
    sources on top (allocator steals, journal-stream depth, per-tenant
    throughput). Returns the timeline for exports and further sources.
    Host-side only: sampling never charges simulated time. *)
let timeline_sources t =
  let stats = t.stats and fc = Faults.counts t.faults in
  List.map
    (fun c ->
      let i = Obs.cat_index c in
      ("cat/" ^ Obs.cat_name c, fun () -> t.obs.Obs.attr.(i)))
    Obs.all_cats
  @ [
      ("stats/media-ns", fun () -> stats.Stats.media_ns);
      ("stats/lock-wait-ns", fun () -> stats.Stats.lock_wait_ns);
      ("stats/bw-wait-ns", fun () -> stats.Stats.bw_wait_ns);
      ("stats/background-ns", fun () -> stats.Stats.background_ns);
      ("stats/journal-bytes", fun () -> float_of_int stats.Stats.journal_bytes);
      ("stats/staged-bytes", fun () -> float_of_int stats.Stats.staged_bytes);
      ("faults/injected", fun () -> float_of_int fc.Faults.injected);
      ("faults/media", fun () -> float_of_int fc.Faults.media);
      ( "faults/quarantined-lines",
        fun () -> float_of_int fc.Faults.quarantined_lines );
      ( "faults/scrub-migrations",
        fun () -> float_of_int fc.Faults.scrub_migrations );
    ]

let enable_timeline t =
  let tl = Obs.Timeline.create () in
  List.iter
    (fun (name, read) -> Obs.Timeline.add_source tl ~name read)
    (timeline_sources t);
  Obs.set_timeline t.obs tl;
  tl

let create ?(capacity = 64 * 1024 * 1024) ?(timing = Timing.default)
    ?(checks = default_checks) () =
  let obs = Obs.create () in
  let clock = Simclock.create ~obs () in
  let stats = Stats.create () in
  let faults = Faults.create () in
  let dev = Device.create ~capacity ~faults ~clock ~timing ~stats () in
  let t = { clock; timing; stats; dev; obs; faults; checks } in
  (match (Obs.Timeline.timeline_everything, Obs.timeline obs) with
  | true, None -> ignore (enable_timeline t)
  | _ -> ());
  t

(** A copy of a quiescent [t] (journal off, no crash armed): clock and
    actors, statistics, fault plane, device and observer each copied,
    none shared with [t]; the immutable [checks] are [t]'s own. A
    timeline copies over only if every series reads one of the env-level
    sources {!enable_timeline} registers. *)
let clone t =
  let obs = Obs.clone t.obs in
  let clock = Simclock.clone t.clock ~obs in
  let stats = Stats.copy t.stats in
  let faults = Faults.clone t.faults in
  let dev = Device.clone t.dev ~faults ~clock ~stats in
  let c =
    { clock; timing = t.timing; stats; dev; obs; faults; checks = t.checks }
  in
  Option.iter
    (fun tl ->
      let sources = timeline_sources c in
      let source name =
        match List.assoc_opt name sources with
        | Some read -> read
        | None ->
            invalid_arg ("Env.clone: timeline series " ^ name ^ " is not env's")
      in
      Obs.adopt_timeline obs (Obs.Timeline.clone tl ~source))
    (Obs.timeline t.obs);
  c

let now t = Simclock.now t.clock

(** Charge pure CPU time (no PM traffic). *)
let cpu t ns = Simclock.advance t.clock ns

(** [cpu_cat t cat ns] charges CPU time attributed to [cat] — the
    closure-free form for hot single charges. *)
let cpu_cat t cat ns =
  Obs.push t.obs cat;
  Simclock.advance t.clock ns;
  Obs.pop t.obs

(** [with_cat t cat f] attributes every charge in [f]'s dynamic extent to
    [cat] (unless an inner region pushes a more specific category). *)
let with_cat t cat f =
  Obs.push t.obs cat;
  match f () with
  | x ->
      Obs.pop t.obs;
      x
  | exception e ->
      Obs.pop t.obs;
      raise e

(** [with_span t ~cat ~name f] is [with_cat] that additionally emits a
    trace span covering [f]'s simulated extent when tracing is on. *)
let with_span t ~cat ~name f =
  Obs.push t.obs cat;
  let a = Simclock.current t.clock in
  let t0 = a.Simclock.a_now in
  match f () with
  | x ->
      Obs.pop t.obs;
      if Obs.tracing t.obs then
        Obs.emit t.obs ~name ~cat ~actor:a.Simclock.aid ~t0
          ~t1:a.Simclock.a_now;
      x
  | exception e ->
      Obs.pop t.obs;
      raise e

(** [in_background t f] runs [f] on behalf of a background thread: the
    simulated time it consumes is moved off the foreground clock and
    accumulated in [stats.background_ns] (the paper keeps staging-file
    pre-allocation and similar work off the critical path, §4). The
    profiler attributes the same interval to [Obs.Background], keeping
    the accounting identity exact. *)
let in_background t f =
  let t0 = Simclock.now t.clock in
  Obs.enter_background t.obs;
  match f () with
  | x ->
      Obs.leave_background t.obs;
      let t1 = Simclock.now t.clock in
      Simclock.set_now t.clock t0;
      t.stats.Stats.background_ns <- t.stats.Stats.background_ns +. (t1 -. t0);
      x
  | exception e ->
      Obs.leave_background t.obs;
      raise e

(* --- attribution identity --- *)

(** Simulated time the profiler must account for: foreground time across
    all actors plus the background time rewound off their clocks. *)
let accountable_ns t =
  List.fold_left
    (fun acc a -> acc +. (a.Simclock.a_now -. a.Simclock.a_start))
    0.
    (Simclock.actors t.clock)
  +. t.stats.Stats.background_ns

(** [check_identity t] verifies sum(categories) = total simulated ns.
    The tolerance (1e-8 relative + 1e-6 ns absolute) covers only float
    summation order; any structural accounting bug is orders of
    magnitude larger. Returns [(attributed, accountable)] on success,
    raises [Failure] otherwise. *)
let check_identity t =
  let attributed = Obs.total t.obs in
  let accountable = accountable_ns t in
  let tol = (1e-8 *. Float.max attributed accountable) +. 1e-6 in
  if Float.abs (attributed -. accountable) > tol then
    failwith
      (Printf.sprintf
         "obs accounting identity violated: attributed %.6f ns <> accountable \
          %.6f ns (delta %.6f, tol %.6f)"
         attributed accountable
         (attributed -. accountable)
         tol);
  (* timeline leg: close the books with a final sample, then verify for
     every series evicted + sum(sampled deltas) = final cumulative value
     minus the value at registration — same 1e-8 relative tolerance *)
  (match Obs.timeline t.obs with
  | None -> ()
  | Some tl ->
      Obs.Timeline.flush tl ~now:(Simclock.now t.clock);
      ignore (Obs.Timeline.check tl));
  (attributed, accountable)

(* --- actors (multi-client support) --- *)

(** Register a fresh actor (simulated client thread); its clock starts at
    the current actor's time, so it cannot contend with work that finished
    before it was spawned. *)
let new_actor t ~name = Simclock.new_actor t.clock ~name

(** [run_as t a f] runs [f ()] with [a] as the current actor — all charges
    (CPU, media, lock waits) land on [a]'s clock — then restores the
    previous actor. *)
let run_as t a f =
  let prev = Simclock.current t.clock in
  Simclock.set_current t.clock a;
  Fun.protect ~finally:(fun () -> Simclock.set_current t.clock prev) f

(** [with_lock t l f] runs [f] as a critical section of [l], charging any
    contention wait to the current actor. *)
let with_lock t l f = Lock.with_ l ~clock:t.clock ~stats:t.stats f
