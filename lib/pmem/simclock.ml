(** Simulated time, in nanoseconds — per-actor virtual clocks.

    Every component of the simulation charges time here instead of measuring
    wall-clock time, which makes experiments deterministic and independent of
    the host machine.

    Each {e actor} (a simulated thread of execution: the main experiment
    driver, or one client of a multi-client workload) owns a virtual clock
    plus wait counters. A clock [t] designates one actor as {e current};
    every charge lands on the current actor's clock. Single-actor clocks —
    the default, and everything the single-client experiments use — behave
    exactly like the old global clock: [multi t] is false and the contention
    machinery (locks, shared-bandwidth queueing) stays inert, so those
    results are bit-identical to the pre-actor model. *)

type actor = {
  aid : int;  (** dense id, 0 for the initial actor *)
  a_name : string;
  mutable a_now : float;  (** this actor's virtual time, ns *)
  mutable a_start : float;  (** virtual time when the actor was created *)
  (* --- per-actor breakdowns (host-side observability) --- *)
  mutable a_lock_wait_ns : float;  (** time spent waiting on {!Lock}s *)
  mutable a_bw_wait_ns : float;  (** time queued on shared PM bandwidth *)
  mutable a_media_ns : float;  (** PM media time charged to this actor *)
}

type t = {
  mutable current : actor;
  mutable actors_rev : actor list;
      (** newest first — O(1) registration even for 10k-actor fleets;
          {!actors} reverses back to creation order *)
  mutable nactors : int;
  obs : Obs.t;
      (** attribution/tracing sink shared by the whole environment; sees
          every charge but never produces one (host time only) *)
}

let make_actor ~aid ~name ~at =
  {
    aid;
    a_name = name;
    a_now = at;
    a_start = at;
    a_lock_wait_ns = 0.;
    a_bw_wait_ns = 0.;
    a_media_ns = 0.;
  }

let create ?obs () =
  let a0 = make_actor ~aid:0 ~name:"main" ~at:0. in
  let obs = match obs with Some o -> o | None -> Obs.create () in
  { current = a0; actors_rev = [ a0 ]; nactors = 1; obs }

let now t = t.current.a_now
let obs t = t.obs

(** [advance t ns] charges [ns] nanoseconds to the current actor. Every
    simulated charge in the system funnels through here, so attributing
    at this single point makes the profiler's categories exhaustive —
    and a single float compare against the next timeline boundary is all
    the telemetry costs when it is off ([next_sample] is [infinity]; the
    disabled path allocates nothing beyond the clock update itself,
    pinned by test). *)
let advance t ns =
  assert (ns >= 0.);
  Obs.attribute t.obs ns;
  let a = t.current in
  a.a_now <- a.a_now +. ns;
  if a.a_now >= t.obs.Obs.next_sample then Obs.timeline_tick t.obs a.a_now

(** Rewind/set the current actor's clock (background-work accounting). *)
let set_now t ns = t.current.a_now <- ns

(* --- actors --- *)

(** More than one actor registered: contention modelling is live. *)
let multi t = t.nactors > 1

let current t = t.current
let set_current t a = t.current <- a
(* In creation order (head is actor 0) — float accumulations over this
   list, like [Env.accountable_ns], depend on that order for bit-exact
   reproducibility. *)
let actors t = List.rev t.actors_rev

(** A copy of [t] reporting to [obs]: every actor copied with its clock
    and counters, the same one current. *)
let clone t ~obs =
  let actors_rev = List.map (fun a -> { a with a_now = a.a_now }) t.actors_rev in
  let current = List.find (fun a -> a.aid = t.current.aid) actors_rev in
  { current; actors_rev; nactors = t.nactors; obs }

(** The actor with id [aid]. *)
let actor t aid = List.find (fun a -> a.aid = aid) t.actors_rev

(** [new_actor t ~name] registers a fresh actor whose clock starts at the
    current actor's time, modelling a thread spawned now: it cannot
    contend with work that finished before it existed. *)
let new_actor t ~name =
  let a = make_actor ~aid:t.nactors ~name ~at:t.current.a_now in
  t.actors_rev <- a :: t.actors_rev;
  t.nactors <- t.nactors + 1;
  a
