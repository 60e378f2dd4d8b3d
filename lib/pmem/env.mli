(** An experiment environment: one PM device plus the clock, timing model
    and statistics shared by every layer of the stack. *)

(** Per-environment verification knobs (formerly process-global refs),
    fixed when the environment is created: campaigns set them per stack
    so concurrent domains can run different configurations, and a
    {!clone} shares its original's. *)
type checks = {
  verify_checksums : bool;
      (** CRC-check op-log entries on decode (default true) *)
  honest_degraded_writes : bool;
      (** degraded kernel-path writes really write (default true) *)
  fams_commit_record : bool;
      (** fams msync appends its commit record before publishing (default
          true); campaigns clear it to prove the crash oracle catches a
          torn msync *)
}

(** Every check on. *)
val default_checks : checks

type t = {
  clock : Simclock.t;
  timing : Timing.t;
  stats : Stats.t;
  dev : Device.t;
  obs : Obs.t;  (** attribution/tracing sink; host time only *)
  faults : Faults.t;
      (** fault-injection plane shared by every layer; disarmed (and
          charge-free) unless a faultcheck campaign arms it *)
  checks : checks;
}

(** Fresh device (default 64 MB) with zeroed stats and clock and a
    fresh observer; [checks] default to {!default_checks}.
    [SPLITFS_TIMELINE=1] attaches a default timeline (see
    {!enable_timeline}). *)
val create : ?capacity:int -> ?timing:Timing.t -> ?checks:checks -> unit -> t

(** A copy of a quiescent [t] (journal off, no crash armed), sharing
    nothing mutable with it: the clock and its actors, the statistics,
    the fault plane (injected faults included), the device
    ({!Device.clone}) and the observer (attribution, category stack,
    histograms, span ring and, when [t] has one, the timeline with its
    samples, its series re-registered on the copy's counters). The
    immutable [checks] are [t]'s own: a clone runs as its original was
    configured. *)
val clone : t -> t

(** Attach a virtual-time telemetry timeline ({!Obs.Timeline}) and
    register the env-level counter sources (attribution categories,
    contention/journal/staging stats, fault-plane counters). Sampling is
    driven by the clock funnel at deterministic virtual-ns boundaries;
    host time only. Returns the timeline for exports and for harness
    layers to add their own sources. *)
val enable_timeline : t -> Obs.Timeline.t

(** Current simulated time, in nanoseconds. *)
val now : t -> float

(** Charge pure CPU time (no PM traffic). *)
val cpu : t -> float -> unit

(** [cpu_cat t cat ns] charges CPU time attributed to [cat]. *)
val cpu_cat : t -> Obs.cat -> float -> unit

(** [with_cat t cat f] attributes every charge in [f]'s dynamic extent
    to [cat] (inner regions may override). *)
val with_cat : t -> Obs.cat -> (unit -> 'a) -> 'a

(** [with_span t ~cat ~name f] is [with_cat] that also emits a trace
    span covering [f]'s simulated extent when tracing is enabled. *)
val with_span : t -> cat:Obs.cat -> name:string -> (unit -> 'a) -> 'a

(** Simulated time the profiler must account for: foreground time across
    all actors plus rewound background time. *)
val accountable_ns : t -> float

(** Verify the accounting identity sum(categories) = total simulated ns
    (tolerance 1e-8 relative + 1e-6 ns absolute, float summation order
    only). Returns [(attributed, accountable)]; raises [Failure] on
    violation. *)
val check_identity : t -> float * float

(** [in_background t f] runs [f] on behalf of a background thread: the
    simulated time it consumes is moved off the foreground clock and
    accumulated in [stats.background_ns] (the paper keeps staging-file
    pre-allocation and similar work off the critical path, §4). *)
val in_background : t -> (unit -> 'a) -> 'a

(** Register a fresh actor (simulated client thread); its clock starts at
    the current actor's time. *)
val new_actor : t -> name:string -> Simclock.actor

(** [run_as t a f] runs [f ()] with [a] as the current actor — all charges
    land on [a]'s clock — then restores the previous actor. *)
val run_as : t -> Simclock.actor -> (unit -> 'a) -> 'a

(** [with_lock t l f] runs [f] as a critical section of [l], charging any
    contention wait to the current actor. *)
val with_lock : t -> Lock.t -> (unit -> 'a) -> 'a
