(** Deterministic fault-injection plane (PR 5).

    One [t] rides along with a simulation environment. It is host-side
    state only: with no faults injected, consulting the plane never
    produces a simulated-nanosecond charge, so zero-fault runs are
    bit-identical to a build without the plane (pinned by test).

    Two fault families are modeled:

    - {b media faults} live in [Pmem.Device] (poisoned cache lines, worn
      blocks); the device raises {!Poisoned} on a load that touches a
      poisoned line — the simulator's analogue of a machine-check on a
      PM read. The plane only carries the exception and the outcome
      counters for them.
    - {b resource faults} are injected here and consulted by the layers
      that own the corresponding failure points ({!site}): the block
      allocator (ENOSPC), the jbd2-style journal (EIO on commit) and
      the relink [swap_extents] ioctl (EIO). An epoch counter separates
      {e transient} faults (heal after [k] retry epochs) from {e sticky}
      ones (never heal): retry/degradation loops advance the epoch via
      {!new_epoch}, so a [Transient k] fault stops firing after [k]
      retries while [Sticky] keeps firing forever. *)

(** Machine-check analogue: raised by [Pmem.Device.load] when the loaded
    range covers a poisoned line that would be served from media. The
    payload is the device byte address of the poisoned line. *)
exception Poisoned of int

(** Resource-fault injection sites, named for the layer that consults
    them. *)
type site =
  | Alloc  (** block/extent allocator: fires as ENOSPC *)
  | Journal  (** jbd2 commit path: fires as EIO *)
  | Swap  (** [swap_extents]/relink ioctl: fires as EIO *)

val site_name : site -> string
val all_sites : site list

(** Refines a {!site} by calling context, so a fault can target e.g. only
    the allocations made on behalf of U-Split staging-file
    pre-allocation (leaving foreground allocations healthy — the
    scenario the degraded-write fallback exists for). *)
type origin = Other | Staging_prealloc

type duration =
  | Transient of int
      (** heals after [k >= 1] retry epochs past the epoch it first
          fired in *)
  | Sticky  (** never heals *)

type rfault = {
  rf_site : site;
  rf_origin : origin option;  (** [None] matches any origin *)
  rf_from : int;  (** 0-based call index at the site to start firing at *)
  rf_duration : duration;
}

val rfault : ?origin:origin -> site -> from:int -> duration -> rfault
val pp_rfault : Format.formatter -> rfault -> unit

(** Outcome and bookkeeping counters, all host-side. [injected] counts
    resource-fault firings; [media] counts {!Poisoned} raises. The
    remaining fields classify how the stack absorbed the faults. *)
type counts = {
  mutable injected : int;
  mutable media : int;
  mutable masked : int;
  mutable retried : int;
  mutable errno : int;
  mutable degraded_writes : int;
  mutable relink_retries : int;
  mutable journal_retries : int;
  mutable quarantined_lines : int;
  mutable scrub_migrations : int;
  mutable replay_skipped : int;
}

type t

val create : unit -> t

(** A copy of [t]: the same injected faults, armed state, epoch, call
    counters and outcome counters, none shared with [t]. *)
val clone : t -> t

(** Turn the plane on without injecting anything: call counters start
    counting (used by faultcheck's profiling pass). With an empty fault
    set this must not change any simulated result. *)
val arm : t -> unit

(** Inject a resource fault (arms the plane). *)
val inject : t -> rfault -> unit

(** Remove all injected faults and reset call/epoch/outcome state; the
    plane stays armed or unarmed as it was. *)
val reset : t -> unit

(** [check t site] — consult the plane at a fault point. Counts the call
    (when armed) and returns [true] iff an injected fault fires for this
    call. Never charges simulated time. *)
val check : t -> site -> bool

(** Dynamic-extent origin marker (see {!origin}). *)
val with_origin : t -> origin -> (unit -> 'a) -> 'a

val epoch : t -> int

(** Advance the retry epoch — called by retry loops between attempts and
    by degradation fallbacks, so [Transient k] faults heal. *)
val new_epoch : t -> unit

(** Calls seen per site since the plane was armed/reset. *)
val calls : t -> site -> int

(** Capped exponential backoff schedule shared by the retry loops:
    simulated ns to charge before retry [attempt] (1-based). *)
val backoff_ns : attempt:int -> float

val counts : t -> counts
val note_media : t -> unit
val note_masked : t -> unit
val note_retried : t -> unit
val note_errno : t -> unit
val note_degraded_write : t -> unit
val note_relink_retry : t -> unit
val note_journal_retry : t -> unit
val note_quarantined : t -> int -> unit
val note_scrub_migration : t -> unit
val note_replay_skipped : t -> unit

val pp_counts : Format.formatter -> counts -> unit
