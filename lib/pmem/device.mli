(** Simulated byte-addressable persistent-memory device.

    Models the persistence behaviour of Intel Optane DC PMM under ADR:
    non-temporal stores are durable once they reach the memory controller,
    temporal stores live in the (volatile) CPU cache until the line is
    flushed. A crash discards every dirty cache line. All accesses charge
    simulated time on the shared clock and update the shared statistics. *)

val line_size : int
(** 64 bytes. *)

val block_size : int
(** 4096 bytes (wear-tracking granularity). *)

type t

val create :
  ?capacity:int -> ?faults:Faults.t -> clock:Simclock.t -> timing:Timing.t ->
  stats:Stats.t -> unit -> t
(** [faults] supplies the outcome counters the media-fault paths report
    into; the poison/wear/quarantine state itself lives in the device.
    The device allocates what its run touches, not [capacity]: its images
    grow in 4 KiB chunks, in a chunk table made at the first write, its
    dirty-line bitmap is made at the first temporal store, and its wear
    counters grow one 64 KiB region at a time as regions are first
    written. *)

val capacity : t -> int

val release : t -> unit
(** [release t] ends [t]'s life and hands its two images' chunk table and
    4 KiB chunks to a spare list kept per domain; the next device made on
    this domain takes its tables and chunks from that list before it
    allocates. A durable chunk is zero-filled again when it is taken; a
    shadow chunk is taken as it is, since a shadow line is written before
    it is read. No charge, counter, crash state or report depends on which
    buffer backs a chunk. The list holds only what released images held
    and later images have not taken back: a domain that runs one crash
    trial at a time keeps at most the chunks of its largest trial. Each
    image lists the chunks it wrote, one word a chunk, so [release]
    costs the chunks written, not the capacity.

    Afterwards every operation that reads, writes, flushes, fences or
    crashes [t], starts its journal, resumes it or releases it again
    raises [Invalid_argument]; the statistics, wear and fault counters
    stay readable. Release only a device nothing will touch again: the
    owner of a crash-trial stack releases it after reading back and
    checking.

    A {!clone}'s images share their original's chunks until they write
    them: [release] recycles only the chunks the clone allocated itself
    and empties the cells it shares, so no chunk of the original ever
    reaches a spare list. *)

val clone :
  ?faults:Faults.t -> t -> clock:Simclock.t -> stats:Stats.t -> t
(** [clone t ~clock ~stats] copies a quiescent [t] (journal off, not
    halted or released) onto [clock] and [stats]. Both images are
    copy-on-write: the clone's chunk table, taken from the domain's
    spare list, holds [t]'s chunks, and its first write to one copies the
    chunk into one it owns. Copying costs the cells [t] wrote, not the
    capacity. The dirty bitmap (when a line is dirty), the wear leaves,
    the poisoned and quarantined lines, the site hits and the elided
    fence site are copied. [t] must not be written while a clone lives,
    and it cannot be cloned if it is a clone itself. *)

(** Temporal store: data lands in the CPU cache and is lost on crash
    unless flushed. *)
val store : t -> addr:int -> Bytes.t -> off:int -> len:int -> unit

(** Non-temporal store: bypasses the cache; durable once a subsequent
    fence orders it. Invalidates stale cached lines it covers. *)
val store_nt : t -> addr:int -> Bytes.t -> off:int -> len:int -> unit

(** Flush (clwb) every dirty line intersecting the range. *)
val flush : t -> addr:int -> len:int -> unit

(** Ordering fence (sfence). [site] is a registered fence-site id (see
    {!register_fence_site}); an elided site skips the fence entirely —
    no journal commit, no time charge. *)
val fence : ?site:int -> t -> unit

(** {1 Fence-site registry (fence minimization)}

    Fences in the file-system layers register a named call site once (at
    module initialisation) and pass the id to [fence]. The name registry
    is global but immutable after module initialisation — sites are
    source locations. All run state (hit
    counters, the elision mask) is per-device, so campaign domains
    running concurrently never observe each other. Eliding a site models
    deleting that sfence from the source; {!Crashcheck} exploration
    then proves the site redundant or exhibits a counterexample crash
    state. *)

val register_fence_site : string -> int
(** Register a named call site; returns its id. Must only be called from
    top-level module initialisers (single-domain program startup). *)

val fence_sites : unit -> (int * string) list
(** All registered sites, in registration order. *)

val site_hits : t -> int -> int
(** Executions of the site on this device since its creation (halted
    devices don't count; elided executions do). *)

val elide_fence_site : t -> int -> unit
(** Suppress the given site on this device for the rest of its life. At
    most one site is elided at a time per device (matching
    one-fence-at-a-time minimization). *)

(** Load into [dst]; dirty lines are served from the cache at cache speed,
    the rest is charged PM media cost with sequential/random latency
    picked by read adjacency (continuing where the last load ended, or
    exactly repeating it, counts as sequential).

    Raises {!Faults.Poisoned} — before charging any simulated time —
    when the range covers a poisoned line that would be served from
    media (a dirty cached copy masks the poison until writeback). *)
val load : t -> addr:int -> Bytes.t -> off:int -> len:int -> unit

val load_bytes : t -> addr:int -> len:int -> Bytes.t

(** Write zeros with non-temporal stores: charged, counted and journalled
    as [store_nt] of a zero buffer (ranges over 64 KiB as one store per
    64 KiB piece). Never-written parts of the durable image stay
    unallocated. A piece whose lines are all clean and in never-written
    parts leaves every line at the zeros it already holds, with nothing
    pending, so the persist-order journal records nothing for it. *)
val zero_nt : t -> addr:int -> len:int -> unit

(** Crash: all cache lines not yet flushed (and not written with NT
    stores) are lost; the durable image is untouched. Wear counters and
    poison/quarantine state survive (media damage is physical) — use
    {!reset_faults} to clear them. *)
val crash : t -> unit

(** Number of dirty (would-be-lost) cache lines; exposed for tests. *)
val dirty_lines : t -> int

(** Write-cycle counters per 4 KB block (PM endurance, §2.1). *)
val wear_of_block : t -> int -> int

val max_wear : t -> int
val total_wear : t -> int

(** Peek at the durable image without charging time (test/debug only). *)
val peek_persistent : t -> addr:int -> len:int -> Bytes.t

(** Overwrite the durable image directly, bypassing the cache model and
    all cost accounting (bit-rot test hook; test/debug only). *)
val poke_persistent : t -> addr:int -> Bytes.t -> off:int -> len:int -> unit

(** {1 Media faults (fault injection, PR 5)}

    Poisoned cache lines model uncorrectable PM media errors: a load
    that would be served from media raises {!Faults.Poisoned} (the
    machine-check analogue) before charging any time; a full-line write
    (NT store covering the line, or a flush writeback) heals the line.
    Worn blocks model endurance exhaustion via the per-block wear
    counters; they never fault — the scrubber migrates data off them.
    Quarantined lines mark data lost to a poisoned-line repair (zeroed);
    the differential oracle accepts zeros exactly there. *)

val poison_line : t -> addr:int -> unit
(** Poison the cache line containing [addr]. *)

val is_poisoned : t -> addr:int -> bool

val range_has_poison : t -> addr:int -> len:int -> bool

val last_poison : t -> int
(** Device address of the line behind the most recent
    {!Faults.Poisoned} raise; -1 if none. Lets layers that only see a
    translated EIO find the line to quarantine. *)

val quarantine : t -> addr:int -> len:int -> unit
(** Zero [addr, addr+len) with NT stores (honest media cost) and mark
    every covered line quarantined; clears their poison. *)

val is_quarantined : t -> addr:int -> bool
val quarantined_count : t -> int

val block_needs_scrub : t -> addr:int -> limit:int -> bool
(** Block at device address [addr] is worn to [limit] or holds poison. *)

val migrate_block : t -> src:int -> dst:int -> int
(** Scrubber migration: copy one block-aligned 4 KB block, charging
    honest load/NT-store costs; poisoned source lines are zeroed at the
    destination and marked quarantined there. Returns lines lost. *)

val reset_faults : t -> unit
(** Clear wear counters, poison and quarantine markers (factory-fresh
    DIMM). [crash] deliberately keeps all of them. *)

val image_digest : t -> string
(** Digest of the durable image, the same for two devices whose durable
    images read alike (test hook). *)

val spared : t -> int
(** How many of [t]'s chunk tables and chunks sit on this domain's spare
    list (test hook: a clone's original must never reach it). *)

(** {1 Persist-order journal (crash-state exploration)}

    When journaling is on, the device records per cache line the sequence
    of contents the line could hold after a crash, under x86-TSO persist
    semantics with ADR: everything committed by the last sfence is
    durable; any later store — flushed, non-temporal, or merely cached
    (caches evict speculatively) — may or may not have reached the
    persistence domain. Per line, the legal post-crash contents are the
    fence-committed base or any single later version; choices across
    lines are independent. Journaling is passive — it never changes
    simulated-time charges. It keeps only the lines a crash can still
    change: a fence drops every line it leaves with no pending version,
    so its cost follows the lines stored since the previous fence plus
    the lines still pending, not every line touched since
    [journal_begin].

    One rule shapes the space: a store or NT store whose post-store line
    content equals the line's frontier (its newest pending version, or
    its fence-committed base when none is pending) adds no version; an
    NT store still marks that frontier reached. The duplicate's crash
    images are its predecessor's, so every distinct crash image stays
    reachable while jbd2's all-zero blocks over a zeroed journal area,
    and other stores that change nothing, leave the space as it was. *)

(** Survivor choice for one line in a partial crash: keep the first
    [s_keep] pending versions, counted oldest-first (0 = revert to the
    fence-committed base). [s_tear] is an 8-bit mask over the kept
    frontier version's eight 8-byte chunks; set bits revert that chunk to
    the version below — modelling a non-temporal store that only
    partially reached media (x86 guarantees 8-byte atomicity, nothing
    wider). *)
type survivor = { s_line : int; s_keep : int; s_tear : int }

(** Pending summary of one line: [p_versions] pending versions; bit [k-1]
    of [p_nt_mask] is set iff version [k] (1-based, oldest-first) came
    from a non-temporal store (and may therefore tear sub-line). *)
type pending_line = { p_line : int; p_versions : int; p_nt_mask : int }

exception Crashed
(** Raised by [fence] when an armed crash trips. *)

val journal_begin : t -> unit
(** Start (or restart) persist-order journaling. Call at a quiescent
    point — ideally with no dirty lines and no armed crash. *)

val journal_stop : t -> unit
val journaling : t -> bool

val fence_count : t -> int
(** Fences executed since [journal_begin]. *)

val fence_pending : t -> int -> pending_line array
(** [fence_pending t i] is the pending summary captured just before fence
    index [i] (0-based) committed — the choice space of a crash at that
    fence. Empty if [i] has not been reached, or was reached while a crash
    was armed (an armed replay only needs its trip point, so it skips the
    summaries). *)

val pending_now : t -> pending_line array
(** The pending summary right now (the choice space of a crash at the
    current point, e.g. at end of trace). *)

val crash_partial : t -> survivors:survivor list -> unit
(** Crash leaving a chosen subset of pending stores durable. Lines not
    named in [survivors] keep their newest pending content. Consumes the
    pending journal state and resets the cache like [crash]. *)

val arm_crash : t -> fence:int -> survivors:survivor list -> unit
(** When the run reaches fence index [fence], apply [crash_partial
    ~survivors], halt the device (every device operation becomes a no-op
    so unwinding code cannot disturb the crash image) and raise
    [Crashed]. [fence = -1] disarms.

    While armed, the journal records only what that crash can observe.
    Until the fence before [fence] has run, an NT store, zero store or
    flush that finds the journal holding no line records nothing: it
    would push only reached versions, which the next fence (not the
    armed one) commits and drops, leaving the journal as empty as
    skipping does. Temporal stores always record. The crash at [fence]
    therefore meets the journal an unarmed run holds there, built from
    that fence's epoch and the cached versions carried into it. An
    unarmed run records everything. *)

val resume : t -> unit
(** Reactivate a halted device so recovery can run on the crash image. *)
