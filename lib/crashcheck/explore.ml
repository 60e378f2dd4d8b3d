(** Crash-state space of the persist-order journal (DESIGN.md §5d): the
    crash points of a run, the size of each point's space, and the two
    ways a crash state is named by an index, {!nth} for enumeration and
    {!sample_point_indexed} for seeded draws. {!Trial.explore} walks it
    for every campaign; the end-to-end benchmark draws from it too. *)

(** A crash point: trip at fence [fence] (0-based, counted from
    [journal_begin]); [fence = fence_count] means "end of trace".
    [pending] is the device's summary of lines with uncommitted
    versions at that point. *)
type point = { fence : int; pending : Pmem.Device.pending_line array }

(** [points dev run] runs [run] with [dev]'s persist-order journal on
    and returns every crash point it recorded: one per fence plus one
    for the end of the trace. *)
let points dev run =
  Pmem.Device.journal_begin dev;
  run ();
  let nf = Pmem.Device.fence_count dev in
  let points =
    List.init nf (fun i ->
        { fence = i; pending = Pmem.Device.fence_pending dev i })
    @ [ { fence = nf; pending = Pmem.Device.pending_now dev } ]
  in
  Pmem.Device.journal_stop dev;
  points

(** Number of distinct legal crash states at one point: each pending
    line independently keeps its base or any of its pending versions
    (tear refinements not counted — they are a sampling-only
    refinement of the line-granular space). Saturates at 2^50: a
    trace with dozens of pending lines overflows 63-bit ints long
    before it becomes enumerable. *)
let count_cap = 1 lsl 50

let state_count (pending : Pmem.Device.pending_line array) =
  Array.fold_left
    (fun acc (p : Pmem.Device.pending_line) ->
      if acc >= count_cap then count_cap else acc * (p.p_versions + 1))
    1 pending

(** Survivor vector [i] of one point, [0 <= i < state_count pending],
    in odometer order: the last pending line's keep turns fastest, the
    first line's slowest. A crash state is its index: explorers keep the
    index and decode the vector when they need it. *)
let nth (pending : Pmem.Device.pending_line array) i =
  let rec go k i tail =
    if k < 0 then tail
    else
      let p = pending.(k) in
      let radix = p.Pmem.Device.p_versions + 1 in
      go (k - 1) (i / radix)
        ({ Pmem.Device.s_line = p.p_line; s_keep = i mod radix; s_tear = 0 }
        :: tail)
  in
  go (Array.length pending - 1) i []

(** All survivor vectors for one point, in {!nth}'s order. *)
let enumerate pending = List.init (state_count pending) (nth pending)

(** One random survivor vector. Non-temporal frontier versions get a
    random 8-byte tear mask one time in four: x86 only guarantees
    8-byte atomicity for the stores themselves, so an NT line caught
    mid-persist may be half old, half new. *)
let sample rng (pending : Pmem.Device.pending_line array) =
  (* direct recursion over the array instead of [Array.to_list |> map]:
     no intermediate list on the per-trial hot path. The [let s] binding
     forces the draw for line [i] before the recursive call, preserving
     the exact draw order of the list-based implementation. *)
  let n = Array.length pending in
  let survivor_of (p : Pmem.Device.pending_line) =
    let keep = Workloads.Rng.int rng (p.p_versions + 1) in
    let tear =
      if
        keep > 0
        && p.p_nt_mask land (1 lsl (keep - 1)) <> 0
        && Workloads.Rng.int rng 4 = 0
      then 1 + Workloads.Rng.int rng 255
      else 0
    in
    { Pmem.Device.s_line = p.p_line; s_keep = keep; s_tear = tear }
  in
  let rec build i =
    if i = n then []
    else
      let s = survivor_of pending.(i) in
      s :: build (i + 1)
  in
  build 0

(** [sample_point_indexed ~seed ~index points] is the deterministic,
    partition-independent sampler for parallel campaigns: both the crash
    point and its survivor vector of draw [index] come from a PRNG
    derived from [(seed, index)] alone ({!Workloads.Rng.derive}), never
    from shared RNG state. Draw [index] is therefore the same crash
    state no matter how a budget is split over domains or how many draws
    precede it. *)
let sample_point_indexed ~seed ~index (points : point array) =
  let rng = Workloads.Rng.create_derived seed index in
  let p = points.(Workloads.Rng.int rng (Array.length points)) in
  (p, sample rng p.pending)
