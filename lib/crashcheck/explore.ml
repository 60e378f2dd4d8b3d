(** Crash-state space of the persist-order journal (DESIGN.md §5d).

    Shared by the whole-workload differential runner ({!Crashcheck}), the
    litmus corpus ({!Litmus}) and the fence minimizer ({!Minimize}). *)

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

(** All survivor vectors for one point, in odometer order. *)
let enumerate (pending : Pmem.Device.pending_line array) =
  let n = Array.length pending in
  let rec go i =
    if i = n then [ [] ]
    else
      let tails = go (i + 1) in
      List.concat_map
        (fun keep ->
          List.map
            (fun tail ->
              {
                Pmem.Device.s_line = pending.(i).Pmem.Device.p_line;
                s_keep = keep;
                s_tear = 0;
              }
              :: tail)
            tails)
        (List.init (pending.(i).Pmem.Device.p_versions + 1) Fun.id)
  in
  go 0

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

(** [sample_indexed ~seed ~index pending] is the deterministic,
    partition-independent sampler for parallel campaigns: draw [index]'s
    survivor vector from a PRNG derived from [(seed, index)] alone
    ({!Workloads.Rng.derive}), never from shared RNG state. A budget of
    [m] samples split over [k] domains — each domain covering its own
    index range — therefore visits exactly the same multiset of crash
    states as one sequential pass over indices [0..m-1]. *)
let sample_indexed ~seed ~index (pending : Pmem.Device.pending_line array) =
  sample (Workloads.Rng.create_derived seed index) pending

(** [sample_point_indexed ~seed ~index points] is {!sample_indexed} for a
    whole campaign trial: both the crash point and its survivor vector
    are drawn from the [(seed, index)]-derived PRNG, so trial [index] is
    the same crash state no matter how the budget is partitioned across
    domains or how many trials precede it. *)
let sample_point_indexed ~seed ~index (points : point array) =
  let rng = Workloads.Rng.create_derived seed index in
  let p = points.(Workloads.Rng.int rng (Array.length points)) in
  (p, sample rng p.pending)
