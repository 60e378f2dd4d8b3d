(** Crashcheck: partial-persistence crash-state exploration with a
    differential recovery oracle (DESIGN.md §5d).

    The PM device records a persist-order journal of every store, flush
    and fence. At any fence the durable image is only partially
    determined: each touched cache line independently holds either its
    last fence-committed content or any later version that had reached
    the device (x86-TSO persist semantics with speculative writeback;
    non-temporal frontier versions may additionally tear at 8-byte
    granularity). Crashcheck enumerates those crash states exhaustively
    when the space is small and samples it with a seeded RNG otherwise;
    for every state it re-runs the workload up to the crash point on a
    fresh stack, injects the crash, runs {!Splitfs.Recovery.recover},
    reads the files back through the kernel, and checks them against a
    {!Fsapi.Ref_fs} oracle that tracks the legal post-crash contents per
    SplitFS mode:

    - strict: recovered content is exactly the pre- or post-op state of
      the operation in flight — never a mixture (atomic data ops);
    - sync: the size is the pre- or post-op size and every byte below
      the smaller size is explained by the pre- or post-op content
      (synchronous but not atomic: in-place overwrites may tear);
    - POSIX: only fsync'd data is promised. The size is a stable
      (last-fsync) size and bytes below the smallest stable size are
      explained by a stable view, optionally with post-fsync in-place
      overwrites applied; everything beyond is unconstrained;
    - fams: recovered content is exactly the pre- or post-msync image —
      stores between msyncs must be invisible, a published msync must be
      complete (failure-atomic msync).

    A space that fits the sample budget is enumerated Ferrite-style,
    every state once. The persist-order journal adds no version for a
    store that leaves a line's content unchanged, so at the pinned seed
    a 24-op sync or strict workload has 7,472 or 7,988 states, and an
    8,192-state budget enumerates them. Posix and fams workloads leave
    more versions pending per crash point (1.3 M and 3.2 billion states
    at the same seed), so they are sampled. The first violating state
    is shrunk to its minimal surviving-line deviation before reporting.

    A generated workload, or two clients' workloads woven together
    ({!weave}), compiles to a {!Trial.program}, and its crash states run
    through {!Trial.explore}, the explorer the litmus corpus and the
    fence minimizer run too, on a stack from the {!Stacks.Fs_config}
    registry, with the contracts of {!Check} and the shrinker of
    {!Shrink}. *)

module Workload = Workload
module Explore = Explore
module View = View
module Check = Check
module Trial = Trial
module Shrink = Shrink
module Litmus = Litmus
module Minimize = Minimize
module Fs_config = Stacks.Fs_config

(** Every crash point of [p] on the registry's crash-trial stack of
    [mode]. *)
let points mode p =
  let points, _, _ =
    Trial.profile
      ~build:(fun () -> Fs_config.make_small (Fs_config.of_mode mode))
      p
  in
  points

(** One crash state of [p] on the registry's crash-trial stack of
    [mode], held to that mode's contract. [checks] configures the
    environment's oracle/recovery toggles (the injected-bug canaries);
    the default is all checks on. *)
let trial ?checks mode p =
  let spec = Fs_config.of_mode mode in
  Trial.run
    ~build:(fun () -> Fs_config.make_small ?checks spec)
    ~contract:(Check.contract_of spec) p

(* ------------------------------------------------------------------ *)
(* The kernel as the end-to-end benchmark recomposes it                 *)
(* ------------------------------------------------------------------ *)

(** {!Trial} on a crashcheck workload, one piece at a time, with the
    workload's files as [fd array]s: what the benchmark's traced crash
    trial rebuilds {!run_trial} from. *)
module Runner = struct
  let setup ~scratch w fs =
    (Trial.setup ~scratch [| fs |] (Trial.of_workload w)).(0)

  let apply ~scratch ~checkpoint fs fds op =
    Trial.apply ~scratch ~checkpoint ~snapshot:(Trial.copy_snapshot fs) fs fds
      (Trial.Op op)

  let profile (w : Workload.t) = points w.mode (Trial.of_workload w)

  let snapshot (w : Workload.t) oracle =
    Array.init w.Workload.nfiles (fun i ->
        Option.value
          (View.of_oracle oracle (Trial.file_path i))
          ~default:View.empty)

  (** Post-crash file content as the kernel serves it. *)
  let read_back sys i =
    Trial.read_back (Kernelfs.Syscall.as_fsapi sys) (Trial.file_path i)

  type trial = {
    crashed_at_op : int option;
        (** index of the operation in flight, [None] = end of trace *)
    violations : (int * string) list;  (** (file index, reason) *)
    recovered : Bytes.t array;  (** per-file post-recovery content *)
    recovery : Splitfs.Recovery.report;
  }

  let run_trial ?checks (w : Workload.t) ~point ~survivors =
    let t = trial ?checks w.mode (Trial.of_workload w) ~point ~survivors in
    {
      crashed_at_op = t.Trial.crashed_at;
      violations = t.Trial.violations;
      recovered =
        Array.map (Option.value ~default:Bytes.empty) t.Trial.recovered;
      recovery = Option.get t.Trial.recovery.(0);
    }
end

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)
(* ------------------------------------------------------------------ *)

(** [check_program ?samples ?seed ?jobs ?checks mode p] explores the
    crash states of [p] on the crash-trial stack of [mode], with as many
    clients as [p] names, held to that mode's contract
    ({!Trial.explore}: every state if they fit in [samples] trials, seeded
    draws otherwise, the first violation shrunk). [checks] sets the
    trials' oracle/recovery toggles (the injected-bug canaries); the
    profile pass runs with all checks on. *)
let check_program ?(samples = 200) ?(seed = 0x51ED) ?jobs ?checks mode
    (p : Trial.program) =
  let spec = Fs_config.of_mode mode in
  Trial.explore ~samples ~seed:(seed lxor 0x5EED5EED) ?jobs
    ~build:(fun () -> Fs_config.make_small ?checks spec)
    ~contract:(Check.contract_of spec) p (points mode p)

(** [check_mode ?samples ?seed ?nops ?jobs ?checks mode]: {!check_program}
    on a generated [nops]-op workload of [mode]. *)
let check_mode ?samples ?(seed = 0x51ED) ?(nops = 24) ?jobs ?checks mode =
  check_program ?samples ~seed ?jobs ?checks mode
    (Trial.of_workload (Workload.generate ~mode ~seed ~nops ()))

(** All four modes with the same budget, each report with its mode. *)
let run ?samples ?seed ?nops ?jobs () =
  List.map
    (fun mode -> (mode, check_mode ?samples ?seed ?nops ?jobs mode))
    [
      Splitfs.Config.Posix;
      Splitfs.Config.Sync;
      Splitfs.Config.Strict;
      Splitfs.Config.Fams;
    ]

(** Differential crash checking under concurrency: two clients, each a
    scheduler actor with its own U-Split instance and kernel fd table
    over one shared kernel and device, run workloads of [nops] ops
    generated from [seed] and from a seed derived from it, interleaved
    round-robin, on disjoint file sets (/c0f0.. and /c1f0..). The
    persist-order journal records the merged NT/flush/fence stream of
    both clients plus the shared jbd2 journal. This is the evidence that
    the per-actor clock refactor and the contention charges did not
    change what reaches the media, or the order it becomes durable
    in. *)
let weave ~mode ~seed ~nops =
  let client c seed =
    let w = Workload.generate ~mode ~seed ~nops () in
    let path i = Printf.sprintf "/c%df%d" c i in
    ( List.init w.Workload.nfiles (fun i ->
          {
            Trial.client = c;
            path = path i;
            len = w.Workload.initial.(i);
            seed = 2000 + (100 * c) + i;
          }),
      Array.init w.Workload.nfiles path,
      List.map (fun op -> (c, Trial.Op op)) w.Workload.ops )
  in
  let i0, p0, ops0 = client 0 seed
  and i1, p1, ops1 = client 1 (seed lxor 0x2C11E27) in
  let rec merge l0 l1 =
    match (l0, l1) with
    | [], rest | rest, [] -> rest
    | a :: ra, b :: rb -> a :: b :: merge ra rb
  in
  {
    Trial.initial = i0 @ i1;
    paths = Array.append p0 p1;
    ops = merge ops0 ops1;
    claim = Trial.no_claim;
  }
