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

    Ferrite-style exhaustive enumeration is kept for small traces (a
    unit test asserts the exact state count on a hand-built trace);
    real workloads overflow that space after a handful of fences, which
    is why the sampler exists. A shrinking reporter minimises the
    surviving-line deviation of any violating state before reporting.

    The stacks come from the {!Stacks.Fs_config} registry; the lockstep
    trial ({!Trial}), the crash-point profile ({!Explore.points}), the
    contracts ({!Check}) and the shrinker ({!Shrink}) are the ones the
    litmus corpus, the fence minimizer and faultcheck use too. *)

module Workload = Workload
module Explore = Explore
module View = View
module Check = Check
module Trial = Trial
module Shrink = Shrink
module Litmus = Litmus
module Minimize = Minimize
module Fs_config = Stacks.Fs_config

(* ------------------------------------------------------------------ *)
(* Trial runner                                                         *)
(* ------------------------------------------------------------------ *)

module Runner = struct
  let file_path i = Printf.sprintf "/f%d" i

  (** Grow-on-demand payload scratch: one buffer per trial replaces a
      [Bytes] allocation per applied op (and each crash state replays the
      whole workload, so the savings multiply by the trial count). *)
  let scratch_payload scratch ~seed len =
    if Bytes.length !scratch < len then
      scratch := Bytes.create (max len (2 * Bytes.length !scratch));
    Workload.payload_into ~seed !scratch ~len;
    !scratch

  (** Create the workload's files with their initial content and fsync
      them: the trace starts from a fully durable state. *)
  let setup ?scratch (w : Workload.t) (fs : Fsapi.Fs.t) =
    Array.init w.Workload.nfiles (fun i ->
        let fd = fs.Fsapi.Fs.open_ (file_path i) Fsapi.Flags.create_rw in
        let len = w.Workload.initial.(i) in
        let buf =
          match scratch with
          | Some s -> scratch_payload s ~seed:(1000 + i) len
          | None -> Workload.payload ~seed:(1000 + i) len
        in
        ignore (fs.Fsapi.Fs.pwrite fd ~buf ~boff:0 ~len ~at:0);
        fs.Fsapi.Fs.fsync fd;
        fd)

  let apply ?scratch ~checkpoint (fs : Fsapi.Fs.t) fds (op : Workload.op) =
    match op with
    | Workload.Write { file; at; len; seed } ->
        let buf =
          match scratch with
          | Some s -> scratch_payload s ~seed len
          | None -> Workload.payload ~seed len
        in
        ignore (fs.Fsapi.Fs.pwrite fds.(file) ~buf ~boff:0 ~len ~at)
    | Workload.Fsync { file } -> fs.Fsapi.Fs.fsync fds.(file)
    | Workload.Checkpoint -> checkpoint ()

  (** Run the workload once to completion on the registry's crash-trial
      stack of its mode and collect every crash point. *)
  let profile (w : Workload.t) =
    let st = Fs_config.make_small (Fs_config.of_mode w.Workload.mode) in
    let fds = setup w st.fs in
    Explore.points st.env.Pmem.Env.dev (fun () ->
        List.iter
          (apply ~checkpoint:(fun () -> Fs_config.checkpoint st) st.fs fds)
          w.Workload.ops)

  let snapshot (w : Workload.t) oracle =
    Array.init w.Workload.nfiles (fun i ->
        Option.value (View.of_oracle oracle (file_path i)) ~default:View.empty)

  (** Post-crash file content as the kernel serves it. *)
  let read_back sys i =
    Trial.read_back (Kernelfs.Syscall.as_fsapi sys) (file_path i)

  type trial = {
    crashed_at_op : int option;
        (** index of the operation in flight, [None] = end of trace *)
    violations : (int * string) list;  (** (file index, reason) *)
    recovered : Bytes.t array;  (** per-file post-recovery content *)
    recovery : Splitfs.Recovery.report;
  }

  (** One crash state, end to end: a fresh crash-trial stack, the
      lockstep {!Trial.replay} against the oracle, recovery, read-back,
      check. [checks] configures the environment's oracle/recovery
      toggles (the injected-bug canary); the default is all checks on. *)
  let run_trial ?checks (w : Workload.t) ~(point : Explore.point) ~survivors =
    let scratch = ref Bytes.empty in
    let st =
      Fs_config.make_small ?checks (Fs_config.of_mode w.Workload.mode)
    in
    let fds = setup ~scratch w st.fs in
    let ofs, oracle = Fsapi.Ref_fs.make_oracle () in
    let ofds = setup ~scratch w ofs in
    let crashed_at_op, pre, post =
      Trial.replay st.env.Pmem.Env.dev ~point ~survivors
        ~real:
          (apply ~scratch
             ~checkpoint:(fun () -> Fs_config.checkpoint st)
             st.fs fds)
        ~oracle:
          (apply ~scratch
             ~checkpoint:(fun () ->
               Array.iter (fun fd -> ofs.Fsapi.Fs.fsync fd) ofds)
             ofs ofds)
        ~snap:(fun () -> snapshot w oracle)
        w.Workload.ops
    in
    let sys = Option.get st.sys in
    let recovery = Splitfs.Recovery.recover ~sys ~env:st.env ~instance:0 in
    let recovered =
      Array.init w.Workload.nfiles (fun i ->
          Option.value (read_back sys i) ~default:Bytes.empty)
    in
    let violations = ref [] in
    for i = w.Workload.nfiles - 1 downto 0 do
      match
        Check.check w.Workload.mode ~pre:pre.(i) ~post:post.(i) recovered.(i)
      with
      | None -> ()
      | Some reason -> violations := (i, reason) :: !violations
    done;
    { crashed_at_op; violations = !violations; recovered; recovery }
end

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)
(* ------------------------------------------------------------------ *)

type violation = {
  v_fence : int;  (** crash point (fence index) *)
  v_op : int option;  (** operation in flight, if any *)
  v_file : int;
  v_reason : string;
  v_survivors : Pmem.Device.survivor list;  (** as sampled/enumerated *)
  v_shrunk : Pmem.Device.survivor list;  (** minimal deviating subset *)
}

type mode_report = {
  r_mode : Splitfs.Config.mode;
  r_ops : int;
  r_points : int;  (** crash points (fences + end of trace) *)
  r_total_states : int;  (** |legal crash states|, line-granular *)
  r_explored : int;  (** trials actually run *)
  r_exhaustive : bool;
  r_violations : violation list;
}

let pp_survivor ppf (s : Pmem.Device.survivor) =
  if s.s_tear <> 0 then
    Fmt.pf ppf "line %d keep %d tear %#x" s.s_line s.s_keep s.s_tear
  else Fmt.pf ppf "line %d keep %d" s.s_line s.s_keep

let pp_violation ppf v =
  Fmt.pf ppf "@[<v2>fence %d%a, file f%d: %s@,shrunk to: @[%a@]@]" v.v_fence
    (fun ppf -> function
      | Some k -> Fmt.pf ppf " (op %d in flight)" k
      | None -> ())
    v.v_op v.v_file v.v_reason
    Fmt.(list ~sep:semi pp_survivor)
    v.v_shrunk

let pp_mode_report ppf r =
  Fmt.pf ppf "@[<v2>%-6s %3d ops  %4d crash points  %6d/%-6d states %s  %d violation(s)%a@]"
    (Splitfs.Config.mode_to_string r.r_mode)
    r.r_ops r.r_points r.r_explored r.r_total_states
    (if r.r_exhaustive then "(exhaustive)" else "(sampled)")
    (List.length r.r_violations)
    Fmt.(list ~sep:nop (fun ppf v -> Fmt.pf ppf "@,%a" pp_violation v))
    r.r_violations

(** [check_mode ?samples ?seed ?nops ?jobs mode] generates a workload,
    maps its crash-state space, explores it (exhaustively if it fits in
    [samples] trials, by seeded sampling otherwise) and differentially
    checks recovery for every explored state. The first violation is
    shrunk ({!Shrink.survivors}, 100 re-runs at most); all are
    reported.

    Parallel structure (DESIGN.md §5j): the trial list is materialised by
    a cheap sequential prepass — identical RNG draws regardless of job
    count — then the expensive per-trial replays fan over the {!Par}
    domain pool. Results come back in trial order, so the merge (and
    which violation gets the shrinking budget) is byte-identical at any
    job count. *)
let check_mode ?(samples = 200) ?(seed = 0x51ED) ?(nops = 24) ?jobs ?checks
    mode =
  let w = Workload.generate ~mode ~seed ~nops () in
  let points = Runner.profile w in
  let total =
    List.fold_left
      (fun acc (p : Explore.point) -> acc + Explore.state_count p.pending)
      0 points
  in
  let exhaustive = total <= samples in
  let trials =
    if exhaustive then
      List.concat_map
        (fun (p : Explore.point) ->
          List.map (fun svs -> (p, svs)) (Explore.enumerate p.pending))
        points
    else begin
      (* partition-independent sampling: trial [i]'s crash state is a
         function of (seed, i) alone, never of shared RNG state — the
         sampled multiset is identical at any job count or budget split *)
      let parr = Array.of_list points in
      List.init samples (fun i ->
          Explore.sample_point_indexed ~seed:(seed lxor 0x5EED5EED) ~index:i
            parr)
    end
  in
  let results =
    Par.map ?jobs
      (fun _ ((p : Explore.point), svs) ->
        Runner.run_trial ?checks w ~point:p ~survivors:svs)
      trials
  in
  let violations = ref [] in
  List.iter2
    (fun ((p : Explore.point), svs) (t : Runner.trial) ->
      List.iter
        (fun (file, reason) ->
          let shrunk =
            if !violations = [] then
              Shrink.survivors ~budget:100 p svs ~violates:(fun svs ->
                  (Runner.run_trial ?checks w ~point:p ~survivors:svs)
                    .Runner.violations
                  <> [])
            else svs
          in
          violations :=
            {
              v_fence = p.Explore.fence;
              v_op = t.Runner.crashed_at_op;
              v_file = file;
              v_reason = reason;
              v_survivors = svs;
              v_shrunk = shrunk;
            }
            :: !violations)
        t.Runner.violations)
    trials results;
  {
    r_mode = w.Workload.mode;
    r_ops = nops;
    r_points = List.length points;
    r_total_states = total;
    r_explored = List.length trials;
    r_exhaustive = exhaustive;
    r_violations = List.rev !violations;
  }

(** All four modes with the same budget. *)
let run ?samples ?seed ?nops ?jobs () =
  List.map
    (fun mode -> check_mode ?samples ?seed ?nops ?jobs mode)
    [
      Splitfs.Config.Posix;
      Splitfs.Config.Sync;
      Splitfs.Config.Strict;
      Splitfs.Config.Fams;
    ]

(* ------------------------------------------------------------------ *)
(* Concurrent crashcheck: two interleaved clients                       *)
(* ------------------------------------------------------------------ *)

(** Differential crash checking under concurrency: two clients — each a
    scheduler actor with its own U-Split instance and kernel fd table over
    one shared kernel and device — run interleaved workloads on disjoint
    file sets. The persist-order journal records the merged NT/flush/fence
    stream of both clients plus the shared jbd2 journal; every sampled
    crash state is recovered (both instances) and each client's files are
    checked against the per-mode contract exactly as in the single-client
    harness. This is the evidence that the per-actor clock refactor and
    the contention charges did not change what reaches the media, or the
    order it becomes durable in. *)
module Concurrent = struct
  let nclients = 2
  let file_path c i = Printf.sprintf "/c%df%d" c i

  (** Client 0 is the registry's crash-trial stack; every further client
      is another U-Split instance, with its own kernel fd table, over the
      same kernel and device. Returns the env, each client's fd table and
      file system, and a stepper running client [c]'s op on its own
      actor. *)
  let mount mode =
    let st = Fs_config.make_small (Fs_config.of_mode mode) in
    let env = st.env and sys0 = Option.get st.sys in
    let u0 = Option.get st.usplit in
    let sys =
      Array.init nclients (fun c ->
          if c = 0 then sys0
          else Kernelfs.Syscall.make (Kernelfs.Syscall.kernel sys0))
    in
    let u =
      Array.init nclients (fun c ->
          if c = 0 then u0
          else
            Splitfs.Usplit.mount ~cfg:(Splitfs.Usplit.config u0) ~sys:sys.(c)
              ~env ~instance:c ())
    in
    let fs = Array.map Splitfs.Usplit.as_fsapi u in
    let actors =
      Array.init nclients (fun c ->
          Pmem.Env.new_actor env ~name:(Printf.sprintf "client%d" c))
    in
    let step fds (c, op) =
      Pmem.Env.run_as env actors.(c) (fun () ->
          Runner.apply
            ~checkpoint:(fun () -> Splitfs.Usplit.relink_all u.(c))
            fs.(c) fds.(c) op)
    in
    (env, sys, fs, step)

  let setup c (w : Workload.t) (fs : Fsapi.Fs.t) =
    Array.init w.Workload.nfiles (fun i ->
        let fd = fs.Fsapi.Fs.open_ (file_path c i) Fsapi.Flags.create_rw in
        let len = w.Workload.initial.(i) in
        let buf = Workload.payload ~seed:(2000 + (100 * c) + i) len in
        ignore (fs.Fsapi.Fs.pwrite fd ~buf ~boff:0 ~len ~at:0);
        fs.Fsapi.Fs.fsync fd;
        fd)

  (** Round-robin interleaving of the two clients' op streams. *)
  let rec weave l0 l1 =
    match (l0, l1) with
    | [], rest -> List.map (fun op -> (1, op)) rest
    | rest, [] -> List.map (fun op -> (0, op)) rest
    | a :: ra, b :: rb -> (0, a) :: (1, b) :: weave ra rb

  (** Profile the merged trace: one run to completion with the
      persist-order journal on. Returns the crash points of the merged
      stream. *)
  let profile (ws : Workload.t array) =
    let env, _, fs, step = mount ws.(0).Workload.mode in
    let fds = Array.init nclients (fun c -> setup c ws.(c) fs.(c)) in
    Explore.points env.Pmem.Env.dev (fun () ->
        List.iter (step fds) (weave ws.(0).Workload.ops ws.(1).Workload.ops))

  (** One crash state end to end, as {!Runner.run_trial} but with two
      lockstep clients sharing one oracle namespace. The client whose op
      was in flight gets pre/post views around that op; the other client
      crashed between ops, so its pre and post coincide. Returns the
      violations as (client, file, reason). *)
  let run_trial (ws : Workload.t array) ~(point : Explore.point) ~survivors =
    let env, sys, fs, step = mount ws.(0).Workload.mode in
    let fds = Array.init nclients (fun c -> setup c ws.(c) fs.(c)) in
    let ofs, oracle = Fsapi.Ref_fs.make_oracle () in
    let ofds = Array.init nclients (fun c -> setup c ws.(c) ofs) in
    let oracle_step (c, op) =
      Runner.apply
        ~checkpoint:(fun () ->
          Array.iter (fun fd -> ofs.Fsapi.Fs.fsync fd) ofds.(c))
        ofs ofds.(c) op
    in
    let snap () =
      Array.init nclients (fun c ->
          Array.init ws.(c).Workload.nfiles (fun i ->
              Option.value
                (View.of_oracle oracle (file_path c i))
                ~default:View.empty))
    in
    let _, pre, post =
      Trial.replay env.Pmem.Env.dev ~point ~survivors ~real:(step fds)
        ~oracle:oracle_step ~snap
        (weave ws.(0).Workload.ops ws.(1).Workload.ops)
    in
    for c = 0 to nclients - 1 do
      ignore (Splitfs.Recovery.recover ~sys:sys.(c) ~env ~instance:c)
    done;
    let violations = ref [] in
    for c = nclients - 1 downto 0 do
      for i = ws.(c).Workload.nfiles - 1 downto 0 do
        let recovered =
          Trial.read_back (Kernelfs.Syscall.as_fsapi sys.(c)) (file_path c i)
          |> Option.value ~default:Bytes.empty
        in
        match
          Check.check ws.(c).Workload.mode ~pre:pre.(c).(i) ~post:post.(c).(i)
            recovered
        with
        | None -> ()
        | Some reason -> violations := (c, i, reason) :: !violations
      done
    done;
    !violations

  type report = {
    c_mode : Splitfs.Config.mode;
    c_points : int;
    c_explored : int;
    c_violations : (int * int * string) list;  (** (client, file, reason) *)
  }

  (** Seeded sampling over the merged trace's crash states; client 0 runs
      the seed workload, client 1 an independently generated one. Same
      parallel structure as the single-client campaign: sequential
      sampling prepass, trial fan-out, in-order merge. *)
  let check_mode ?(samples = 100) ?(seed = 0x51ED) ?(nops = 16) ?jobs mode =
    let ws =
      [|
        Workload.generate ~mode ~seed ~nops ();
        Workload.generate ~mode ~seed:(seed lxor 0x2C11E27) ~nops ();
      |]
    in
    let parr = Array.of_list (profile ws) in
    let trials =
      List.init samples (fun i ->
          Explore.sample_point_indexed ~seed:(seed lxor 0x5EED5EED) ~index:i
            parr)
    in
    let results =
      Par.map ?jobs
        (fun _ ((p : Explore.point), svs) ->
          run_trial ws ~point:p ~survivors:svs)
        trials
    in
    let violations = List.fold_left (fun acc vs -> vs @ acc) [] results in
    {
      c_mode = mode;
      c_points = Array.length parr;
      c_explored = samples;
      c_violations = violations;
    }
end
