(** Faultcheck: deterministic fault-injection campaigns (PR 5, DESIGN.md
    §5g).

    For every (stack × fault point) pair, a trial runs a seeded workload
    on a clone of the stack's start under a fault plan and no crash
    ({!Trial.run}), reads every file back and judges it against the
    oracle worlds of what became of each op ({!Trial.judge}). Every
    fault must land in one of the allowed outcomes: {b masked} (the op
    succeeded with correct data: fallbacks, scrubber migration,
    dirty-cache hits over poisoned lines), {b retried} (it succeeded
    after backoff-retry loops) or {b errno} (an honest [EIO]/[ENOSPC]
    whose context names the originating layer). Anything else is a
    violation, and the first violating fault set is shrunk greedily to
    a minimal violating subset before reporting. *)

module W = Crashcheck.Workload
module Trial = Crashcheck.Trial
module Fs_config = Stacks.Fs_config

let all_stacks =
  Fs_config.
    [ Ext4_dax; Splitfs_posix; Splitfs_sync; Splitfs_strict; Splitfs_fams ]

(* ------------------------------------------------------------------ *)
(* Starts and outcomes                                                  *)
(* ------------------------------------------------------------------ *)

(** Shrinks the staging pool to one nearly-useless file so staging
    pre-allocation runs during the workload — the only way an
    origin-scoped [Staging_prealloc] fault can fire. *)
let tiny_staging c =
  { c with Splitfs.Config.staging_files = 1; staging_size = 4096 }

(** The start every trial of [p] on [spec] clones: the program's files
    set up on a crash-trial stack from the registry, its staging pool
    shrunk when [tiny] is set. *)
let start ?(tiny = false) ?checks spec p =
  let tweak = if tiny then tiny_staging else Fun.id in
  Trial.start ~build:(fun () -> Fs_config.make_small ?checks ~tweak spec) p

(** A trial's outcome, as its column in the tally: untriggered, masked,
    retried or errno. *)
let outcome (t : Trial.trial) =
  let c = t.Trial.faults in
  if Faults.(c.injected = 0 && c.media = 0 && c.scrub_migrations = 0) then 0
  else if t.Trial.errno <> None then 3
  else if c.Faults.retried > 0 then 2
  else 1

(* ------------------------------------------------------------------ *)
(* Shrinking                                                            *)
(* ------------------------------------------------------------------ *)

(** Greedily drop fault points from a violating set while the violation
    persists ({!Crashcheck.Shrink.greedy}, 32 re-runs at most); what
    remains is a minimal culprit set. *)
let shrink s p ~points =
  Crashcheck.Shrink.greedy ~budget:32 points
    ~simpler:(fun x current ->
      if List.length current > 1 then
        Some (List.filter (fun q -> q != x) current)
      else None)
    ~violates:(fun ps ->
      (Trial.run s p ~faults:ps ~crash:None).Trial.violations <> [])

(* ------------------------------------------------------------------ *)
(* Campaign driver                                                      *)
(* ------------------------------------------------------------------ *)

type violation = {
  v_stack : string;
  v_points : Trial.fault list;
  v_file : int;  (** -1 when not file-specific *)
  v_reason : string;
  v_errno : (Fsapi.Errno.t * string) option;
  v_shrunk : Trial.fault list;
}

type stack_report = {
  s_stack : string;
  s_trials : int;
  s_untriggered : int;
  s_masked : int;
  s_retried : int;
  s_errno : int;
  s_counts : Faults.counts;  (** summed over every trial of the stack *)
  s_violations : violation list;
}

let add_counts (acc : Faults.counts) (c : Faults.counts) =
  acc.Faults.injected <- acc.Faults.injected + c.Faults.injected;
  acc.Faults.media <- acc.Faults.media + c.Faults.media;
  acc.Faults.masked <- acc.Faults.masked + c.Faults.masked;
  acc.Faults.retried <- acc.Faults.retried + c.Faults.retried;
  acc.Faults.errno <- acc.Faults.errno + c.Faults.errno;
  acc.Faults.degraded_writes <- acc.Faults.degraded_writes + c.Faults.degraded_writes;
  acc.Faults.relink_retries <- acc.Faults.relink_retries + c.Faults.relink_retries;
  acc.Faults.journal_retries <- acc.Faults.journal_retries + c.Faults.journal_retries;
  acc.Faults.quarantined_lines <- acc.Faults.quarantined_lines + c.Faults.quarantined_lines;
  acc.Faults.scrub_migrations <- acc.Faults.scrub_migrations + c.Faults.scrub_migrations;
  acc.Faults.replay_skipped <- acc.Faults.replay_skipped + c.Faults.replay_skipped

let pp_violation ppf v =
  Fmt.pf ppf "@[<v2>%s %a: %s%a@,faults: @[%a@]@,shrunk to: @[%a@]@]" v.v_stack
    (fun ppf i -> if i < 0 then Fmt.string ppf "-" else Fmt.pf ppf "f%d" i)
    v.v_file v.v_reason
    (fun ppf -> function
      | Some ec -> Fmt.pf ppf " (last errno %a)" Fsapi.Errno.pp ec
      | None -> ())
    v.v_errno
    Fmt.(list ~sep:semi Trial.pp_fault)
    v.v_points
    Fmt.(list ~sep:semi Trial.pp_fault)
    v.v_shrunk

let pp_stack_report ppf r =
  Fmt.pf ppf
    "@[<v2>%-14s %3d trials: %3d untriggered %3d masked %3d retried %3d \
     errno  %d violation(s)@,%a%a@]"
    r.s_stack r.s_trials r.s_untriggered r.s_masked r.s_retried r.s_errno
    (List.length r.s_violations)
    Faults.pp_counts r.s_counts
    Fmt.(list ~sep:nop (fun ppf v -> Fmt.pf ppf "@,%a" pp_violation v))
    r.s_violations

let durations = [ Faults.Transient 1; Faults.Transient 3; Faults.Sticky ]

(** One stack's campaign: its program, its two starts (normal and tiny
    staging, {!start}) and its trials, each a fault set and
    whether it runs on the tiny start: one trial per fault point, plus
    one multi-fault trial for the shrinker. The fault points come from a
    profiling pass: an armed-but-empty plane counts the calls each
    injection site sees, and call indices are sampled across that range;
    poison candidates are the device lines backing the initial durable
    file content. *)
let plan ~seed ~nops ~max_per_site spec =
  let mode = Option.value (Fs_config.mode spec) ~default:Splitfs.Config.Posix in
  (* scale 16 pushes writes across block boundaries so full-block relink
     (and therefore the swap_extents fault site) is part of the campaign *)
  let p = Trial.of_workload (W.generate ~mode ~seed ~scale:16 ~nops ()) in
  (* profiling pass: no faults, count site calls + collect poison lines *)
  let starts = [| start spec p; start ~tiny:true spec p |] in
  let calls, poison_candidates =
    let m = Trial.mount ~scratch:(ref Bytes.empty) starts.(0) p in
    let plane = m.Trial.stack.env.Pmem.Env.faults in
    let kfs = Kernelfs.Syscall.kernel (Option.get m.Trial.stack.sys) in
    let poison =
      List.concat_map
        (fun (f : Trial.file) ->
          match Kernelfs.Ext4.namei kfs f.path with
          | inode ->
              let lines = (f.len + 63) / 64 in
              List.filter_map
                (fun off ->
                  match Kernelfs.Ext4.device_addr kfs inode ~off with
                  | Some a -> Some (a / 64 * 64)
                  | None -> None)
                [ 0; lines / 2 * 64 ]
          | exception Fsapi.Errno.Error _ -> [])
        p.Trial.initial
      |> List.sort_uniq compare
    in
    Faults.arm plane;
    ignore (Trial.drive m ignore p ~faults:[] ~crash:None);
    ((fun site -> Faults.calls plane site), poison)
  in
  let site_points =
    List.concat_map
      (fun site ->
        let n = calls site in
        if n = 0 then []
        else
          let idxs =
            List.sort_uniq compare [ 0; n / 2; max 0 (n - 1) ]
            |> List.filteri (fun i _ -> i < max_per_site)
          in
          List.concat_map
            (fun from ->
              List.map
                (fun d -> [ Trial.Resource (Faults.rfault site ~from d) ])
                durations)
            idxs)
      Faults.all_sites
  in
  let poison_points =
    List.map (fun a -> [ Trial.Poison a ]) poison_candidates
  in
  let scrub_points =
    [ [ Trial.Scrub_wear 1 ] ]
    @
    match poison_candidates with
    | a :: _ -> [ [ Trial.Poison a; Trial.Scrub_wear max_int ] ]
    | [] -> []
  in
  let combo =
    (* one multi-fault trial keeps the shrinker honest *)
    let rs =
      List.filter_map
        (fun site ->
          if calls site > 0 then
            Some
              (Trial.Resource (Faults.rfault site ~from:0 (Faults.Transient 1)))
          else None)
        Faults.all_sites
    in
    let ps =
      match poison_candidates with a :: _ -> [ Trial.Poison a ] | [] -> []
    in
    match rs @ ps with [] -> [] | l -> [ l ]
  in
  let degraded_points =
    match Fs_config.mode spec with
    | Some _ ->
        [
          [
            Trial.Resource
              (Faults.rfault ~origin:Faults.Staging_prealloc Faults.Alloc
                 ~from:0 Faults.Sticky);
          ];
        ]
    | None -> []
  in
  ( p,
    starts,
    List.map
      (fun points -> (points, false))
      (site_points @ poison_points @ scrub_points @ combo)
    @ List.map (fun points -> (points, true)) degraded_points )

(** [check_stack spec] runs the trials of [spec]'s {!plan} and shrinks
    its first violation. *)
let check_stack ?(seed = 0xFA17) ?(nops = 24) ?(max_per_site = 3) ?jobs spec =
  let p, starts, trials = plan ~seed ~nops ~max_per_site spec in
  let start tiny = starts.(Bool.to_int tiny) in
  (* fan the trials over the domain pool (every trial clones its own
     env/stack and fault plane from one of the two starts, which every
     domain reads); merge tallies, summed counts and violations over the
     results in trial order, so the report — and which violation gets
     the shrinking budget — is identical at any job count *)
  let results =
    Par.map ?jobs
      (fun _ (points, tiny) ->
        Trial.run (start tiny) p ~faults:points ~crash:None)
      trials
  in
  let totals = Faults.counts (Faults.create ()) in
  let tallies = [| 0; 0; 0; 0 |] in
  let violations = ref [] in
  List.iter2
    (fun (points, tiny) (t : Trial.trial) ->
      add_counts totals t.Trial.faults;
      let o = outcome t in
      tallies.(o) <- tallies.(o) + 1;
      List.iter
        (fun (file, reason) ->
          let shrunk =
            if !violations = [] then shrink (start tiny) p ~points
            else points
          in
          violations :=
            {
              v_stack = Fs_config.name spec;
              v_points = points;
              v_file = file;
              v_reason = reason;
              v_errno = t.Trial.errno;
              v_shrunk = shrunk;
            }
            :: !violations)
        t.Trial.violations)
    trials results;
  {
    s_stack = Fs_config.name spec;
    s_trials = List.length trials;
    s_untriggered = tallies.(0);
    s_masked = tallies.(1);
    s_retried = tallies.(2);
    s_errno = tallies.(3);
    s_counts = totals;
    s_violations = List.rev !violations;
  }

(** The full campaign: every stack with the same budget. Each stack's
    trials already fan over the shared pool, so stacks run sequentially
    here — their reports print incrementally and the pool stays fed. *)
let run ?seed ?nops ?max_per_site ?jobs () =
  List.map
    (fun spec -> check_stack ?seed ?nops ?max_per_site ?jobs spec)
    all_stacks

let clean reports = List.for_all (fun r -> r.s_violations = []) reports

(* ------------------------------------------------------------------ *)
(* Oracle self-test                                                     *)
(* ------------------------------------------------------------------ *)

(** Regression test for the oracle itself: break the degraded-write path
    (writes silently dropped instead of routed through the kernel) and
    check that the campaign's degraded-write trial flags it. Returns
    [true] when the oracle caught the injected bug. The switch is
    per-env ([Env.checks]), so no other trial — concurrent or later —
    can observe it. *)
let oracle_catches_dropped_writes () =
  let checks =
    { Pmem.Env.default_checks with Pmem.Env.honest_degraded_writes = false }
  in
  let p =
    Trial.of_workload
      (W.generate ~mode:Splitfs.Config.Sync ~seed:0xFA17 ~scale:16 ~nops:24 ())
  in
  let t =
    Trial.run
      (start ~tiny:true ~checks Fs_config.Splitfs_sync p)
      p ~crash:None
      ~faults:
        [
          Trial.Resource
            (Faults.rfault ~origin:Faults.Staging_prealloc Faults.Alloc ~from:0
               Faults.Sticky);
        ]
  in
  t.Trial.violations <> []
