(** Faultcheck: deterministic fault-injection campaigns with a
    differential fault oracle (PR 5, DESIGN.md §5g).

    For every (stack × fault point) pair, a trial clones the stack's
    start, whose initial file content is durable ({!Trial.start}),
    injects exactly the faults
    of the trial's fault set — resource faults into the {!Faults} plane,
    media poison straight into the device — runs a seeded workload to
    completion and reads every file back. Every fault must land in one
    of the allowed outcomes:

    - {b masked}: the operation succeeded with correct data (fallbacks,
      scrubber migration, dirty-cache hits over poisoned lines);
    - {b retried}: the operation succeeded after backoff-retry loops
      (transient journal/relink faults);
    - {b errno}: the operation failed with an honest [EIO]/[ENOSPC]
      whose context names the originating layer.

    Anything else — wrong bytes, wrong size, an unexpected errno, a raw
    exception escaping the stack — is a violation. The oracle is the
    crash campaigns' own: {!Trial.oracle} worlds of the same program,
    one with every acknowledged op applied and one more per op that
    failed with an allowed errno, with that op applied too (the fault
    may have struck before, during or after it took effect). Each
    read-back is judged by {!Check.check_size} and {!Check.check_bytes}
    across the worlds; zeros on quarantined device lines (surfaced media
    loss) are the one fault-specific relaxation. Violating fault sets
    are shrunk greedily to a minimal violating subset before
    reporting. *)

module W = Crashcheck.Workload
module Trial = Crashcheck.Trial
module Check = Crashcheck.Check
module Fs_config = Stacks.Fs_config

let all_stacks =
  Fs_config.
    [ Ext4_dax; Splitfs_posix; Splitfs_sync; Splitfs_strict; Splitfs_fams ]

(* ------------------------------------------------------------------ *)
(* Fault points                                                         *)
(* ------------------------------------------------------------------ *)

type fault_point =
  | Resource of Faults.rfault
  | Poison of int
      (** poison the cache line at this device address once the initial
          content is durable *)
  | Scrub_wear of int
      (** run a scrubber patrol with this wear limit halfway through the
          workload *)

let pp_fault_point ppf = function
  | Resource rf -> Faults.pp_rfault ppf rf
  | Poison addr -> Fmt.pf ppf "poison @0x%x" addr
  | Scrub_wear limit -> Fmt.pf ppf "scrub patrol (wear limit %d)" limit

(* ------------------------------------------------------------------ *)
(* Legal contents: the crash kernel's oracle worlds                     *)
(* ------------------------------------------------------------------ *)

(** What became of one op of a trial. *)
type ack =
  | Acked
  | Failed  (** raised an allowed errno: it may or may not have landed *)
  | Broken  (** raised anything else: a violation of its own *)

(** The legal final contents of [p]'s paths, given what became of each
    of its ops: one {!Trial.oracle} world with every acknowledged op
    applied, plus one per failed op with that op applied too. That is
    exact per byte, partial application included: a byte's final value
    comes from its last writer among the acknowledged ops and whichever
    failed ops landed, and that value is in that writer's world. *)
type legal = {
  head : Bytes.t array;  (** per path, every acknowledged op applied *)
  failed : Bytes.t array list Lazy.t;
      (** per failed op, the same with that op applied too; built on
          first use, since a read-back equal to [head] needs none *)
}

(** {!legal} for [p], with [acks] in program order, each world a clone
    of [o], the oracle of a start of [p]. *)
let worlds o (p : Trial.program) acks =
  let scratch = ref Bytes.empty in
  let world extra =
    let views, step = Trial.oracle ~scratch o p in
    List.iteri
      (fun k op -> if acks.(k) = Acked || k = extra then step op)
      p.ops;
    Array.map
      (fun path ->
        Option.value (views.Fsapi.Ref_fs.dump path) ~default:Bytes.empty)
      p.paths
  in
  let failed =
    List.filter
      (fun k -> acks.(k) = Failed)
      (List.init (Array.length acks) Fun.id)
  in
  { head = world (-1); failed = lazy (List.map world failed) }

(** Judge a read-back [got] of path [i] with {!Check.check_size} and
    {!Check.check_bytes} across the worlds of [legal]. [quarantined
    off] tells whether the device line behind file offset [off] was
    quarantined: a zero there is media loss surfaced honestly, the one
    fault-specific relaxation. It enters as one more view, a world of
    [got]'s size with those lines zeroed, so it accepts a zero there
    and nothing else; the lookup runs once per line. *)
let judge legal ~quarantined i got =
  if Bytes.equal got legal.head.(i) then None
  else
    let views =
      List.map (fun w -> w.(i)) (legal.head :: Lazy.force legal.failed)
    in
    let len = Bytes.length got in
    let sizes = List.sort_uniq compare (List.map Bytes.length views) in
    match Check.check_size got sizes with
    | Some _ as v -> v
    | None ->
        let zeroed =
          Bytes.copy (List.find (fun w -> Bytes.length w = len) views)
        in
        let any = ref false in
        for line = 0 to (len - 1) / 64 do
          if quarantined (line * 64) then begin
            any := true;
            Bytes.fill zeroed (line * 64) (min 64 (len - (line * 64))) '\000'
          end
        done;
        Check.check_bytes got (if !any then zeroed :: views else views)

(* ------------------------------------------------------------------ *)
(* Trial runner                                                         *)
(* ------------------------------------------------------------------ *)

(** Shrinks the staging pool to one nearly-useless file so staging
    pre-allocation runs during the workload — the only way an
    origin-scoped [Staging_prealloc] fault can fire. *)
let tiny_staging c =
  { c with Splitfs.Config.staging_files = 1; staging_size = 4096 }

module Runner = struct
  let allowed_errno = function
    | Fsapi.Errno.EIO | Fsapi.Errno.ENOSPC -> true
    | _ -> false

  type outcome = Untriggered | Masked | Retried | Errno_surfaced

  type trial = {
    outcome : outcome;
    violations : (int * string) list;  (** (file, reason); file -1 = global *)
    errno : (Fsapi.Errno.t * string) option;  (** last allowed errno seen *)
    tcounts : Faults.counts;  (** snapshot of the plane's counters *)
  }

  let snapshot_counts (c : Faults.counts) = { c with Faults.injected = c.injected }

  (** The start every trial of [p] on [spec] clones: the program's files
      set up on a crash-trial stack from the registry, its staging pool
      shrunk when [tiny] is set. *)
  let start ?(tiny = false) ?checks spec p =
    let tweak = if tiny then tiny_staging else Fun.id in
    Trial.start ~build:(fun () -> Fs_config.make_small ?checks ~tweak spec) p

  (** One trial on a clone of [s], a {!start} of [p]: the faults
      injected, the ops run to completion and every file read back
      through the stack and {!judge}d against the {!worlds} of what
      became of each op. The device is released once judged
      ({!Pmem.Device.release}). *)
  let run_trial s (p : Trial.program) ~(points : fault_point list) =
    let m = Trial.mount ~scratch:(ref Bytes.empty) s p in
    let st = m.Trial.stack and fds = m.Trial.slots.(0) in
    let dev = st.env.Pmem.Env.dev in
    let plane = st.env.Pmem.Env.faults in
    let kfs = Kernelfs.Syscall.kernel (Option.get st.sys) in
    (* the initial content is durable; now inject *)
    Faults.arm plane;
    let scrub_limit = ref None in
    List.iter
      (function
        | Resource rf -> Faults.inject plane rf
        | Poison addr -> Pmem.Device.poison_line dev ~addr
        | Scrub_wear l -> scrub_limit := Some l)
      points;
    let errno = ref None in
    let unexpected = ref [] in
    (* the one error guard: an allowed errno is an honest outcome (the
       trial's last errno); any other errno, or an escaped exception, is
       a violation *)
    let guard k what f =
      match f () with
      | () -> Acked
      | exception Fsapi.Errno.Error (e, ctx) when allowed_errno e ->
          errno := Some (e, ctx);
          Failed
      | exception Fsapi.Errno.Error (e, ctx) ->
          unexpected :=
            Fmt.str "op %d: unexpected errno %a" k Fsapi.Errno.pp (e, ctx)
            :: !unexpected;
          Broken
      | exception e ->
          unexpected :=
            Fmt.str "%s: escaped exception %s" what (Printexc.to_string e)
            :: !unexpected;
          Broken
    in
    let run_scrub () =
      match (!scrub_limit, st.usplit) with
      | None, _ -> ()
      | Some l, Some u -> ignore (Splitfs.Usplit.scrub u ~wear_limit:l)
      | Some l, None -> ignore (Kernelfs.Ext4.scrub kfs ~wear_limit:l)
    in
    let nops = List.length p.Trial.ops in
    let acks =
      Array.of_list
        (List.mapi
           (fun k step ->
             if k = nops / 2 then run_scrub ();
             guard k (Printf.sprintf "op %d" k) (fun () -> m.Trial.step step))
           p.Trial.ops)
    in
    (* settle: a final fsync per file, failures allowed like any op *)
    Array.iteri
      (fun i fd ->
        ignore
          (guard (nops + i) (Printf.sprintf "settle f%d" i) (fun () ->
               st.fs.Fsapi.Fs.fsync fd)))
      fds;
    (* read-back; EIO from a poisoned line retires (quarantines) the line
       and retries, like an application's MCE handler would *)
    let read_back i =
      let fd = fds.(i) in
      let size = (st.fs.Fsapi.Fs.fstat fd).Fsapi.Fs.st_size in
      let buf = Bytes.create size in
      let rec go attempt =
        match st.fs.Fsapi.Fs.pread fd ~buf ~boff:0 ~len:size ~at:0 with
        | n -> Ok (Bytes.sub buf 0 n)
        | exception Fsapi.Errno.Error (Fsapi.Errno.EIO, _)
          when attempt < 64 && Pmem.Device.last_poison dev >= 0 ->
            Pmem.Device.quarantine dev ~addr:(Pmem.Device.last_poison dev)
              ~len:1;
            go (attempt + 1)
        | exception Fsapi.Errno.Error (e, ctx) ->
            Error (Fmt.str "read-back: %a" Fsapi.Errno.pp (e, ctx))
        | exception e ->
            Error (Fmt.str "read-back: escaped exception %s" (Printexc.to_string e))
      in
      go 0
    in
    let quarantined path off =
      Pmem.Device.quarantined_count dev > 0
      &&
      match Kernelfs.Ext4.namei kfs path with
      | inode -> (
          match Kernelfs.Ext4.device_addr kfs inode ~off with
          | Some a -> Pmem.Device.is_quarantined dev ~addr:a
          | None -> false)
      | exception Fsapi.Errno.Error _ -> false
    in
    let legal = worlds s.Trial.s_oracle p acks in
    let check_file i =
      match read_back i with
      | Error reason -> Some reason
      | Ok got ->
          judge legal ~quarantined:(quarantined p.Trial.paths.(i)) i got
    in
    let violations = ref [] in
    for i = Array.length fds - 1 downto 0 do
      match check_file i with
      | Some r -> violations := (i, r) :: !violations
      | None -> ()
    done;
    List.iter (fun r -> violations := (-1, r) :: !violations) !unexpected;
    Pmem.Device.release dev;
    let c = Faults.counts plane in
    let outcome =
      if c.Faults.injected = 0 && c.Faults.media = 0 && c.Faults.scrub_migrations = 0
      then Untriggered
      else if !errno <> None then Errno_surfaced
      else if c.Faults.retried > 0 then Retried
      else Masked
    in
    {
      outcome;
      violations = !violations;
      errno = !errno;
      tcounts = snapshot_counts c;
    }
end

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
      (Runner.run_trial s p ~points:ps).Runner.violations <> [])

(* ------------------------------------------------------------------ *)
(* Campaign driver                                                      *)
(* ------------------------------------------------------------------ *)

type violation = {
  v_stack : string;
  v_points : fault_point list;
  v_file : int;  (** -1 when not file-specific *)
  v_reason : string;
  v_errno : (Fsapi.Errno.t * string) option;
  v_shrunk : fault_point list;
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
    Fmt.(list ~sep:semi pp_fault_point)
    v.v_points
    Fmt.(list ~sep:semi pp_fault_point)
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
    staging, {!Runner.start}) and its trials, each a fault set and
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
  let starts = [| Runner.start spec p; Runner.start ~tiny:true spec p |] in
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
    List.iter m.Trial.step p.Trial.ops;
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
                (fun d -> [ Resource (Faults.rfault site ~from d) ])
                durations)
            idxs)
      Faults.all_sites
  in
  let poison_points = List.map (fun a -> [ Poison a ]) poison_candidates in
  let scrub_points =
    [ [ Scrub_wear 1 ] ]
    @
    match poison_candidates with
    | a :: _ -> [ [ Poison a; Scrub_wear max_int ] ]
    | [] -> []
  in
  let combo =
    (* one multi-fault trial keeps the shrinker honest *)
    let rs =
      List.filter_map
        (fun site ->
          if calls site > 0 then
            Some (Resource (Faults.rfault site ~from:0 (Faults.Transient 1)))
          else None)
        Faults.all_sites
    in
    let ps = match poison_candidates with a :: _ -> [ Poison a ] | [] -> [] in
    match rs @ ps with [] -> [] | l -> [ l ]
  in
  let degraded_points =
    match Fs_config.mode spec with
    | Some _ ->
        [
          [
            Resource
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
      (fun _ (points, tiny) -> Runner.run_trial (start tiny) p ~points)
      trials
  in
  let totals = Faults.counts (Faults.create ()) in
  let tallies = [| 0; 0; 0; 0 |] in
  let violations = ref [] in
  List.iter2
    (fun (points, tiny) (t : Runner.trial) ->
      add_counts totals t.Runner.tcounts;
      (match t.Runner.outcome with
      | Runner.Untriggered -> tallies.(0) <- tallies.(0) + 1
      | Runner.Masked -> tallies.(1) <- tallies.(1) + 1
      | Runner.Retried -> tallies.(2) <- tallies.(2) + 1
      | Runner.Errno_surfaced -> tallies.(3) <- tallies.(3) + 1);
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
              v_errno = t.Runner.errno;
              v_shrunk = shrunk;
            }
            :: !violations)
        t.Runner.violations)
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
    Runner.run_trial
      (Runner.start ~tiny:true ~checks Fs_config.Splitfs_sync p)
      p
      ~points:
        [
          Resource
            (Faults.rfault ~origin:Faults.Staging_prealloc Faults.Alloc ~from:0
               Faults.Sticky);
        ]
  in
  t.Runner.violations <> []
