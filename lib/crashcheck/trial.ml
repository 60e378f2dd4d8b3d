(** The crash kernel every campaign runs (DESIGN.md §5d): one program
    type, one {!setup}, one {!apply}, one set-up per program ({!start})
    that every run clones ({!mount}), one crash-point {!profile} pass,
    one lockstep crash trial ({!run}) and one explorer ({!explore}) from
    crash points to a {!report} of {!violation}s. Crashcheck (one client
    or two), the litmus corpus and its fence minimizer compile their
    workloads to a {!program} and differ only in the stack they build,
    the contract they hold it to and their sample budget; faultcheck
    runs the same program on a clone under a fault plan instead of a
    crash, and judges it against {!oracle} worlds. *)

module Fs_config = Stacks.Fs_config

(** A crashcheck data op ([file] names one of the issuing client's
    slots), or one of the namespace ops the litmus corpus adds. *)
type op =
  | Op of Workload.op
  | Create of { slot : int; path : string }
  | Truncate of { slot : int; size : int }
  | Rename of { src : string; dst : string }
  | Unlink of { path : string }
  | Snapshot of { src : string; dst : string }
      (** native extent-map clone on SplitFS (publish + reflink, one
          journal transaction); fsync-src + read + write + fsync-dst
          copy fallback on the kernel stacks and the oracle *)

(** A file [client] creates, fills with [len] bytes of payload [seed]
    and fsyncs before the crash window opens. *)
type file = { client : int; path : string; len : int; seed : int }

type program = {
  initial : file list;  (** each client's files fill its slots 0..n-1 *)
  paths : string array;  (** checked after recovery, in this order *)
  ops : (int * op) list;  (** (issuing client, op) *)
  claim : Check.contract -> (string -> Bytes.t option) -> string option;
      (** safety property over the recovered paths, [None] = holds *)
}

let no_claim _ _ = None
let file_path i = Printf.sprintf "/f%d" i

(** A crashcheck workload as a one-client program over /f0, /f1, ... *)
let of_workload (w : Workload.t) =
  {
    initial =
      List.init w.Workload.nfiles (fun i ->
          {
            client = 0;
            path = file_path i;
            len = w.Workload.initial.(i);
            seed = 1000 + i;
          });
    paths = Array.init w.Workload.nfiles file_path;
    ops = List.map (fun op -> (0, Op op)) w.Workload.ops;
    claim = no_claim;
  }

let nclients p =
  List.fold_left
    (fun n (c, _) -> max n (c + 1))
    (List.fold_left (fun n f -> max n (f.client + 1)) 1 p.initial)
    p.ops

(* ------------------------------------------------------------------ *)
(* Setup and apply                                                      *)
(* ------------------------------------------------------------------ *)

(** Grow-on-demand payload scratch: one buffer per trial replaces a
    [Bytes] allocation per written op. Safe to share between the stack
    and the oracle because every [pwrite] in the simulation copies out
    of the caller's buffer. *)
let payload scratch ~seed len =
  if Bytes.length !scratch < len then
    scratch := Bytes.create (max len (2 * Bytes.length !scratch));
  Workload.payload_into ~seed !scratch ~len;
  !scratch

(** Each client's slot count: its initial files, and every slot its ops
    name. *)
let slot_counts p =
  let n = Array.make (nclients p) 0 in
  List.iter (fun f -> n.(f.client) <- n.(f.client) + 1) p.initial;
  List.iter
    (fun (c, op) ->
      match op with
      | Op (Workload.Write { file = s; _ } | Workload.Fsync { file = s })
      | Create { slot = s; _ }
      | Truncate { slot = s; _ } ->
          n.(c) <- max n.(c) (s + 1)
      | Op Workload.Checkpoint | Rename _ | Unlink _ | Snapshot _ -> ())
    p.ops;
  n

(** Create the initial files, client [c]'s through [fs.(c)], and fsync
    them: the crash window opens on a fully durable state. Returns each
    client's slot table; a slot a [Create] fills later holds [-1] until
    then. *)
let setup ~scratch (fs : Fsapi.Fs.t array) p =
  let slots = Array.map (fun n -> Array.make n (-1)) (slot_counts p) in
  let filled = Array.make (Array.length slots) 0 in
  List.iter
    (fun f ->
      let fs = fs.(f.client) and len = f.len in
      let fd = fs.Fsapi.Fs.open_ f.path Fsapi.Flags.create_rw in
      let buf = payload scratch ~seed:f.seed len in
      (* On the fams stack a whole-file write can overflow faultcheck's
         tiny staging pool, and fams (correctly) answers ENOSPC rather
         than degrading to an in-place write. Initial content is
         harness setup, not part of the trial: feed it in staging-sized
         bites with a publish in between. Faults are not armed yet, so
         no other stack can fail here. *)
      (try ignore (fs.Fsapi.Fs.pwrite fd ~buf ~boff:0 ~len ~at:0)
       with Fsapi.Errno.Error (Fsapi.Errno.ENOSPC, _) ->
         let pos = ref 0 in
         while !pos < len do
           let n = min 1024 (len - !pos) in
           ignore (fs.Fsapi.Fs.pwrite fd ~buf ~boff:!pos ~len:n ~at:!pos);
           fs.Fsapi.Fs.fsync fd;
           pos := !pos + n
         done);
      fs.Fsapi.Fs.fsync fd;
      slots.(f.client).(filled.(f.client)) <- fd;
      filled.(f.client) <- filled.(f.client) + 1)
    p.initial;
  slots

(** Run [op] on [fs] with [slots] the issuing client's slot table.
    [checkpoint] and [snapshot] are what those ops mean on this side:
    see {!on_stack} and the oracle in {!run}. *)
let apply ~scratch ~checkpoint ~snapshot (fs : Fsapi.Fs.t) slots = function
  | Op (Workload.Write { file; at; len; seed }) ->
      let buf = payload scratch ~seed len in
      if fs.Fsapi.Fs.pwrite slots.(file) ~buf ~boff:0 ~len ~at <> len then
        Fsapi.Errno.(error EINVAL "short write")
  | Op (Workload.Fsync { file }) -> fs.Fsapi.Fs.fsync slots.(file)
  | Op Workload.Checkpoint -> checkpoint ()
  | Create { slot; path } ->
      slots.(slot) <- fs.Fsapi.Fs.open_ path Fsapi.Flags.create_rw
  | Truncate { slot; size } -> fs.Fsapi.Fs.ftruncate slots.(slot) size
  | Rename { src; dst } -> fs.Fsapi.Fs.rename src dst
  | Unlink { path } -> fs.Fsapi.Fs.unlink path
  | Snapshot { src; dst } -> snapshot src dst

(** Fallback snapshot for stacks without the native extent-map clone
    (and for the oracle): fsync the source first — the native snapshot
    publishes staged data before cloning — then copy its content into
    [dst] and fsync that. *)
let copy_snapshot (fs : Fsapi.Fs.t) src dst =
  let sfd = fs.Fsapi.Fs.open_ src Fsapi.Flags.rdonly in
  let dfd = fs.Fsapi.Fs.open_ dst Fsapi.Flags.create_rw in
  Fun.protect
    ~finally:(fun () ->
      fs.Fsapi.Fs.close dfd;
      fs.Fsapi.Fs.close sfd)
    (fun () ->
      fs.Fsapi.Fs.fsync sfd;
      let size = (fs.Fsapi.Fs.stat src).Fsapi.Fs.st_size in
      let buf = Bytes.create size in
      let got =
        if size = 0 then 0 else fs.Fsapi.Fs.pread sfd ~buf ~boff:0 ~len:size ~at:0
      in
      fs.Fsapi.Fs.ftruncate dfd 0;
      if got > 0 then ignore (fs.Fsapi.Fs.pwrite dfd ~buf ~boff:0 ~len:got ~at:0);
      fs.Fsapi.Fs.fsync dfd)

(** {!apply} on a stack: checkpoint relinks on SplitFS and does nothing
    elsewhere; snapshot is SplitFS's native clone or the copy
    fallback. *)
let on_stack ~scratch (st : Fs_config.stack) =
  let snapshot =
    match st.usplit with
    | Some u -> Splitfs.Usplit.snapshot u
    | None -> copy_snapshot st.fs
  in
  apply ~scratch ~checkpoint:(fun () -> Fs_config.checkpoint st) ~snapshot st.fs

(** Each client's slot table for [p], a copy of [slots] with every
    slot [p] names beyond them empty ([-1]). *)
let slots_for p slots =
  Array.mapi
    (fun c n ->
      let s = slots.(c) in
      Array.init (max n (Array.length s)) (fun i ->
          if i < Array.length s then s.(i) else -1))
    (slot_counts p)

(** A {!Fsapi.Ref_fs} with the program's files {!setup} for each
    client: what {!oracle} clones. *)
type oracle_start = { o_fs : Fsapi.Ref_fs.t; o_slots : Fsapi.Fs.fd array array }

let oracle_start ~scratch p =
  let o_fs = Fsapi.Ref_fs.create () in
  let ofs = Fsapi.Ref_fs.oracle_fs o_fs in
  { o_fs; o_slots = setup ~scratch (Array.make (nclients p) ofs) p }

(** The oracle every campaign judges by: a clone of [o], and a step that
    runs one client's op of [p] on it, where a checkpoint fsyncs the
    issuing client's files and a snapshot copies. Returns the oracle's
    views and the step. *)
let oracle ~scratch o p =
  let o_fs = Fsapi.Ref_fs.clone o.o_fs in
  let ofs = Fsapi.Ref_fs.oracle_fs o_fs in
  let run =
    Array.map
      (fun slots ->
        let checkpoint () =
          Array.iter (fun fd -> if fd >= 0 then ofs.Fsapi.Fs.fsync fd) slots
        in
        apply ~scratch ~checkpoint ~snapshot:(copy_snapshot ofs) ofs slots)
      (slots_for p o.o_slots)
  in
  (Fsapi.Ref_fs.views o_fs, fun (c, op) -> run.(c) op)

(* ------------------------------------------------------------------ *)
(* A program's start, and the stacks cloned from it                     *)
(* ------------------------------------------------------------------ *)

(** What every crash state of a program shares, set up once (DESIGN.md
    §5d): the stack [build] made, one more U-Split instance with its own
    kernel fd table per further client, each client's scheduler actor
    when there are several, the initial files set up and fsynced through
    them, and the oracle with the same files. A start is a function of
    the build and the initial files, not of the ops. It is never run:
    every trial runs on a clone of it ({!mount}), so one start serves
    any number of trials, on any domain, read-only. *)
type start = {
  s_initial : file list;
  s_clients : Fs_config.stack array;  (** client 0 is the built stack *)
  s_actors : int array;  (** each client's actor id; empty for one client *)
  s_slots : Fsapi.Fs.fd array array;  (** per client, from {!setup} *)
  s_oracle : oracle_start;
}

(** Build a stack with [build], mount [p]'s further clients on it and
    {!setup} its files, and set up the oracle. *)
let start ~build p =
  let scratch = ref Bytes.empty in
  let stack = build () in
  let env = stack.Fs_config.env in
  let clients =
    Array.init (nclients p) (fun c ->
        if c = 0 then stack
        else
          let sys0 = Option.get stack.sys and u0 = Option.get stack.usplit in
          let sys = Kernelfs.Syscall.make (Kernelfs.Syscall.kernel sys0) in
          let u =
            Splitfs.Usplit.mount ~cfg:(Splitfs.Usplit.config u0) ~sys ~env
              ~instance:c ()
          in
          {
            stack with
            fs = Splitfs.Usplit.as_fsapi u;
            sys = Some sys;
            usplit = Some u;
          })
  in
  let actors =
    if Array.length clients = 1 then [||]
    else
      Array.init (Array.length clients) (fun c ->
          (Pmem.Env.new_actor env ~name:(Printf.sprintf "client%d" c))
            .Pmem.Simclock.aid)
  in
  let slots =
    setup ~scratch (Array.map (fun (c : Fs_config.stack) -> c.fs) clients) p
  in
  {
    s_initial = p.initial;
    s_clients = clients;
    s_actors = actors;
    s_slots = slots;
    s_oracle = oracle_start ~scratch p;
  }

type mounted = {
  stack : Fs_config.stack;
  clients : Fs_config.stack array;
      (** client 0 is [stack]; every further client is another U-Split
          instance, with its own kernel fd table, over the same kernel
          and device *)
  slots : Fsapi.Fs.fd array array;  (** per client, from {!setup} *)
  step : int * op -> unit;  (** run one client's op *)
}

(** [clients], [s]'s own or a clone of them, with [p]'s ops stepped on
    them, each client's on its own scheduler actor ([s.s_actors]) when
    there are several. *)
let mounted ~scratch s clients p =
  let run = Array.map (on_stack ~scratch) clients in
  let env = clients.(0).Fs_config.env in
  let on_actor =
    if Array.length s.s_actors = 0 then fun _ f -> f ()
    else
      let actors =
        Array.map (Pmem.Simclock.actor env.Pmem.Env.clock) s.s_actors
      in
      fun c f -> Pmem.Env.run_as env actors.(c) f
  in
  let slots = slots_for p s.s_slots in
  let step (c, op) = on_actor c (fun () -> run.(c) slots.(c) op) in
  { stack = clients.(0); clients; slots; step }

(** A trial's stack: a clone of [s]'s clients ({!Fs_config.clone}, with
    the checks [s] was built with) and [p]'s ops stepped on it. [s] must
    have been set up with [p]'s initial files and clients. *)
let mount ~scratch s p =
  if s.s_initial <> p.initial || Array.length s.s_clients <> nclients p then
    invalid_arg "Trial.mount: the start has other initial files or clients";
  mounted ~scratch s (Fs_config.clone s.s_clients) p

(** Run the program once to completion, on a clone of [s], with the
    persist-order journal on. Returns every crash point and each
    registered fence site's hit count before and after the crash window;
    hit counters are per-device, so the stack's mount and setup traffic
    is the baseline. *)
let profile s p =
  let m = mount ~scratch:(ref Bytes.empty) s p in
  let dev = m.stack.env.Pmem.Env.dev in
  let hits () =
    List.map
      (fun (i, _) -> Pmem.Device.site_hits dev i)
      (Pmem.Device.fence_sites ())
  in
  let before = hits () in
  let points = Explore.points dev (fun () -> List.iter m.step p.ops) in
  (points, before, hits ())

(* ------------------------------------------------------------------ *)
(* The lockstep crash trial                                             *)
(* ------------------------------------------------------------------ *)

(** [replay dev ~point ~survivors ~real ~oracle ~snap ops] arms the
    crash at [point] with [survivors], steps [real] and [oracle]
    through [ops] in lockstep, and captures the oracle views [snap]
    around the operation in flight when the crash fires. If the armed
    fence lies past the trace, the crash lands at its end and the pre
    and post views coincide. The device is crashed and resumed on
    return, ready for recovery. Returns the index of the op in flight
    ([None] at the end of the trace) and the pre and post views. *)
let replay dev ~(point : Explore.point) ~survivors ~real ~oracle ~snap ops =
  Pmem.Device.journal_begin dev;
  Pmem.Device.arm_crash dev ~fence:point.Explore.fence ~survivors;
  let rec go k = function
    | [] ->
        let views = snap () in
        Pmem.Device.crash_partial dev ~survivors;
        (None, views, views)
    | op :: rest -> (
        match real op with
        | () ->
            oracle op;
            go (k + 1) rest
        | exception Pmem.Device.Crashed ->
            let pre = snap () in
            oracle op;
            (Some k, pre, snap ()))
  in
  let r = go 0 ops in
  Pmem.Device.resume dev;
  Pmem.Device.journal_stop dev;
  r

(** Post-recovery content of [path] as [fs] serves it; [None] = the
    path no longer exists. *)
let read_back (fs : Fsapi.Fs.t) path =
  match fs.Fsapi.Fs.stat path with
  | exception Fsapi.Errno.Error (Fsapi.Errno.ENOENT, _) -> None
  | st ->
      let size = st.Fsapi.Fs.st_size in
      let fd = fs.Fsapi.Fs.open_ path Fsapi.Flags.rdonly in
      Fun.protect
        ~finally:(fun () -> fs.Fsapi.Fs.close fd)
        (fun () ->
          let buf = Bytes.create size in
          let got =
            if size = 0 then 0
            else fs.Fsapi.Fs.pread fd ~buf ~boff:0 ~len:size ~at:0
          in
          Some (Bytes.sub buf 0 got))

type trial = {
  crashed_at : int option;
      (** index of the op in flight, [None] = end of trace *)
  violations : (int * string) list;
      (** (index into [paths], reason) in path order; [-1] = the claim *)
  recovered : Bytes.t option array;  (** per path; [None] = gone *)
  recovery : Splitfs.Recovery.report option array;
      (** per client; [None] on a stack without U-Split *)
}

(** One crash state on [m], {!mount}ed for [p]: {!replay} against the
    oracle [views] and [ostep] ({!oracle}), recovery of every U-Split
    instance, read-back through the kernel below them (their DRAM state
    died with the process), and {!Check.check_file} under [contract] per
    path plus the program's claim. Injected faults are cleared before
    recovery: they model a full device at run time, not a broken one at
    recovery time. The caller owns [m] and releases it. *)
let run_on ~contract m (views, ostep) p ~point ~survivors =
  let env = m.stack.env in
  let crashed_at, pre, post =
    replay env.Pmem.Env.dev ~point ~survivors ~real:m.step ~oracle:ostep
      ~snap:(fun () -> Array.map (View.of_oracle views) p.paths)
      p.ops
  in
  Faults.reset env.Pmem.Env.faults;
  let recovery =
    Array.mapi
      (fun c (cl : Fs_config.stack) ->
        match (cl.usplit, cl.sys) with
        | Some _, Some sys ->
            Some (Splitfs.Recovery.recover ~sys ~env ~instance:c)
        | _ -> None)
      m.clients
  in
  let rfs =
    match (m.stack.usplit, m.stack.sys) with
    | Some _, Some sys -> Kernelfs.Syscall.as_fsapi sys
    | _ -> m.stack.fs
  in
  let recovered = Array.map (read_back rfs) p.paths in
  let claim =
    p.claim contract (fun path ->
        Option.bind (Array.find_index (String.equal path) p.paths) (fun i ->
            recovered.(i)))
  in
  let violations = ref (Option.to_list (Option.map (fun r -> (-1, r)) claim)) in
  for i = Array.length p.paths - 1 downto 0 do
    match
      Check.check_file contract ~pre:pre.(i) ~post:post.(i) recovered.(i)
    with
    | Some reason -> violations := (i, reason) :: !violations
    | None -> ()
  done;
  { crashed_at; violations = !violations; recovered; recovery }

(** The start's own clients, with [p]'s ops stepped on them as {!mount}
    steps them on a clone: what every clone must equal, a freshly built
    stack. [s] is used up (test hook). *)
let consume ~scratch s p = mounted ~scratch s s.s_clients p

(** One crash state end to end ({!run_on}) on a clone of [s] ({!mount})
    against a clone of its oracle. The trial owns its clone, so it
    releases the device once it has checked ({!Pmem.Device.release}): the
    next trial on this domain writes into the image chunks the clone
    owned, and [s]'s stay as they were. *)
let run ~contract s p ~point ~survivors =
  let scratch = ref Bytes.empty in
  let m = mount ~scratch s p in
  let t =
    run_on ~contract m (oracle ~scratch s.s_oracle p) p ~point ~survivors
  in
  Pmem.Device.release m.stack.env.Pmem.Env.dev;
  t

(* ------------------------------------------------------------------ *)
(* Exploring a program's crash states                                   *)
(* ------------------------------------------------------------------ *)

(** One failed check in one crash state. *)
type violation = {
  v_fence : int;  (** crash point (fence index) *)
  v_op : int option;  (** op in flight, [None] = end of trace *)
  v_path : string option;  (** [None] = the program's claim *)
  v_reason : string;
  v_survivors : Pmem.Device.survivor list;
      (** the crash state's survivor vector; for a report's first
          violation, its minimal deviating subset *)
}

type report = {
  r_points : int;  (** crash points: fences + end of trace *)
  r_states : int;  (** legal crash states, line-granular *)
  r_explored : int;  (** trials run *)
  r_exhaustive : bool;  (** every legal state was run *)
  r_violations : violation list;  (** in trial order *)
}

(** [explore ?samples ?seed ?jobs ~contract s p points] runs
    crash states of [p] at [points] (from {!profile}) through {!run}, on
    clones of [s], made on the calling domain and read by every domain
    the trials run on: every state when they number at most [samples]
    (default: no limit), else [samples] seeded draws. A crash state is
    its index [i]: the [i]th of {!Explore.nth}'s walk over the points in
    order, or draw [i] of {!Explore.sample_point_indexed} at [seed]. A
    trial keeps only its op in flight and violations; a violation's
    survivor vector is decoded from its index again. The first violation
    in trial order is shrunk ({!Shrink.survivors}, 100 re-runs at
    most).

    Trials fan over the {!Par} domain pool and come back in trial order,
    so the report, and which violation gets shrunk, is byte-identical at
    any job count (DESIGN.md §5j). *)
let explore ?samples ?(seed = 0) ?jobs ~contract s p points =
  let points = Array.of_list points in
  let counts =
    Array.map
      (fun (pt : Explore.point) -> Explore.state_count pt.Explore.pending)
      points
  in
  let states = Array.fold_left ( + ) 0 counts in
  let exhaustive = match samples with Some n -> states <= n | None -> true in
  let explored = if exhaustive then states else Option.get samples in
  let state i =
    if exhaustive then
      let rec find k i =
        if i < counts.(k) then
          (points.(k), Explore.nth points.(k).Explore.pending i)
        else find (k + 1) (i - counts.(k))
      in
      find 0 i
    else Explore.sample_point_indexed ~seed ~index:i points
  in
  let trial (point, survivors) = run ~contract s p ~point ~survivors in
  let outcomes =
    Par.map ?jobs
      (fun _ i ->
        let t = trial (state i) in
        (t.crashed_at, t.violations))
      (List.init explored Fun.id)
  in
  let violations = ref [] in
  List.iteri
    (fun i (op, vs) ->
      if vs <> [] then begin
        let point, svs = state i in
        List.iter
          (fun (k, reason) ->
            let survivors =
              if !violations <> [] then svs
              else
                Shrink.survivors ~budget:100 point svs ~violates:(fun svs ->
                    (trial (point, svs)).violations <> [])
            in
            violations :=
              {
                v_fence = point.Explore.fence;
                v_op = op;
                v_path = (if k < 0 then None else Some p.paths.(k));
                v_reason = reason;
                v_survivors = survivors;
              }
              :: !violations)
          vs
      end)
    outcomes;
  {
    r_points = Array.length points;
    r_states = states;
    r_explored = explored;
    r_exhaustive = exhaustive;
    r_violations = List.rev !violations;
  }

let pp_survivor ppf (s : Pmem.Device.survivor) =
  if s.s_tear <> 0 then
    Fmt.pf ppf "line %d keep %d tear %#x" s.s_line s.s_keep s.s_tear
  else Fmt.pf ppf "line %d keep %d" s.s_line s.s_keep

let pp_violation ppf v =
  Fmt.pf ppf "@[<v2>fence %d%a, %s: %s@,survivors: @[%a@]@]" v.v_fence
    (fun ppf -> function
      | Some k -> Fmt.pf ppf " (op %d in flight)" k
      | None -> ())
    v.v_op
    (Option.value v.v_path ~default:"claim")
    v.v_reason
    Fmt.(list ~sep:semi pp_survivor)
    v.v_survivors
