(** The trial kernel every campaign runs (DESIGN.md §5d): one program
    type, one {!setup}, one {!apply}, one set-up per program ({!start})
    that every run clones ({!mount}), one crash-point {!profile} pass,
    one lockstep trial ({!run}), crashed or live under a fault plan, and
    one explorer ({!explore}) from crash points to a {!report} of
    {!violation}s. Crashcheck (one client or two), the litmus corpus,
    its fence minimizer and faultcheck compile their workloads to a
    {!program} and differ only in the stack they build, the contract
    they hold it to, the faults they inject and their budget. *)

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

(* ------------------------------------------------------------------ *)
(* The one trial                                                        *)
(* ------------------------------------------------------------------ *)

(** One fault of a trial's plan, injected before its first op. *)
type fault =
  | Resource of Faults.rfault
  | Poison of int  (** poison the cache line at this device address *)
  | Scrub_wear of int
      (** a scrubber patrol with this wear limit before the middle op *)

let pp_fault ppf = function
  | Resource rf -> Faults.pp_rfault ppf rf
  | Poison addr -> Fmt.pf ppf "poison @0x%x" addr
  | Scrub_wear limit -> Fmt.pf ppf "scrub patrol (wear limit %d)" limit

(** What became of one op of a trial. *)
type ack =
  | Acked
  | Failed  (** raised EIO or ENOSPC: it may or may not have landed *)
  | Broken  (** raised anything else: a violation of its own *)

(** What a trial's steps left: each op's {!ack}, the op in flight when
    the crash fired, the last EIO or ENOSPC, and each broken step's
    reason, newest first. *)
type steps = {
  acks : ack array;
  mutable crashed_at : int option;
  mutable errno : (Fsapi.Errno.t * string) option;
  mutable broken : string list;
}

(** The one guard: what it makes of [e], raised by step [k] of [g]'s
    trial. An EIO or ENOSPC is an honest outcome, any other errno or
    exception a violation, named only then. *)
let guard g k e =
  match e with
  | Fsapi.Errno.Error (((Fsapi.Errno.EIO | ENOSPC) as err), ctx) ->
      g.errno <- Some (err, ctx);
      Failed
  | e ->
      let nops = Array.length g.acks in
      let step =
        if k < nops then Printf.sprintf "op %d" k
        else Printf.sprintf "settle f%d" (k - nops)
      in
      g.broken <-
        (match e with
        | Fsapi.Errno.Error (err, ctx) ->
            Fmt.str "%s: unexpected errno %a" step Fsapi.Errno.pp (err, ctx)
        | e -> Fmt.str "%s: escaped exception %s" step (Printexc.to_string e))
        :: g.broken;
      Broken

(** A crash trial's crash: the contract it is judged under, the point
    whose fence it arms and the survivor vector. *)
type crash = {
  contract : Check.contract;
  point : Explore.point;
  survivors : Pmem.Device.survivor list;
}

(** [drive m ostep p ~faults ~crash] injects [faults] into [m], arms
    [crash] if any, and steps [p]'s ops on [m], each under the one
    {!guard}, while the oracle step [ostep] takes each acknowledged op
    in lockstep. A crash ends the steps at the op in flight, which the
    oracle has not taken; an armed fence past the trace crashes at its
    end, and a crashed device is resumed, ready for recovery. *)
let drive m ostep p ~faults ~crash =
  let env = m.stack.env in
  let dev = env.Pmem.Env.dev and plane = env.Pmem.Env.faults in
  if faults <> [] then Faults.arm plane;
  List.iter
    (function
      | Resource rf -> Faults.inject plane rf
      | Poison addr -> Pmem.Device.poison_line dev ~addr
      | Scrub_wear _ -> ())
    faults;
  Option.iter
    (fun c ->
      Pmem.Device.journal_begin dev;
      Pmem.Device.arm_crash dev ~fence:c.point.Explore.fence
        ~survivors:c.survivors)
    crash;
  let n = List.length p.ops in
  let g =
    { acks = Array.make n Acked; crashed_at = None; errno = None; broken = [] }
  in
  let scrub = function
    | Scrub_wear wear_limit -> (
        match m.stack.usplit with
        | Some u -> ignore (Splitfs.Usplit.scrub u ~wear_limit)
        | None ->
            let kfs = Kernelfs.Syscall.kernel (Option.get m.stack.sys) in
            ignore (Kernelfs.Ext4.scrub kfs ~wear_limit))
    | Resource _ | Poison _ -> ()
  in
  let rec go k = function
    | [] -> ()
    | op :: rest -> (
        if k = n / 2 then List.iter scrub faults;
        match m.step op with
        | () ->
            ostep op;
            go (k + 1) rest
        | exception Pmem.Device.Crashed -> g.crashed_at <- Some k
        | exception e ->
            g.acks.(k) <- guard g k e;
            go (k + 1) rest)
  in
  go 0 p.ops;
  Option.iter
    (fun c ->
      if g.crashed_at = None then
        Pmem.Device.crash_partial dev ~survivors:c.survivors;
      Pmem.Device.resume dev;
      Pmem.Device.journal_stop dev)
    crash;
  g

(** Run the program once to completion, on a clone of [s], with the
    persist-order journal on. Returns every crash point and each
    registered fence site's hit count before and after the crash window;
    hit counters are per-device, so the stack's mount and setup traffic
    is the baseline. The ops run under the one guard, so a broken op is
    left for the trials to report. *)
let profile s p =
  let m = mount ~scratch:(ref Bytes.empty) s p in
  let dev = m.stack.env.Pmem.Env.dev in
  let hits () =
    List.map
      (fun (i, _) -> Pmem.Device.site_hits dev i)
      (Pmem.Device.fence_sites ())
  in
  let before = hits () in
  let points =
    Explore.points dev (fun () ->
        ignore (drive m ignore p ~faults:[] ~crash:None))
  in
  (points, before, hits ())

(** [fd]'s content as [fs] serves it, read whole. An EIO from a
    poisoned line of [dev] quarantines the line and retries, 64 times at
    most, as an application's MCE handler would. *)
let read_fd dev (fs : Fsapi.Fs.t) fd =
  let size = (fs.Fsapi.Fs.fstat fd).Fsapi.Fs.st_size in
  let buf = Bytes.create size in
  let rec go attempt =
    match fs.Fsapi.Fs.pread fd ~buf ~boff:0 ~len:size ~at:0 with
    | n -> Bytes.sub buf 0 n
    | exception Fsapi.Errno.Error (Fsapi.Errno.EIO, _)
      when attempt < 64 && Pmem.Device.last_poison dev >= 0 ->
        Pmem.Device.quarantine dev ~addr:(Pmem.Device.last_poison dev) ~len:1;
        go (attempt + 1)
  in
  go 0

(** Post-recovery content of [path] as [fs] serves it ({!read_fd});
    [None] = the path no longer exists. *)
let read_back dev (fs : Fsapi.Fs.t) path =
  match fs.Fsapi.Fs.open_ path Fsapi.Flags.rdonly with
  | exception Fsapi.Errno.Error (Fsapi.Errno.ENOENT, _) -> None
  | fd ->
      Fun.protect
        ~finally:(fun () -> fs.Fsapi.Fs.close fd)
        (fun () -> Some (read_fd dev fs fd))

(** Judge a live read-back [got] of one path with {!Check.check_size}
    and {!Check.check_bytes} across its worlds: [head], its content with
    every acknowledged op applied, and [failed], one world per failed op
    with that op applied too, forced only when [got] is not [head]. That
    is exact per byte, partial application included: a byte's final
    value comes from its last writer among the acknowledged ops and
    whichever failed ops landed, and that value is in that writer's
    world. A zero on a line [quarantined] (by file offset) is media loss
    surfaced honestly, the one fault relaxation: it enters as one more
    world, of [got]'s size with those lines zeroed. *)
let judge ~head ~failed ~quarantined got =
  if Bytes.equal got head then None
  else
    let views = head :: Lazy.force failed in
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

type trial = {
  crashed_at : int option;
      (** index of the op in flight, [None] = end of trace or no crash *)
  violations : (int * string) list;
      (** (index into [paths], reason): broken steps in order, the claim,
          then the paths in order; [-1] = not a path, the reason names
          it *)
  recovered : Bytes.t option array;  (** per path; [None] = gone *)
  recovery : Splitfs.Recovery.report option array;
      (** per client; [None] without U-Split or without a crash *)
  errno : (Fsapi.Errno.t * string) option;  (** the guard's last *)
  faults : Faults.counts;  (** the fault plane's, at the end *)
}

(** The oracle's views of [p]'s paths before and after the op in flight
    when [g]'s crash fired (equal at the end of the trace): the oracle
    [(views, ostep)] takes the op in flight in between. *)
let crash_views (g : steps) (views, ostep) p =
  let snap () = Array.map (View.of_oracle views) p.paths in
  let pre = snap () in
  match g.crashed_at with
  | None -> (pre, pre)
  | Some k ->
      ostep (List.nth p.ops k);
      (pre, snap ())

(** A crashed trial's end: clear the injected faults (they model a full
    device at run time, not a broken one at recovery time), recover
    every U-Split instance, read each path back through the kernel below
    them (their DRAM state died with the process) and judge it with
    {!Check.check_file} under the crash's contract, plus the claim. *)
let crashed m p g oc c =
  let pre, post = crash_views g oc p in
  let env = m.stack.env in
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
  let recovered = Array.map (read_back env.Pmem.Env.dev rfs) p.paths in
  let claim =
    p.claim c.contract (fun path ->
        Option.bind (Array.find_index (String.equal path) p.paths) (fun i ->
            recovered.(i)))
  in
  let violations =
    ref (Option.to_list (Option.map (fun r -> (-1, "claim: " ^ r)) claim))
  in
  for i = Array.length p.paths - 1 downto 0 do
    match
      Check.check_file c.contract ~pre:pre.(i) ~post:post.(i) recovered.(i)
    with
    | Some reason -> violations := (i, reason) :: !violations
    | None -> ()
  done;
  (!violations, recovered, recovery)

(** A live trial's end: an fsync of each of client 0's files under the
    guard, then path [i] read back through client 0's slot [i], the
    descriptor the program holds (a reopen would close it, and U-Split's
    close relinks), and {!judge}d. The lockstep oracle's [views] are the
    head world; each failed op's world is a clone of [o]. *)
let live ~scratch m o p (g : steps) views =
  let st = m.stack and nops = Array.length g.acks and fds = m.slots.(0) in
  Array.iteri
    (fun i _ ->
      try m.step (0, Op (Workload.Fsync { file = i }))
      with e -> ignore (guard g (nops + i) e))
    fds;
  let contents (views : Fsapi.Ref_fs.oracle) =
    Array.map
      (fun path ->
        Option.value (views.Fsapi.Ref_fs.dump path) ~default:Bytes.empty)
      p.paths
  in
  let world k =
    let views, step = oracle ~scratch o p in
    List.iteri (fun j op -> if g.acks.(j) = Acked || j = k then step op) p.ops;
    contents views
  in
  let head = contents views in
  let failed =
    lazy
      (List.filter_map
         (fun k -> if g.acks.(k) = Failed then Some (world k) else None)
         (List.init nops Fun.id))
  in
  let dev = st.env.Pmem.Env.dev in
  let quarantined path off =
    Pmem.Device.quarantined_count dev > 0
    &&
    let kfs = Kernelfs.Syscall.kernel (Option.get st.sys) in
    match Kernelfs.Ext4.namei kfs path with
    | inode -> (
        match Kernelfs.Ext4.device_addr kfs inode ~off with
        | Some a -> Pmem.Device.is_quarantined dev ~addr:a
        | None -> false)
    | exception Fsapi.Errno.Error _ -> false
  in
  let recovered = Array.make (Array.length p.paths) None in
  let violations = ref [] in
  for i = Array.length fds - 1 downto 0 do
    let judged =
      match read_fd dev st.fs fds.(i) with
      | got ->
          recovered.(i) <- Some got;
          judge ~head:head.(i)
            ~failed:(lazy (List.map (fun w -> w.(i)) (Lazy.force failed)))
            ~quarantined:(quarantined p.paths.(i))
            got
      | exception Fsapi.Errno.Error (e, ctx) ->
          Some (Fmt.str "read-back: %a" Fsapi.Errno.pp (e, ctx))
      | exception e ->
          Some
            (Fmt.str "read-back: escaped exception %s" (Printexc.to_string e))
    in
    Option.iter (fun r -> violations := (i, r) :: !violations) judged
  done;
  (!violations, recovered, Array.map (fun _ -> None) m.clients)

(** One trial of [p] on [m], {!mount}ed for it, against a clone of
    [o], the oracle of [m]'s start: {!drive}, then the {!crashed} end
    when [crash] is given and the {!live} end otherwise. The caller owns
    [m] and releases it. *)
let run_on ~scratch m o p ~faults ~crash =
  let ((views, ostep) as oc) = oracle ~scratch o p in
  let g = drive m ostep p ~faults ~crash in
  let violations, recovered, recovery =
    match crash with
    | Some c -> crashed m p g oc c
    | None -> live ~scratch m o p g views
  in
  {
    crashed_at = g.crashed_at;
    violations = List.fold_left (fun vs r -> (-1, r) :: vs) violations g.broken;
    recovered;
    recovery;
    errno = g.errno;
    faults = Faults.counts m.stack.env.Pmem.Env.faults;
  }

(** The start's own clients, with [p]'s ops stepped on them as {!mount}
    steps them on a clone: what every clone must equal, a freshly built
    stack. [s] is used up (test hook). *)
let consume ~scratch s p = mounted ~scratch s s.s_clients p

(** One trial end to end ({!run_on}) on a clone of [s] ({!mount})
    against a clone of its oracle: a crash state when [crash] is given,
    a live run otherwise. The trial owns its clone, so it releases the
    device once it has judged ({!Pmem.Device.release}): the next trial
    on this domain writes into the image chunks the clone owned, and
    [s]'s stay as they were. *)
let run s p ~faults ~crash =
  let scratch = ref Bytes.empty in
  let m = mount ~scratch s p in
  let t = run_on ~scratch m s.s_oracle p ~faults ~crash in
  Pmem.Device.release m.stack.env.Pmem.Env.dev;
  t

(* ------------------------------------------------------------------ *)
(* Exploring a program's crash states                                   *)
(* ------------------------------------------------------------------ *)

(** One failed check in one crash state. *)
type violation = {
  v_fence : int;  (** crash point (fence index) *)
  v_op : int option;  (** op in flight, [None] = end of trace *)
  v_path : string option;
      (** [None] = not a path: the claim or a broken op, which the
          reason names *)
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
  let trial (point, survivors) =
    run s p ~faults:[] ~crash:(Some { contract; point; survivors })
  in
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
  Fmt.pf ppf "@[<v2>fence %d%a, %a%s@,survivors: @[%a@]@]" v.v_fence
    (fun ppf -> function
      | Some k -> Fmt.pf ppf " (op %d in flight)" k
      | None -> ())
    v.v_op
    Fmt.(option (fun ppf path -> Fmt.pf ppf "%s: " path))
    v.v_path v.v_reason
    Fmt.(list ~sep:semi pp_survivor)
    v.v_survivors
