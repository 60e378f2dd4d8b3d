(** The lockstep crash trial every crash campaign runs (DESIGN.md §5d):
    replay a workload against the stack under test and the
    {!Fsapi.Ref_fs} oracle with a crash armed, then read the recovered
    files back. {!Crashcheck.Runner}, {!Crashcheck.Concurrent} and
    {!Litmus} differ only in their op language, their stacks and what
    they check. *)

(** [replay ?dedup dev ~point ~survivors ~real ~oracle ~snap ops] arms
    the crash at [point] with [survivors], steps [real] and [oracle]
    through [ops] in lockstep, and captures the oracle views [snap]
    around the operation in flight when the crash fires. If the armed
    fence lies past the trace, the crash lands at its end and the pre
    and post views coincide. The device is crashed and resumed on
    return, ready for recovery. Returns the index of the op in flight
    ([None] at the end of the trace) and the pre and post views. *)
let replay ?dedup dev ~(point : Explore.point) ~survivors ~real ~oracle ~snap
    ops =
  Pmem.Device.journal_begin ?dedup dev;
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
