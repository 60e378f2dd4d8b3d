(** System-call layer over {!Ext4}: file-descriptor table plus the cost of
    crossing into the kernel. Everything an application (or U-Split) asks of
    the kernel goes through here and pays [syscall_trap + vfs_path].

    Each operation runs under the profiler as one [kcall]: the trap charge
    is attributed to [Obs.Syscall], the in-kernel body to [Obs.Kernel]
    (more specific regions — journal, allocator, media — override from
    inside), and when tracing is enabled a span named [sys:<op>] carrying
    an strace-style detail line ([open("/x") = 3], or
    [open("/x") = ENOENT "/x"] on a failed path) is emitted. The detail
    string is only formatted when tracing is on. *)

open Pmem

type open_desc = { inode : Ext4.inode; pos : int ref; flags : Fsapi.Flags.t }

type t = {
  kfs : Ext4.t;
  fds : (int, open_desc) Hashtbl.t;
  mutable next_fd : int;
}

let make kfs = { kfs; fds = Hashtbl.create 64; next_fd = 3 }

(** A copy of [t]'s fd table over [kfs], a clone of [t]'s kernel: each
    descriptor names [kfs]'s copy of its inode, and a descriptor shared
    by dup'ed fds stays shared. The table is only looked up, so the
    copy is sized to its descriptors ({!Fsapi.Share.rebuild}). *)
let clone t ~kfs =
  let desc =
    Fsapi.Share.create (fun d ->
        {
          d with
          inode = Ext4.inode_of kfs d.inode.Ext4.ino;
          pos = ref !(d.pos);
        })
  in
  {
    kfs;
    fds = Fsapi.Share.rebuild t.fds (Fsapi.Share.get desc);
    next_fd = t.next_fd;
  }
let kernel t = t.kfs

(** The cost of one kernel crossing, charged by every system call here
    and by the in-kernel baselines (PMFS, NOVA). *)
let trap env =
  let tm = env.Env.timing in
  Env.cpu_cat env Obs.Syscall (tm.Timing.syscall_trap +. tm.Timing.vfs_path);
  env.Env.stats.Stats.syscalls <- env.Env.stats.Stats.syscalls + 1

(** [kcall t name fargs fres f] runs one system call [f] under the
    profiler. [fargs]/[fres] render the strace-style argument list and
    result; both are only invoked when tracing is enabled. *)
let kcall t name fargs fres f =
  let env = Ext4.env t.kfs in
  let obs = env.Env.obs in
  let a = Simclock.current env.Env.clock in
  let t0 = a.Simclock.a_now in
  trap env;
  match Env.with_cat env Obs.Kernel f with
  | x ->
      if Obs.tracing obs then
        Obs.emit obs ~name:("sys:" ^ name) ~cat:Obs.Syscall
          ~actor:a.Simclock.aid ~t0 ~t1:a.Simclock.a_now
          ~arg:(Printf.sprintf "%s(%s) = %s" name (fargs ()) (fres x));
      x
  | exception (Fsapi.Errno.Error (err, ctx) as exn) ->
      if Obs.tracing obs then
        Obs.emit obs ~name:("sys:" ^ name) ~cat:Obs.Syscall
          ~actor:a.Simclock.aid ~t0 ~t1:a.Simclock.a_now
          ~arg:
            (Printf.sprintf "%s(%s) = %s %S" name (fargs ())
               (Fsapi.Errno.to_string err) ctx);
      raise exn
  | exception Faults.Poisoned addr ->
      (* a machine-check on a poisoned PM line inside the kernel surfaces
         to the application as EIO, never as a raw exception *)
      let ctx =
        Printf.sprintf "%s: poisoned PM line @0x%x (media)" name addr
      in
      if Obs.tracing obs then
        Obs.emit obs ~name:("sys:" ^ name) ~cat:Obs.Syscall
          ~actor:a.Simclock.aid ~t0 ~t1:a.Simclock.a_now
          ~arg:(Printf.sprintf "%s(%s) = EIO %S" name (fargs ()) ctx);
      Fsapi.Errno.(error EIO ctx)

let ri = string_of_int
let r0 () = "0"
let rpath p () = Printf.sprintf "%S" p
let rfd fd () = ri fd
let rio fd len at () = Printf.sprintf "%d, %d, @%d" fd len at

let fd_entry t fd =
  match Hashtbl.find_opt t.fds fd with
  | Some e -> e
  | None -> Fsapi.Errno.(error EBADF (string_of_int fd))

let inode_of_fd t fd = (fd_entry t fd).inode

let install t inode flags =
  let fd = t.next_fd in
  t.next_fd <- t.next_fd + 1;
  Ext4.incref inode;
  Hashtbl.replace t.fds fd { inode; pos = ref 0; flags };
  fd

let open_ t path (flags : Fsapi.Flags.t) =
  kcall t "open" (rpath path) ri @@ fun () ->
  let inode =
    match Ext4.namei t.kfs path with
    | inode ->
        if inode.Ext4.kind = Fsapi.Fs.Directory && Fsapi.Flags.writable flags
        then Fsapi.Errno.(error EISDIR path);
        if flags.creat && flags.excl then Fsapi.Errno.(error EEXIST path);
        if flags.trunc && Fsapi.Flags.writable flags then
          Ext4.truncate t.kfs inode 0;
        inode
    | exception Fsapi.Errno.Error (Fsapi.Errno.ENOENT, _) when flags.creat ->
        Ext4.create t.kfs path
  in
  install t inode flags

let close t fd =
  kcall t "close" (rfd fd) r0 @@ fun () ->
  let e = fd_entry t fd in
  Hashtbl.remove t.fds fd;
  Ext4.decref t.kfs e.inode

let dup t fd =
  kcall t "dup" (rfd fd) ri @@ fun () ->
  let e = fd_entry t fd in
  let nfd = t.next_fd in
  t.next_fd <- t.next_fd + 1;
  Ext4.incref e.inode;
  Hashtbl.replace t.fds nfd e;
  nfd

let pwrite t fd ~buf ~boff ~len ~at =
  kcall t "pwrite" (rio fd len at) ri @@ fun () ->
  let e = fd_entry t fd in
  if not (Fsapi.Flags.writable e.flags) then Fsapi.Errno.(error EBADF "pwrite");
  Ext4.pwrite t.kfs e.inode ~off:at buf ~boff ~len

let pread t fd ~buf ~boff ~len ~at =
  kcall t "pread" (rio fd len at) ri @@ fun () ->
  let e = fd_entry t fd in
  if not (Fsapi.Flags.readable e.flags) then Fsapi.Errno.(error EBADF "pread");
  Ext4.pread t.kfs e.inode ~off:at buf ~boff ~len

let write t fd ~buf ~boff ~len =
  kcall t "write" (fun () -> Printf.sprintf "%d, %d" fd len) ri @@ fun () ->
  let e = fd_entry t fd in
  if not (Fsapi.Flags.writable e.flags) then Fsapi.Errno.(error EBADF "write");
  let at = if e.flags.append then e.inode.Ext4.size else !(e.pos) in
  let n = Ext4.pwrite t.kfs e.inode ~off:at buf ~boff ~len in
  e.pos := at + n;
  n

let read t fd ~buf ~boff ~len =
  kcall t "read" (fun () -> Printf.sprintf "%d, %d" fd len) ri @@ fun () ->
  let e = fd_entry t fd in
  if not (Fsapi.Flags.readable e.flags) then Fsapi.Errno.(error EBADF "read");
  let n = Ext4.pread t.kfs e.inode ~off:!(e.pos) buf ~boff ~len in
  e.pos := !(e.pos) + n;
  n

let lseek t fd off whence =
  kcall t "lseek" (fun () -> Printf.sprintf "%d, %d" fd off) ri @@ fun () ->
  let e = fd_entry t fd in
  let base =
    match whence with
    | Fsapi.Flags.Set -> 0
    | Fsapi.Flags.Cur -> !(e.pos)
    | Fsapi.Flags.End -> e.inode.Ext4.size
  in
  let npos = base + off in
  if npos < 0 then Fsapi.Errno.(error EINVAL "lseek");
  e.pos := npos;
  npos

let fsync t fd =
  kcall t "fsync" (rfd fd) r0 @@ fun () ->
  let e = fd_entry t fd in
  Ext4.fsync t.kfs e.inode

let ftruncate t fd size =
  kcall t "ftruncate" (fun () -> Printf.sprintf "%d, %d" fd size) r0
  @@ fun () ->
  let e = fd_entry t fd in
  Ext4.truncate t.kfs e.inode size

let fstat t fd =
  kcall t "fstat" (rfd fd) (fun _ -> "0") @@ fun () ->
  Ext4.stat_of_inode (fd_entry t fd).inode

let stat t path =
  kcall t "stat" (rpath path) (fun _ -> "0") @@ fun () -> Ext4.stat t.kfs path

let unlink t path =
  kcall t "unlink" (rpath path) r0 @@ fun () -> Ext4.unlink t.kfs path

let rename t src dst =
  kcall t "rename"
    (fun () -> Printf.sprintf "%S, %S" src dst)
    r0
  @@ fun () -> Ext4.rename t.kfs src dst

let mkdir t path =
  kcall t "mkdir" (rpath path) r0 @@ fun () -> Ext4.mkdir t.kfs path

let rmdir t path =
  kcall t "rmdir" (rpath path) r0 @@ fun () -> Ext4.rmdir t.kfs path

let readdir t path =
  kcall t "readdir" (rpath path)
    (fun l -> Printf.sprintf "[%d entries]" (List.length l))
  @@ fun () -> Ext4.readdir t.kfs path

(* --- kernel services used by U-Split (each is one trap) --- *)

let fallocate t fd ~off ~len =
  kcall t "fallocate" (rio fd len off) ri @@ fun () ->
  Ext4.fallocate t.kfs (inode_of_fd t fd) ~off ~len

(** The relink system call added by SplitFS: one trap, one transaction. *)
let relink t ~src_fd ~src_blk ~dst_fd ~dst_blk ~nblks ~dst_size =
  kcall t "relink"
    (fun () ->
      Printf.sprintf "%d+%d -> %d+%d, %d blks" src_fd src_blk dst_fd dst_blk
        nblks)
    r0
  @@ fun () ->
  Ext4.relink t.kfs
    ~src:(inode_of_fd t src_fd)
    ~src_blk
    ~dst:(inode_of_fd t dst_fd)
    ~dst_blk ~nblks ~dst_size

(** The snapshot ioctl: make [dst_fd]'s extent map a copy-on-write alias
    of [src_fd]'s in one trap, one transaction (reflink). *)
let ioctl_clone_extents t ~src_fd ~dst_fd =
  kcall t "ioctl_clone_extents"
    (fun () -> Printf.sprintf "%d -> %d" src_fd dst_fd)
    r0
  @@ fun () ->
  Ext4.clone_extents t.kfs ~src:(inode_of_fd t src_fd)
    ~dst:(inode_of_fd t dst_fd)

let dealloc_range t fd ~blk ~nblks =
  kcall t "dealloc_range"
    (fun () -> Printf.sprintf "%d, %d+%d" fd blk nblks)
    r0
  @@ fun () -> Ext4.dealloc_range t.kfs (inode_of_fd t fd) ~blk ~nblks

let set_size t fd size =
  kcall t "set_size" (fun () -> Printf.sprintf "%d, %d" fd size) r0
  @@ fun () -> Ext4.set_size t.kfs (inode_of_fd t fd) size

let mmap t fd ~off ~len =
  kcall t "mmap" (rio fd len off) (fun _ -> "0") @@ fun () ->
  Ext4.mmap t.kfs (inode_of_fd t fd) ~off ~len

(* ------------------------------------------------------------------ *)

let as_fsapi t : Fsapi.Fs.t =
  {
    Fsapi.Fs.fs_name = "ext4-dax";
    open_ = open_ t;
    close = close t;
    dup = dup t;
    pread = (fun fd ~buf ~boff ~len ~at -> pread t fd ~buf ~boff ~len ~at);
    pwrite = (fun fd ~buf ~boff ~len ~at -> pwrite t fd ~buf ~boff ~len ~at);
    read = (fun fd ~buf ~boff ~len -> read t fd ~buf ~boff ~len);
    write = (fun fd ~buf ~boff ~len -> write t fd ~buf ~boff ~len);
    lseek = lseek t;
    fsync = fsync t;
    ftruncate = ftruncate t;
    fstat = fstat t;
    stat = stat t;
    unlink = unlink t;
    rename = rename t;
    mkdir = mkdir t;
    rmdir = rmdir t;
    readdir = readdir t;
  }
