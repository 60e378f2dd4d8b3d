(** Shared chassis for the baseline PM file systems (PMFS, NOVA, Strata).

    The chassis serves the whole POSIX surface once: directory tree, inodes
    with extent maps over a block allocator, the fd table with its cursors,
    argument checks and errno paths, and raw block IO on the PM device. A
    baseline supplies only its persistence protocol as a {!protocol}: what
    each call charges on entry, how a metadata change is made durable, how
    data is written and read, what fsync adds and what settles before a
    truncate (in-place writes + undo log, per-inode redo logs + COW,
    private log + digest). That protocol is where the paper's comparisons
    come from.

    The extent machinery is deliberately the same {!Kernelfs.Extent_tree}
    and {!Kernelfs.Alloc} used by the ext4 simulation so the baselines
    differ only in protocol, not in data-structure quality. *)

open Pmem

let block_size = 4096

type file = {
  ino : int;
  mutable size : int;
  mutable nlink : int;
  mutable refcount : int;
  extents : Kernelfs.Extent_tree.t;
}

type node = File of file | Dir of (string, node) Hashtbl.t

type open_file = { file : file; pos : int ref; oflags : Fsapi.Flags.t }

type t = {
  env : Env.t;
  alloc : Kernelfs.Alloc.t;
  data_start : int;  (** device address of block 0 of the data area *)
  root : (string, node) Hashtbl.t;
  fds : (int, open_file) Hashtbl.t;
  mutable next_fd : int;
  mutable next_ino : int;
}

(** [create env ~reserved] lays the data area after [reserved] bytes that
    the specific file system keeps for its own logs/journal. *)
let create (env : Env.t) ~reserved =
  let capacity = Device.capacity env.Env.dev in
  assert (reserved mod block_size = 0 && reserved < capacity);
  {
    env;
    alloc = Kernelfs.Alloc.create ~nblocks:((capacity - reserved) / block_size) ();
    data_start = reserved;
    root = Hashtbl.create 64;
    fds = Hashtbl.create 32;
    next_fd = 3;
    next_ino = 2;
  }

(** A copy of [t] on [env] (a clone of [t]'s environment): directory
    tree, files, allocator and fd table copied. A file held by the tree
    and by descriptors stays one file, and an open file dup'ed under two
    fds stays one open file. *)
let clone t ~env =
  let files =
    Fsapi.Share.create (fun f ->
        { f with extents = Kernelfs.Extent_tree.copy f.extents })
  in
  (* directories are looked up and listed sorted, descriptors looked
     up: neither is iterated in order *)
  let rec dir d =
    Fsapi.Share.rebuild d (function
      | File f -> File (Fsapi.Share.get files f)
      | Dir sub -> Dir (dir sub))
  in
  let opens =
    Fsapi.Share.create (fun e ->
        { e with file = Fsapi.Share.get files e.file; pos = ref !(e.pos) })
  in
  {
    t with
    env;
    alloc = Kernelfs.Alloc.clone t.alloc;
    root = dir t.root;
    fds = Fsapi.Share.rebuild t.fds (Fsapi.Share.get opens);
  }

let block_addr t phys = t.data_start + (phys * block_size)

(* --- namespace --- *)

let rec walk dir = function
  | [] -> Dir dir
  | [ last ] -> (
      match Hashtbl.find_opt dir last with
      | Some n -> n
      | None -> Fsapi.Errno.(error ENOENT last))
  | part :: rest -> (
      match Hashtbl.find_opt dir part with
      | Some (Dir d) -> walk d rest
      | Some (File _) -> Fsapi.Errno.(error ENOTDIR part)
      | None -> Fsapi.Errno.(error ENOENT part))

let find_node t path = walk t.root (Fsapi.Path.split path)

let parent_of t path =
  let parents, name = Fsapi.Path.split_parent path in
  match walk t.root parents with
  | Dir d -> (d, name)
  | File _ -> Fsapi.Errno.(error ENOTDIR path)
  | exception Fsapi.Errno.Error (Fsapi.Errno.ENOENT, _) when parents = [] ->
      (t.root, name)

let fresh_file t =
  let f =
    {
      ino = t.next_ino;
      size = 0;
      nlink = 1;
      refcount = 0;
      extents = Kernelfs.Extent_tree.create ();
    }
  in
  t.next_ino <- t.next_ino + 1;
  f

let free_blocks_of t file =
  Kernelfs.Extent_tree.iter
    (fun e ->
      Kernelfs.Alloc.free_extent t.alloc ~start:e.Kernelfs.Extent_tree.physical
        ~len:e.Kernelfs.Extent_tree.len)
    file.extents;
  Kernelfs.Extent_tree.clear file.extents

let maybe_reap t file =
  if file.nlink = 0 && file.refcount = 0 then free_blocks_of t file

(* --- fd table --- *)

let fd_entry t fd =
  match Hashtbl.find_opt t.fds fd with
  | Some e -> e
  | None -> Fsapi.Errno.(error EBADF (string_of_int fd))

let install_fd t e =
  let fd = t.next_fd in
  t.next_fd <- t.next_fd + 1;
  e.file.refcount <- e.file.refcount + 1;
  Hashtbl.replace t.fds fd e;
  fd

(* --- block IO --- *)

let get_or_alloc_block t file lblk =
  match Kernelfs.Extent_tree.find file.extents lblk with
  | Some (phys, _) -> (phys, false)
  | None ->
      let goal =
        match Kernelfs.Extent_tree.find file.extents (lblk - 1) with
        | Some (p, _) -> p + 1
        | None -> -1
      in
      let start, _ = Kernelfs.Alloc.alloc_extent t.alloc ~goal ~len:1 in
      Kernelfs.Extent_tree.insert file.extents ~logical:lblk ~physical:start
        ~len:1;
      (start, true)

(** Write file data with non-temporal stores, allocating blocks as needed.
    With [cow:true] every touched block gets a fresh block first (NOVA
    strict); old blocks are freed. Returns the number of freshly allocated
    blocks. *)
let write_data t file ~buf ~boff ~len ~at ~cow =
  let fresh_count = ref 0 in
  let pos = ref at and src = ref boff and remaining = ref len in
  while !remaining > 0 do
    let lblk = !pos / block_size in
    let in_block = !pos mod block_size in
    let n = min !remaining (block_size - in_block) in
    let phys, fresh =
      if cow then begin
        let old = Kernelfs.Extent_tree.find file.extents lblk in
        let start, _ = Kernelfs.Alloc.alloc_extent t.alloc ~goal:(-1) ~len:1 in
        (* carry over the untouched part of the old block *)
        (match old with
        | Some (old_phys, _) ->
            if n < block_size then begin
              let tmp = Bytes.create block_size in
              Device.load t.env.Env.dev ~addr:(block_addr t old_phys) tmp
                ~off:0 ~len:block_size;
              Device.store_nt t.env.Env.dev ~addr:(block_addr t start) tmp
                ~off:0 ~len:block_size
            end;
            ignore
              (Kernelfs.Extent_tree.remove_range file.extents ~logical:lblk
                 ~len:1);
            Kernelfs.Alloc.free_extent t.alloc ~start:old_phys ~len:1
        | None ->
            if n < block_size then
              Device.zero_nt t.env.Env.dev ~addr:(block_addr t start)
                ~len:block_size);
        Kernelfs.Extent_tree.insert file.extents ~logical:lblk ~physical:start
          ~len:1;
        (start, true)
      end
      else begin
        let phys, fresh = get_or_alloc_block t file lblk in
        if fresh && n < block_size then
          Device.zero_nt t.env.Env.dev ~addr:(block_addr t phys)
            ~len:block_size;
        (phys, fresh)
      end
    in
    if fresh then incr fresh_count;
    Device.store_nt t.env.Env.dev ~addr:(block_addr t phys + in_block) buf
      ~off:!src ~len:n;
    pos := !pos + n;
    src := !src + n;
    remaining := !remaining - n
  done;
  if at + len > file.size then file.size <- at + len;
  !fresh_count

let read_data t file ~buf ~boff ~len ~at =
  if at >= file.size then 0
  else begin
    let len = min len (file.size - at) in
    let pos = ref at and dst = ref boff and remaining = ref len in
    while !remaining > 0 do
      let lblk = !pos / block_size in
      let in_block = !pos mod block_size in
      let n = min !remaining (block_size - in_block) in
      (match Kernelfs.Extent_tree.find file.extents lblk with
      | Some (phys, _) ->
          Device.load t.env.Env.dev ~addr:(block_addr t phys + in_block) buf
            ~off:!dst ~len:n
      | None -> Bytes.fill buf !dst n '\000');
      pos := !pos + n;
      dst := !dst + n;
      remaining := !remaining - n
    done;
    len
  end

let truncate_data t file size =
  if size < file.size then begin
    let old_blocks = (file.size + block_size - 1) / block_size in
    let new_blocks = (size + block_size - 1) / block_size in
    if new_blocks < old_blocks then begin
      let removed =
        Kernelfs.Extent_tree.remove_range file.extents ~logical:new_blocks
          ~len:(old_blocks - new_blocks)
      in
      List.iter
        (fun e ->
          Kernelfs.Alloc.free_extent t.alloc
            ~start:e.Kernelfs.Extent_tree.physical
            ~len:e.Kernelfs.Extent_tree.len)
        removed
    end;
    if size mod block_size <> 0 then
      match Kernelfs.Extent_tree.find file.extents (size / block_size) with
      | Some (phys, _) ->
          let in_block = size mod block_size in
          Device.zero_nt t.env.Env.dev
            ~addr:(block_addr t phys + in_block)
            ~len:(block_size - in_block)
      | None -> ()
  end;
  file.size <- size

(* --- namespace mutations (no charging: the protocol charges) --- *)

let open_file t path (flags : Fsapi.Flags.t) =
  let parent, name = parent_of t path in
  let file, created =
    match Hashtbl.find_opt parent name with
    | Some (Dir _) -> Fsapi.Errno.(error EISDIR path)
    | Some (File f) ->
        if flags.creat && flags.excl then Fsapi.Errno.(error EEXIST path);
        if flags.trunc && Fsapi.Flags.writable flags then truncate_data t f 0;
        (f, false)
    | None ->
        if not flags.creat then Fsapi.Errno.(error ENOENT path);
        let f = fresh_file t in
        Hashtbl.replace parent name (File f);
        (f, true)
  in
  (install_fd t { file; pos = ref 0; oflags = flags }, created)

let unlink_path t path =
  let parent, name = parent_of t path in
  match Hashtbl.find_opt parent name with
  | Some (File f) ->
      Hashtbl.remove parent name;
      f.nlink <- f.nlink - 1;
      maybe_reap t f;
      f
  | Some (Dir _) -> Fsapi.Errno.(error EISDIR path)
  | None -> Fsapi.Errno.(error ENOENT path)

let rename_path t src dst =
  let sparent, sname = parent_of t src in
  match Hashtbl.find_opt sparent sname with
  | None -> Fsapi.Errno.(error ENOENT src)
  | Some node -> (
      let dparent, dname = parent_of t dst in
      match Hashtbl.find_opt dparent dname with
      | Some old when old == node -> () (* onto itself: a no-op (POSIX) *)
      | old ->
          (match old with
          | Some (Dir d) when Hashtbl.length d > 0 ->
              Fsapi.Errno.(error ENOTEMPTY dst)
          | Some (File f) ->
              f.nlink <- f.nlink - 1;
              maybe_reap t f
          | _ -> ());
          Hashtbl.remove sparent sname;
          Hashtbl.replace dparent dname node)

let mkdir_path t path =
  let parent, name = parent_of t path in
  if Hashtbl.mem parent name then Fsapi.Errno.(error EEXIST path);
  Hashtbl.replace parent name (Dir (Hashtbl.create 8))

let rmdir_path t path =
  let parent, name = parent_of t path in
  match Hashtbl.find_opt parent name with
  | Some (Dir d) ->
      if Hashtbl.length d > 0 then Fsapi.Errno.(error ENOTEMPTY path);
      Hashtbl.remove parent name
  | Some (File _) -> Fsapi.Errno.(error ENOTDIR path)
  | None -> Fsapi.Errno.(error ENOENT path)

let readdir_path t path =
  match find_node t path with
  | Dir d -> List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) d [])
  | File _ -> Fsapi.Errno.(error ENOTDIR path)

let stat_node = function
  | File f ->
      { Fsapi.Fs.st_ino = f.ino; st_kind = Fsapi.Fs.Regular; st_size = f.size; st_nlink = f.nlink }
  | Dir d ->
      { Fsapi.Fs.st_ino = 1; st_kind = Fsapi.Fs.Directory; st_size = Hashtbl.length d; st_nlink = 2 }

(* --- the protocol a baseline supplies --- *)

(** What a call does, for its entry charge. *)
type call =
  | Query  (** close, dup, lseek, fsync, fstat, stat, readdir *)
  | Update  (** open, pwrite/write, ftruncate and the namespace mutations *)
  | Read  (** pread/read *)

(** A metadata change, made durable after it is applied. *)
type meta = Create | Truncate | Unlink of file | Rename | Mkdir | Rmdir

type protocol = {
  name : string;
  enter : call -> unit;  (** charged first, before any check *)
  persist : meta -> unit;
  write : file -> buf:Bytes.t -> boff:int -> len:int -> at:int -> unit;
      (** a data write on a validated fd *)
  read : file -> buf:Bytes.t -> boff:int -> len:int -> at:int -> int;
  fsync : unit -> unit;  (** what fsync adds once the fd is checked *)
  settle : file -> unit;  (** what must settle before a truncate *)
}

(** The protocol of an in-kernel file system (PMFS, NOVA): every call
    crosses into the kernel ({!Kernelfs.Syscall.trap}), an update adds
    [op_cpu] and a read the kernel read path's CPU. Data is read in place,
    and every operation is synchronous, so fsync adds nothing and nothing
    settles before a truncate. *)
let kernel t ~name ~op_cpu ~persist ~write =
  let env = t.env in
  let enter call =
    Kernelfs.Syscall.trap env;
    match call with
    | Query -> ()
    | Update -> Env.cpu_cat env Obs.Kernel op_cpu
    | Read -> Env.cpu_cat env Obs.Kernel env.Env.timing.Timing.ext4_read_cpu
  in
  { name; enter; persist; write; read = read_data t; fsync = ignore; settle = ignore }

(** The POSIX surface of [t] under protocol [p]: one fd lookup and one
    argument check per call, one cursor. *)
let as_fsapi t p : Fsapi.Fs.t =
  let checked e ok what ~len ~at =
    if not (ok e.oflags) then Fsapi.Errno.(error EBADF what);
    if len < 0 || at < 0 then Fsapi.Errno.(error EINVAL what)
  in
  let pwrite e ~buf ~boff ~len ~at =
    checked e Fsapi.Flags.writable "pwrite" ~len ~at;
    p.write e.file ~buf ~boff ~len ~at;
    len
  in
  let pread e ~buf ~boff ~len ~at =
    checked e Fsapi.Flags.readable "pread" ~len ~at;
    p.read e.file ~buf ~boff ~len ~at
  in
  let entered call fd =
    p.enter call;
    fd_entry t fd
  in
  let update f meta =
    p.enter Update;
    f ();
    p.persist meta
  in
  {
    Fsapi.Fs.fs_name = p.name;
    open_ =
      (fun path flags ->
        p.enter Update;
        let fd, created = open_file t path flags in
        if created then p.persist Create;
        fd);
    close =
      (fun fd ->
        let e = entered Query fd in
        Hashtbl.remove t.fds fd;
        e.file.refcount <- e.file.refcount - 1;
        maybe_reap t e.file);
    dup = (fun fd -> install_fd t (entered Query fd));
    pread = (fun fd -> pread (entered Read fd));
    pwrite = (fun fd -> pwrite (entered Update fd));
    read =
      (fun fd ~buf ~boff ~len ->
        let e = fd_entry t fd in
        p.enter Read;
        let n = pread e ~buf ~boff ~len ~at:!(e.pos) in
        e.pos := !(e.pos) + n;
        n);
    write =
      (fun fd ~buf ~boff ~len ->
        let e = fd_entry t fd in
        let at = if e.oflags.Fsapi.Flags.append then e.file.size else !(e.pos) in
        p.enter Update;
        let n = pwrite e ~buf ~boff ~len ~at in
        e.pos := at + n;
        n);
    lseek =
      (fun fd off whence ->
        let e = entered Query fd in
        let base =
          match whence with
          | Fsapi.Flags.Set -> 0
          | Fsapi.Flags.Cur -> !(e.pos)
          | Fsapi.Flags.End -> e.file.size
        in
        let npos = base + off in
        if npos < 0 then Fsapi.Errno.(error EINVAL "lseek");
        e.pos := npos;
        npos);
    fsync =
      (fun fd ->
        ignore (entered Query fd);
        p.fsync ());
    ftruncate =
      (fun fd size ->
        p.enter Update;
        if size < 0 then Fsapi.Errno.(error EINVAL "ftruncate");
        let e = fd_entry t fd in
        p.settle e.file;
        truncate_data t e.file size;
        p.persist Truncate);
    fstat = (fun fd -> stat_node (File (entered Query fd).file));
    stat =
      (fun path ->
        p.enter Query;
        stat_node (find_node t path));
    unlink =
      (fun path ->
        p.enter Update;
        p.persist (Unlink (unlink_path t path)));
    rename = (fun src dst -> update (fun () -> rename_path t src dst) Rename);
    mkdir = (fun path -> update (fun () -> mkdir_path t path) Mkdir);
    rmdir = (fun path -> update (fun () -> rmdir_path t path) Rmdir);
    readdir =
      (fun path ->
        p.enter Query;
        readdir_path t path);
  }
