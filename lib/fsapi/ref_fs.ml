(** In-memory reference implementation of {!Fs.t}.

    This is the oracle for model-based testing: random operation sequences
    are applied both to a real file system (ext4 sim, SplitFS, NOVA, ...)
    and to this model, and the observable states must agree — the same
    methodology the paper uses to validate SplitFS against ext4 DAX (§5.3).
    It charges no simulated time. *)

type file = {
  ino : int;
  mutable data : Bytes.t;  (** capacity; only [size] bytes are valid *)
  mutable size : int;
  mutable nlink : int;
  (* Crash-oracle views (see {!make_oracle}); exact-length buffers. *)
  mutable stable : Bytes.t;  (** content as of the last fsync *)
  mutable stable_ow : Bytes.t;
      (** [stable] with post-fsync writes below the stable size applied —
          the bytes SplitFS's POSIX/sync modes overwrite in place with
          non-temporal stores, which may (partially) survive a crash *)
}

type node = File of file | Dir of (string, node) Hashtbl.t

type open_file = { file : file; pos : int ref; flags : Flags.t }

type t = {
  root : (string, node) Hashtbl.t;
  fds : (int, open_file) Hashtbl.t;
  mutable next_fd : int;
  mutable next_ino : int;
}

let split_path = Path.split

let create () =
  { root = Hashtbl.create 64; fds = Hashtbl.create 16; next_fd = 3; next_ino = 2 }

(** An independent copy of [t]. A file's content buffers are copied,
    except [stable], which is replaced, never written in place; a file
    held by the tree and by descriptors stays one file, and an open file
    dup'ed under two fds stays one open file. Directories and the fd
    table are looked up, or listed sorted, so each copy is a table sized
    to its bindings. *)
let clone t =
  let files =
    Share.create (fun f ->
        { f with data = Bytes.copy f.data; stable_ow = Bytes.copy f.stable_ow })
  in
  let rec dir d =
    Share.rebuild d (function
      | File f -> File (Share.get files f)
      | Dir sub -> Dir (dir sub))
  in
  let opens =
    Share.create (fun e ->
        { e with file = Share.get files e.file; pos = ref !(e.pos) })
  in
  { t with root = dir t.root; fds = Share.rebuild t.fds (Share.get opens) }

let rec lookup_dir dir = function
  | [] -> dir
  | part :: rest -> (
      match Hashtbl.find_opt dir part with
      | Some (Dir d) -> lookup_dir d rest
      | Some (File _) -> Errno.error Errno.ENOTDIR part
      | None -> Errno.error Errno.ENOENT part)

(** Resolve a path to its parent directory table and final component. *)
let resolve_parent t path =
  let parents, name = Path.split_parent path in
  (lookup_dir t.root parents, name)

let find_node t path =
  match split_path path with
  | [] -> Some (Dir t.root)
  | parts -> (
      match List.rev parts with
      | [] -> assert false
      | name :: rev_parents -> (
          match lookup_dir t.root (List.rev rev_parents) with
          | dir -> Hashtbl.find_opt dir name
          | exception Errno.Error _ -> None))

let fd_entry t fd =
  match Hashtbl.find_opt t.fds fd with
  | Some e -> e
  | None -> Errno.error Errno.EBADF (string_of_int fd)

let grow file needed =
  if Bytes.length file.data < needed then begin
    let cap = max needed (max 256 (2 * Bytes.length file.data)) in
    let fresh = Bytes.make cap '\000' in
    Bytes.blit file.data 0 fresh 0 file.size;
    file.data <- fresh
  end

let do_pwrite file ~buf ~boff ~len ~at =
  if len < 0 || at < 0 then Errno.error Errno.EINVAL "pwrite";
  grow file (at + len);
  if at > file.size then Bytes.fill file.data file.size (at - file.size) '\000';
  Bytes.blit buf boff file.data at len;
  if at + len > file.size then file.size <- at + len;
  (* in-place part of the write: below the stable size, these bytes reach
     the media before the next fsync in POSIX/sync modes *)
  let slim = Bytes.length file.stable_ow in
  if at < slim && len > 0 then
    Bytes.blit buf boff file.stable_ow at (min len (slim - at));
  len

let do_pread file ~buf ~boff ~len ~at =
  if len < 0 || at < 0 then Errno.error Errno.EINVAL "pread";
  if at >= file.size then 0
  else begin
    let n = min len (file.size - at) in
    Bytes.blit file.data at buf boff n;
    n
  end

let make_with ~name (t : t) : Fs.t =
  let open_ path (flags : Flags.t) =
    let parent, fname = resolve_parent t path in
    let file =
      match Hashtbl.find_opt parent fname with
      | Some (Dir _) -> Errno.error Errno.EISDIR path
      | Some (File f) ->
          if flags.creat && flags.excl then Errno.error Errno.EEXIST path;
          if flags.trunc && Flags.writable flags then f.size <- 0;
          f
      | None ->
          if not flags.creat then Errno.error Errno.ENOENT path;
          let f =
            {
              ino = t.next_ino;
              data = Bytes.create 0;
              size = 0;
              nlink = 1;
              stable = Bytes.create 0;
              stable_ow = Bytes.create 0;
            }
          in
          t.next_ino <- t.next_ino + 1;
          Hashtbl.replace parent fname (File f);
          f
    in
    let fd = t.next_fd in
    t.next_fd <- t.next_fd + 1;
    Hashtbl.replace t.fds fd { file; pos = ref 0; flags };
    fd
  in
  let close fd =
    let _ = fd_entry t fd in
    Hashtbl.remove t.fds fd
  in
  let dup fd =
    let e = fd_entry t fd in
    let nfd = t.next_fd in
    t.next_fd <- t.next_fd + 1;
    Hashtbl.replace t.fds nfd e;
    nfd
  in
  let pwrite fd ~buf ~boff ~len ~at =
    let e = fd_entry t fd in
    if not (Flags.writable e.flags) then Errno.error Errno.EBADF "not writable";
    do_pwrite e.file ~buf ~boff ~len ~at
  in
  let pread fd ~buf ~boff ~len ~at =
    let e = fd_entry t fd in
    if not (Flags.readable e.flags) then Errno.error Errno.EBADF "not readable";
    do_pread e.file ~buf ~boff ~len ~at
  in
  let write fd ~buf ~boff ~len =
    let e = fd_entry t fd in
    if not (Flags.writable e.flags) then Errno.error Errno.EBADF "not writable";
    let at = if e.flags.append then e.file.size else !(e.pos) in
    let n = do_pwrite e.file ~buf ~boff ~len ~at in
    e.pos := at + n;
    n
  in
  let read fd ~buf ~boff ~len =
    let e = fd_entry t fd in
    if not (Flags.readable e.flags) then Errno.error Errno.EBADF "not readable";
    let n = do_pread e.file ~buf ~boff ~len ~at:!(e.pos) in
    e.pos := !(e.pos) + n;
    n
  in
  let lseek fd off whence =
    let e = fd_entry t fd in
    let base =
      match whence with
      | Flags.Set -> 0
      | Flags.Cur -> !(e.pos)
      | Flags.End -> e.file.size
    in
    let npos = base + off in
    if npos < 0 then Errno.error Errno.EINVAL "lseek";
    e.pos := npos;
    npos
  in
  let fsync fd =
    let e = fd_entry t fd in
    e.file.stable <- Bytes.sub e.file.data 0 e.file.size;
    e.file.stable_ow <- Bytes.copy e.file.stable
  in
  let ftruncate fd size =
    let e = fd_entry t fd in
    if size < 0 then Errno.error Errno.EINVAL "ftruncate";
    grow e.file size;
    if size > e.file.size then
      Bytes.fill e.file.data e.file.size (size - e.file.size) '\000';
    e.file.size <- size;
    (* truncate is a metadata operation, durable immediately: the stable
       views shrink/extend with it *)
    let resize b =
      if Bytes.length b = size then b
      else begin
        let nb = Bytes.make size '\000' in
        Bytes.blit b 0 nb 0 (min (Bytes.length b) size);
        nb
      end
    in
    e.file.stable <- resize e.file.stable;
    e.file.stable_ow <- resize e.file.stable_ow
  in
  let stat_of_node = function
    | File f -> { Fs.st_ino = f.ino; st_kind = Fs.Regular; st_size = f.size; st_nlink = f.nlink }
    | Dir d -> { Fs.st_ino = 1; st_kind = Fs.Directory; st_size = Hashtbl.length d; st_nlink = 2 }
  in
  let stat path =
    match find_node t path with
    | Some n -> stat_of_node n
    | None -> Errno.error Errno.ENOENT path
  in
  let fstat fd =
    let e = fd_entry t fd in
    { Fs.st_ino = e.file.ino; st_kind = Fs.Regular; st_size = e.file.size; st_nlink = e.file.nlink }
  in
  let unlink path =
    let parent, name = resolve_parent t path in
    match Hashtbl.find_opt parent name with
    | Some (File f) ->
        f.nlink <- f.nlink - 1;
        Hashtbl.remove parent name
    | Some (Dir _) -> Errno.error Errno.EISDIR path
    | None -> Errno.error Errno.ENOENT path
  in
  let rename src dst =
    let sparent, sname = resolve_parent t src in
    match Hashtbl.find_opt sparent sname with
    | None -> Errno.error Errno.ENOENT src
    | Some node ->
        let dparent, dname = resolve_parent t dst in
        (match Hashtbl.find_opt dparent dname with
        | Some (Dir d) when Hashtbl.length d > 0 ->
            Errno.error Errno.ENOTEMPTY dst
        | _ -> ());
        Hashtbl.remove sparent sname;
        Hashtbl.replace dparent dname node
  in
  let mkdir path =
    let parent, name = resolve_parent t path in
    if Hashtbl.mem parent name then Errno.error Errno.EEXIST path;
    Hashtbl.replace parent name (Dir (Hashtbl.create 8))
  in
  let rmdir path =
    let parent, name = resolve_parent t path in
    match Hashtbl.find_opt parent name with
    | Some (Dir d) ->
        if Hashtbl.length d > 0 then Errno.error Errno.ENOTEMPTY path;
        Hashtbl.remove parent name
    | Some (File _) -> Errno.error Errno.ENOTDIR path
    | None -> Errno.error Errno.ENOENT path
  in
  let readdir path =
    match find_node t path with
    | Some (Dir d) ->
        List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) d [])
    | Some (File _) -> Errno.error Errno.ENOTDIR path
    | None -> Errno.error Errno.ENOENT path
  in
  {
    Fs.fs_name = name;
    open_;
    close;
    dup;
    pread;
    pwrite;
    read;
    write;
    lseek;
    fsync;
    ftruncate;
    fstat;
    stat;
    unlink;
    rename;
    mkdir;
    rmdir;
    readdir;
  }

let make () : Fs.t = make_with ~name:"reffs" (create ())

(** {1 Crash oracle}

    Read-only views over the model's files for crashcheck's differential
    checker. For each file the model tracks, besides the current content:

    - [stable]: the content as of the last fsync — everything SplitFS
      guarantees durable in every mode;
    - [stable + overwrites]: the stable view with post-fsync writes below
      the stable size applied — those bytes are written in place with
      non-temporal stores in POSIX/sync modes and may (partially) have
      reached the media before the crash.

    Covered operations: pwrite/write, ftruncate (metadata, durable
    immediately), fsync. *)
type oracle = {
  dump : string -> Bytes.t option;
      (** current content of the file at [path], if it exists *)
  dump_stable : string -> (Bytes.t * Bytes.t) option;
      (** [(stable, stable_with_overwrites)] views *)
}

(** The crash-oracle views of [t]'s files. *)
let views t =
  let file_at path =
    match find_node t path with Some (File f) -> Some f | _ -> None
  in
  {
    dump =
      (fun path ->
        Option.map (fun f -> Bytes.sub f.data 0 f.size) (file_at path));
    dump_stable =
      (fun path ->
        Option.map
          (fun f -> (Bytes.copy f.stable, Bytes.copy f.stable_ow))
          (file_at path));
  }

(** The POSIX view of [t], as the oracle. *)
let oracle_fs t = make_with ~name:"reffs-oracle" t

let make_oracle () : Fs.t * oracle =
  let t = create () in
  (oracle_fs t, views t)
