(** Shared chassis for the baseline PM file systems (PMFS, NOVA, Strata).

    Provides the mechanics every baseline needs — directory tree, inodes
    with extent maps over a block allocator, fd table, and raw block IO on
    the PM device — without charging any file-system-specific cost. Each
    baseline composes these with its own persistence protocol (in-place
    writes + undo log, per-inode redo logs + COW, private log + digest) and
    its own cost charges, which is where the paper's comparisons come from.

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

let block_addr t phys = t.data_start + (phys * block_size)

(* --- namespace --- *)

let split_path = Fsapi.Path.split

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

let find_node t path =
  match split_path path with [] -> Dir t.root | parts -> walk t.root parts

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

let install_fd t file oflags =
  let fd = t.next_fd in
  t.next_fd <- t.next_fd + 1;
  file.refcount <- file.refcount + 1;
  Hashtbl.replace t.fds fd { file; pos = ref 0; oflags };
  fd

let close_fd t fd =
  let e = fd_entry t fd in
  Hashtbl.remove t.fds fd;
  e.file.refcount <- e.file.refcount - 1;
  maybe_reap t e.file

let dup_fd t fd =
  let e = fd_entry t fd in
  let nfd = t.next_fd in
  t.next_fd <- t.next_fd + 1;
  e.file.refcount <- e.file.refcount + 1;
  Hashtbl.replace t.fds nfd e;
  nfd

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
let write_data t file ~off buf ~boff ~len ~cow =
  let fresh_count = ref 0 in
  let pos = ref off and src = ref boff and remaining = ref len in
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
  if off + len > file.size then file.size <- off + len;
  !fresh_count

let read_data t file ~off buf ~boff ~len =
  if off >= file.size then 0
  else begin
    let len = min len (file.size - off) in
    let pos = ref off and dst = ref boff and remaining = ref len in
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

(* --- namespace mutations (no charging; callers charge per protocol) --- *)

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
  (install_fd t file flags, file, created)

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
  | Some node ->
      let dparent, dname = parent_of t dst in
      (match Hashtbl.find_opt dparent dname with
      | Some (Dir d) when Hashtbl.length d > 0 -> Fsapi.Errno.(error ENOTEMPTY dst)
      | Some (File f) ->
          f.nlink <- f.nlink - 1;
          maybe_reap t f
      | _ -> ());
      Hashtbl.remove sparent sname;
      Hashtbl.replace dparent dname node

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

let stat_path t path = stat_node (find_node t path)
