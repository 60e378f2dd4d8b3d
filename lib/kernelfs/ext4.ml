(** Simulated ext4 DAX — the kernel half ("K-Split") of SplitFS.

    File *data* genuinely lives in the simulated PM device at the physical
    blocks chosen by the allocator; metadata (inodes, directories, extent
    trees) lives in heap structures whose durability cost is charged through
    the jbd2-like {!Journal}. Public operations commit their journal
    transaction before returning, giving the metadata-atomicity contract of
    ext4 DAX.

    The [relink] ioctl implements the kernel half of the paper's relink
    primitive: it moves logical->physical mappings from one file to
    another inside one journal transaction, without touching data. *)

open Pmem

let block_size = 4096

(* Registered fence sites (fence minimization, crashcheck litmus). *)
let site_pwrite = Device.register_fence_site "ext4:pwrite"
let site_fsync_fast = Device.register_fence_site "ext4:fsync-fast"
let site_cow_unshare = Device.register_fence_site "ext4:cow-unshare"
let blocks_per_huge = 512 (* 2 MB *)

type inode = {
  ino : int;
  mutable kind : Fsapi.Fs.file_kind;
  mutable size : int;
  mutable nlink : int;
  mutable refcount : int;  (** open file descriptors *)
  extents : Extent_tree.t;
  dir : (string, int) Hashtbl.t option;  (** [Some _] for directories *)
}

type mapping = {
  m_ino : int;
  m_off : int;  (** file offset of the first mapped byte (block aligned) *)
  m_len : int;
  pages : int array;  (** per 4K page: physical block, or -1 for a hole *)
  m_huge : bool;
}

type t = {
  env : Env.t;
  alloc : Alloc.t;
  journal : Journal.t;
  data_start : int;  (** device address of physical block 0; 2 MB aligned *)
  inodes : (int, inode) Hashtbl.t;
  mutable next_ino : int;
  root : inode;
  mutable ilocks : Pmem.Lock.t array;
      (** striped inode rwsems: writers to the same inode serialize (VFS
          write path) on stripe [ino land (lock_stripes - 1)]; a
          power-of-two table of at most [lock_stripes] stripes instead of
          a lock per inode, so that 10k-actor namespaces don't allocate
          10k lock records while distinct inodes in the N<=stripes
          experiments never share a stripe. The table starts small and
          doubles to reach the first stripe beyond it that an ino names,
          and a stripe's lock is created the first time it is taken
          ({!ilock}); until then the cell holds [unused_stripe]. Inert
          outside multi-actor runs *)
  running_meta : int array;
      (** metadata blocks dirtied by data-path operations and not yet
          committed, one cell per journal stream; jbd2 batches these into
          one transaction per stream that commits on fsync or, off the
          critical path, when it grows large *)
  mutable live_maps : mapping list;
      (** every mapping handed out by [mmap]/[mmap_retained]: the scrubber
          re-derives their page arrays after migrating blocks, the way the
          kernel would fix up page tables, so cached user-space mappings
          never point at retired blocks *)
  shared : (int, int) Hashtbl.t;
      (** physical blocks referenced by more than one inode after a
          [clone_extents] snapshot: block -> number of co-owners beyond
          the first. Absent means sole ownership. Owners release a shared
          block by decrementing; only the last release frees it, and any
          in-place store to a shared block breaks the share first
          (copy-on-write) *)
}

(** jbd2 commits a large running transaction from its own thread. *)
let running_meta_limit = 128

let cpu t ns = Env.cpu t.env ns
let cpu_cat t cat ns = Env.cpu_cat t.env cat ns
let timing t = t.env.Env.timing

(* ------------------------------------------------------------------ *)
(* mkfs                                                                 *)
(* ------------------------------------------------------------------ *)

(* Fills every stripe cell until the stripe is first taken; never itself
   acquired, so sharing it across stacks and domains is safe. *)
let unused_stripe = Pmem.Lock.create "inode-stripe:unused"

(* Inode lock stripes: a power of two, so [ino land (lock_stripes - 1)]
   picks one. The table mkfs makes holds the first [initial_stripes]. *)
let lock_stripes = 4096
let initial_stripes = 16

let mkfs ?(journal_len = 8 * 1024 * 1024) ?(alloc_shards = 1)
    ?(journal_streams = 1) (env : Env.t) =
  let capacity = Device.capacity env.Env.dev in
  let huge = blocks_per_huge * block_size in
  let journal_len = (journal_len + huge - 1) / huge * huge in
  if journal_len >= capacity then invalid_arg "Ext4.mkfs: journal too large";
  let data_len = (capacity - journal_len) / block_size * block_size in
  let journal =
    Journal.create ~streams:journal_streams ~env ~region_start:0
      ~region_len:journal_len ~block_size ()
  in
  let root =
    {
      ino = 2;
      kind = Fsapi.Fs.Directory;
      size = 0;
      nlink = 2;
      refcount = 0;
      extents = Extent_tree.create ();
      dir = Some (Hashtbl.create 64);
    }
  in
  let t =
    {
      env;
      alloc =
        Alloc.create ~faults:env.Env.faults ~env ~shards:alloc_shards
          ~nblocks:(data_len / block_size) ();
      journal;
      data_start = journal_len;
      inodes = Hashtbl.create 64;
      next_ino = 3;
      root;
      ilocks = Array.make initial_stripes unused_stripe;
      running_meta = Array.make (Journal.nstreams journal) 0;
      live_maps = [];
      shared = Hashtbl.create 64;
    }
  in
  Hashtbl.replace t.inodes root.ino root;
  t

(** The inode's lock stripe. Distinct inodes share a stripe only when
    their inos collide mod [lock_stripes] — never in the small-N
    experiments, by construction. The table doubles until it holds the
    stripe, and the stripe's lock is created on first use: a fresh lock is
    identical to one created at mkfs and never taken, so contention
    charges are the same either way. *)
let ilock t inode =
  let i = inode.ino land (lock_stripes - 1) in
  let n = Array.length t.ilocks in
  if i >= n then begin
    let m = ref (2 * n) in
    while i >= !m do m := 2 * !m done;
    let grown = Array.make !m unused_stripe in
    Array.blit t.ilocks 0 grown 0 n;
    t.ilocks <- grown
  end;
  let l = t.ilocks.(i) in
  if l != unused_stripe then l
  else begin
    let l = Pmem.Lock.create ~id:i "inode-stripe:" in
    t.ilocks.(i) <- l;
    l
  end

let with_ilock t inode f = Env.with_lock t.env (ilock t inode) f

(** A copy of [t] on [env] (a clone of [t]'s environment): every inode,
    directory, extent map, lock, live mapping and share count copied.
    Returns the copy and the function that maps one of [t]'s mappings to
    its copy, the same object for every holder. *)
let clone t ~env =
  (* the inode and directory tables are looked up, and iterated only
     into sorted lists ([readdir], [scrub]) *)
  let inodes =
    Fsapi.Share.rebuild t.inodes (fun i ->
        {
          i with
          extents = Extent_tree.copy i.extents;
          dir = Option.map (fun d -> Fsapi.Share.rebuild d Fun.id) i.dir;
        })
  in
  let maps =
    Fsapi.Share.create (fun m -> { m with pages = Array.copy m.pages })
  in
  ( {
      env;
      alloc = Alloc.clone ~faults:env.Env.faults ~env t.alloc;
      journal = Journal.clone t.journal ~env;
      data_start = t.data_start;
      inodes;
      next_ino = t.next_ino;
      root = Hashtbl.find inodes t.root.ino;
      ilocks =
        Array.map
          (fun l -> if l == unused_stripe then l else Pmem.Lock.copy l)
          t.ilocks;
      running_meta = Array.copy t.running_meta;
      live_maps = List.map (Fsapi.Share.get maps) t.live_maps;
      shared = Fsapi.Share.rebuild t.shared Fun.id;
    },
    Fsapi.Share.get maps )

let block_addr t phys = t.data_start + (phys * block_size)
let env t = t.env
let allocator t = t.alloc
let journal t = t.journal
let root_inode t = t.root

(* ------------------------------------------------------------------ *)
(* Path resolution                                                      *)
(* ------------------------------------------------------------------ *)

let split_path = Fsapi.Path.split

let inode_of t ino =
  match Hashtbl.find_opt t.inodes ino with
  | Some i -> i
  | None -> Fsapi.Errno.(error ENOENT (Printf.sprintf "inode %d" ino))

let dir_table inode =
  match inode.dir with
  | Some d -> d
  | None -> Fsapi.Errno.(error ENOTDIR (string_of_int inode.ino))

let rec walk t inode = function
  | [] -> inode
  | part :: rest ->
      let d = dir_table inode in
      cpu t (timing t).Timing.ext4_dir_cpu;
      (match Hashtbl.find_opt d part with
      | Some ino -> walk t (inode_of t ino) rest
      | None -> Fsapi.Errno.(error ENOENT part))

(** Resolve a full path to its inode. *)
let namei t path = walk t t.root (split_path path)

(** Resolve to the parent directory inode and the final component. *)
let lookup_parent t path =
  let parents, name = Fsapi.Path.split_parent path in
  (walk t t.root parents, name)

(* ------------------------------------------------------------------ *)
(* Inode lifecycle                                                      *)
(* ------------------------------------------------------------------ *)

(** Release [len] physical blocks at [start], honouring snapshot
    sharing: a co-owned block is released by decrementing its share
    count; only the last owner returns it to the allocator. The batch
    fast path keeps the pre-snapshot cost when no clones exist. *)
let free_blocks t ~start ~len =
  if Hashtbl.length t.shared = 0 then Alloc.free_extent t.alloc ~start ~len
  else
    for i = 0 to len - 1 do
      let b = start + i in
      match Hashtbl.find_opt t.shared b with
      | Some n when n > 1 -> Hashtbl.replace t.shared b (n - 1)
      | Some _ -> Hashtbl.remove t.shared b
      | None -> Alloc.free_extent t.alloc ~start:b ~len:1
    done

(** Does any block under the device range [addr, addr+len) carry a
    snapshot share? U-Split asks before storing through its mmaps so an
    in-place write never lands on an aliased block; the [shared]-empty
    fast path keeps the pre-snapshot hot path at one table-length load. *)
let range_shared t ~addr ~len =
  Hashtbl.length t.shared > 0
  && begin
       let first = (addr - t.data_start) / block_size in
       let last = (addr + len - 1 - t.data_start) / block_size in
       let hit = ref false in
       for b = first to last do
         if Hashtbl.mem t.shared b then hit := true
       done;
       !hit
     end

let free_inode_blocks t inode =
  Extent_tree.iter
    (fun e -> free_blocks t ~start:e.Extent_tree.physical ~len:e.Extent_tree.len)
    inode.extents;
  ignore (Extent_tree.remove_range inode.extents ~logical:0 ~len:max_int)

(** Free an unlinked, closed regular file. Its mappings leave
    [live_maps] with it: inode numbers are never reused, so no later
    copy-on-write or scrub could match them again. *)
let maybe_reap t inode =
  if inode.nlink = 0 && inode.refcount = 0 && inode.kind = Fsapi.Fs.Regular
  then begin
    free_inode_blocks t inode;
    Hashtbl.remove t.inodes inode.ino;
    t.live_maps <- List.filter (fun m -> m.m_ino <> inode.ino) t.live_maps
  end

let incref inode = inode.refcount <- inode.refcount + 1

let decref t inode =
  inode.refcount <- inode.refcount - 1;
  maybe_reap t inode

(* ------------------------------------------------------------------ *)
(* Namespace operations (each commits its own journal transaction)      *)
(* ------------------------------------------------------------------ *)

let make_inode t kind =
  let inode =
    {
      ino = t.next_ino;
      kind;
      size = 0;
      nlink = 1;
      refcount = 0;
      extents = Extent_tree.create ();
      dir =
        (match kind with
        | Fsapi.Fs.Directory -> Some (Hashtbl.create 16)
        | Fsapi.Fs.Regular -> None);
    }
  in
  t.next_ino <- t.next_ino + 1;
  Hashtbl.replace t.inodes inode.ino inode;
  inode

(** Index of the current actor's journal stream — the cell its data-path
    metadata batches into. One stream (the default) keeps the single
    global running transaction of stock jbd2. *)
let stream_idx t =
  let n = Array.length t.running_meta in
  if n = 1 then 0
  else (Pmem.Simclock.current t.env.Env.clock).Pmem.Simclock.aid mod n

(** Fold data-path metadata dirtying into the current actor's stream of
    the running transaction; a large transaction is committed by the
    journal thread off the critical path. *)
let stage_meta t blocks =
  let k = stream_idx t in
  t.running_meta.(k) <- t.running_meta.(k) + blocks;
  if t.running_meta.(k) >= running_meta_limit then begin
    let blocks = t.running_meta.(k) in
    t.running_meta.(k) <- 0;
    Env.in_background t.env (fun () ->
        Journal.commit t.journal ~meta_blocks:blocks)
  end

let create t path =
  let parent, name = lookup_parent t path in
  let d = dir_table parent in
  if Hashtbl.mem d name then Fsapi.Errno.(error EEXIST path);
  let inode = make_inode t Fsapi.Fs.Regular in
  Hashtbl.replace d name inode.ino;
  cpu t ((timing t).Timing.ext4_dir_cpu +. (timing t).Timing.ext4_inode_cpu);
  (* inode bitmap + inode table block + directory block join the running
     transaction; jbd2 batches namespace ops until fsync or its timer *)
  stage_meta t 3;
  inode

let mkdir t path =
  let parent, name = lookup_parent t path in
  let d = dir_table parent in
  if Hashtbl.mem d name then Fsapi.Errno.(error EEXIST path);
  let inode = make_inode t Fsapi.Fs.Directory in
  inode.nlink <- 2;
  parent.nlink <- parent.nlink + 1;
  Hashtbl.replace d name inode.ino;
  cpu t ((timing t).Timing.ext4_dir_cpu +. (timing t).Timing.ext4_inode_cpu);
  stage_meta t 4

let unlink t path =
  let parent, name = lookup_parent t path in
  let d = dir_table parent in
  match Hashtbl.find_opt d name with
  | None -> Fsapi.Errno.(error ENOENT path)
  | Some ino ->
      let inode = inode_of t ino in
      if inode.kind = Fsapi.Fs.Directory then Fsapi.Errno.(error EISDIR path);
      Hashtbl.remove d name;
      inode.nlink <- inode.nlink - 1;
      cpu t ((timing t).Timing.ext4_dir_cpu +. (timing t).Timing.ext4_inode_cpu);
      (* dir block + inode + block bitmap + inode bitmap *)
      stage_meta t 4;
      maybe_reap t inode

let rmdir t path =
  let parent, name = lookup_parent t path in
  let d = dir_table parent in
  match Hashtbl.find_opt d name with
  | None -> Fsapi.Errno.(error ENOENT path)
  | Some ino ->
      let inode = inode_of t ino in
      let table = dir_table inode in
      if Hashtbl.length table > 0 then Fsapi.Errno.(error ENOTEMPTY path);
      Hashtbl.remove d name;
      parent.nlink <- parent.nlink - 1;
      Hashtbl.remove t.inodes ino;
      cpu t ((timing t).Timing.ext4_dir_cpu +. (timing t).Timing.ext4_inode_cpu);
      stage_meta t 4

let rename t src dst =
  let sparent, sname = lookup_parent t src in
  let sd = dir_table sparent in
  match Hashtbl.find_opt sd sname with
  | None -> Fsapi.Errno.(error ENOENT src)
  | Some ino ->
      let dparent, dname = lookup_parent t dst in
      let dd = dir_table dparent in
      (match Hashtbl.find_opt dd dname with
      | Some old_ino when old_ino <> ino ->
          let old = inode_of t old_ino in
          (match old.kind with
          | Fsapi.Fs.Directory ->
              if Hashtbl.length (dir_table old) > 0 then
                Fsapi.Errno.(error ENOTEMPTY dst);
              Hashtbl.remove t.inodes old_ino
          | Fsapi.Fs.Regular ->
              old.nlink <- old.nlink - 1;
              maybe_reap t old)
      | _ -> ());
      Hashtbl.remove sd sname;
      Hashtbl.replace dd dname ino;
      cpu t (2. *. (timing t).Timing.ext4_dir_cpu);
      stage_meta t 4

let readdir t path =
  let inode = namei t path in
  let d = dir_table inode in
  cpu t ((timing t).Timing.ext4_dir_cpu *. float_of_int (1 + Hashtbl.length d));
  List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) d [])

let stat_of_inode inode =
  {
    Fsapi.Fs.st_ino = inode.ino;
    st_kind = inode.kind;
    st_size = inode.size;
    st_nlink = inode.nlink;
  }

let stat t path = stat_of_inode (namei t path)

(* ------------------------------------------------------------------ *)
(* Block mapping and data IO                                            *)
(* ------------------------------------------------------------------ *)

(** Copy-on-write break before an in-place store: if [phys] (backing
    logical block [lblk] of [inode]) is co-owned by a snapshot, move this
    inode onto a fresh block carrying a copy of the old contents and
    release our share of the old one. Returns the block that is now safe
    to store through. *)
let unshare_block t inode ~lblk ~phys =
  if not (Hashtbl.mem t.shared phys) then phys
  else begin
    cpu_cat t Obs.Alloc (timing t).Timing.ext4_alloc_cpu;
    let fresh, _ = Alloc.alloc_extent t.alloc ~goal:(-1) ~len:1 in
    let buf = Bytes.create block_size in
    Device.load t.env.Env.dev ~addr:(block_addr t phys) buf ~off:0
      ~len:block_size;
    Device.store_nt t.env.Env.dev ~addr:(block_addr t fresh) buf ~off:0
      ~len:block_size;
    (* the copy must be durable before the extent switch makes the fresh
       block this inode's truth: a torn copy behind a committed switch
       reads back as zeros after recovery *)
    Device.fence ~site:site_cow_unshare t.env.Env.dev;
    ignore (Extent_tree.remove_range inode.extents ~logical:lblk ~len:1);
    Extent_tree.insert inode.extents ~logical:lblk ~physical:fresh ~len:1;
    cpu t (timing t).Timing.ext4_extent_cpu;
    (match Hashtbl.find_opt t.shared phys with
    | Some n when n > 1 -> Hashtbl.replace t.shared phys (n - 1)
    | Some _ -> Hashtbl.remove t.shared phys
    | None -> ());
    (* fix up live user-space mappings of the moved page, the way the
       kernel would shoot down and refault the PTE *)
    List.iter
      (fun m ->
        if m.m_ino = inode.ino then begin
          let idx = lblk - (m.m_off / block_size) in
          if idx >= 0 && idx < Array.length m.pages && m.pages.(idx) = phys
          then m.pages.(idx) <- fresh
        end)
      t.live_maps;
    fresh
  end

(** Map logical block [lblk], allocating if absent. Returns the physical
    block and whether an allocation happened. In-place writes to a
    snapshot-shared block break the share first (copy-on-write). *)
let get_or_alloc_block t inode lblk =
  match Extent_tree.find inode.extents lblk with
  | Some (phys, _) -> (unshare_block t inode ~lblk ~phys, false)
  | None ->
      cpu_cat t Obs.Alloc (timing t).Timing.ext4_alloc_cpu;
      let goal =
        match Extent_tree.find inode.extents (lblk - 1) with
        | Some (p, _) -> p + 1
        | None -> -1
      in
      let start, _n = Alloc.alloc_extent t.alloc ~goal ~len:1 in
      cpu t (timing t).Timing.ext4_extent_cpu;
      Extent_tree.insert inode.extents ~logical:lblk ~physical:start ~len:1;
      (start, true)

(** Pre-allocate [len] bytes starting at byte [off] (fallocate). Tries to
    grab 2 MB-aligned physical extents so the region can be mapped with
    huge pages. Does not change [size] (KEEP_SIZE semantics). *)
let fallocate t inode ~off ~len =
  if off mod block_size <> 0 then Fsapi.Errno.(error EINVAL "fallocate");
  with_ilock t inode @@ fun () ->
  let first = off / block_size in
  let nblocks = (len + block_size - 1) / block_size in
  let allocated = ref 0 in
  let lblk = ref first in
  let remaining = ref nblocks in
  while !remaining > 0 do
    match Extent_tree.find inode.extents !lblk with
    | Some (_, run) ->
        let n = min run !remaining in
        lblk := !lblk + n;
        remaining := !remaining - n
    | None ->
        cpu_cat t Obs.Alloc (timing t).Timing.ext4_alloc_cpu;
        let chunk = min !remaining blocks_per_huge in
        (* never allocate past the next already-mapped block (the file may
           be fragmented by earlier relinks) *)
        let chunk =
          match Extent_tree.next_mapped inode.extents !lblk with
          | Some next when next - !lblk < chunk -> next - !lblk
          | _ -> chunk
        in
        let start, n =
          match
            (* huge-page friendly path first *)
            if chunk = blocks_per_huge && !lblk mod blocks_per_huge = 0 then
              Alloc.alloc_aligned t.alloc ~align:blocks_per_huge ~len:chunk
            else None
          with
          | Some start -> (start, chunk)
          | None -> Alloc.alloc_extent t.alloc ~goal:(-1) ~len:chunk
        in
        cpu t (timing t).Timing.ext4_extent_cpu;
        Extent_tree.insert inode.extents ~logical:!lblk ~physical:start ~len:n;
        allocated := !allocated + n;
        lblk := !lblk + n;
        remaining := !remaining - n
  done;
  if !allocated > 0 then
    Journal.commit t.journal
      ~meta_blocks:(2 + (!allocated / blocks_per_huge));
  !allocated

(** Kernel data-write path (DAX: non-temporal copy straight to media).
    Returns the number of metadata blocks dirtied, so callers can fold the
    charge into one journal transaction. *)
let write_data t inode ~off buf ~boff ~len =
  let dirtied = ref 0 in
  let pos = ref off and src = ref boff and remaining = ref len in
  while !remaining > 0 do
    let lblk = !pos / block_size in
    let in_block = !pos mod block_size in
    let n = min !remaining (block_size - in_block) in
    let phys, fresh = get_or_alloc_block t inode lblk in
    if fresh then begin
      incr dirtied;
      (* a partially covered fresh block must be zeroed first so reclaimed
         blocks never leak stale bytes (dax_iomap zeroing) *)
      if n < block_size then
        Device.zero_nt t.env.Env.dev ~addr:(block_addr t phys) ~len:block_size
    end;
    Device.store_nt t.env.Env.dev
      ~addr:(block_addr t phys + in_block)
      buf ~off:!src ~len:n;
    pos := !pos + n;
    src := !src + n;
    remaining := !remaining - n
  done;
  if off + len > inode.size then begin
    inode.size <- off + len;
    incr dirtied
  end;
  (* bitmap + extent blocks, folded: roughly one bitmap + one extent block
     per allocating write plus the inode *)
  if !dirtied > 0 then min 3 (1 + !dirtied) else 0

(** pwrite(2) as ext4 DAX performs it: data copied with NT stores, metadata
    dirtied by allocation or size change joins the running transaction. *)
let pwrite t inode ~off buf ~boff ~len =
  if len < 0 || off < 0 then Fsapi.Errno.(error EINVAL "pwrite");
  with_ilock t inode (fun () ->
      let allocating = off + len > inode.size in
      cpu t
        (if allocating then (timing t).Timing.ext4_append_cpu
         else (timing t).Timing.ext4_write_cpu);
      let meta = write_data t inode ~off buf ~boff ~len in
      stage_meta t meta;
      Device.fence ~site:site_pwrite t.env.Env.dev;
      len)

(** pread(2): DAX read, media cost charged per contiguous extent. *)
let pread t inode ~off buf ~boff ~len =
  if len < 0 || off < 0 then Fsapi.Errno.(error EINVAL "pread");
  cpu t (timing t).Timing.ext4_read_cpu;
  if off >= inode.size then 0
  else begin
    let len = min len (inode.size - off) in
    let pos = ref off and dst = ref boff and remaining = ref len in
    while !remaining > 0 do
      let lblk = !pos / block_size in
      let in_block = !pos mod block_size in
      let n = min !remaining (block_size - in_block) in
      (match Extent_tree.find inode.extents lblk with
      | Some (phys, _) ->
          Device.load t.env.Env.dev
            ~addr:(block_addr t phys + in_block)
            buf ~off:!dst ~len:n
      | None -> Bytes.fill buf !dst n '\000');
      pos := !pos + n;
      dst := !dst + n;
      remaining := !remaining - n
    done;
    len
  end

(** Whether every block of [off, off+len) has a physical mapping. Used by
    recovery to tell staged-but-not-relinked data (fully mapped — staging
    files are preallocated) from a half-relinked staging file (relink
    steals blocks, leaving holes). Charges nothing: pure metadata walk. *)
let range_mapped (_t : t) inode ~off ~len =
  len <= 0
  ||
  let first = off / block_size and last = (off + len - 1) / block_size in
  let ok = ref true and lblk = ref first in
  while !ok && !lblk <= last do
    match Extent_tree.find inode.extents !lblk with
    | Some (_, run) -> lblk := !lblk + run
    | None -> ok := false
  done;
  !ok

let truncate t inode size =
  if size < 0 then Fsapi.Errno.(error EINVAL "truncate");
  with_ilock t inode @@ fun () ->
  cpu t (timing t).Timing.ext4_inode_cpu;
  let old_blocks = (inode.size + block_size - 1) / block_size in
  let new_blocks = (size + block_size - 1) / block_size in
  if size < inode.size then begin
    if new_blocks < old_blocks then begin
      let removed =
        Extent_tree.remove_range inode.extents ~logical:new_blocks
          ~len:(old_blocks - new_blocks)
      in
      List.iter
        (fun e ->
          free_blocks t ~start:e.Extent_tree.physical ~len:e.Extent_tree.len)
        removed
    end;
    (* zero the now-unused tail of the last kept block so a later size
       extension reads zeros, not the truncated bytes *)
    if size mod block_size <> 0 then
      let lblk = size / block_size in
      match Extent_tree.find inode.extents lblk with
      | Some (phys, _) ->
          let phys = unshare_block t inode ~lblk ~phys in
          let in_block = size mod block_size in
          Device.zero_nt t.env.Env.dev
            ~addr:(block_addr t phys + in_block)
            ~len:(block_size - in_block)
      | None -> ()
  end
  else if size > inode.size then begin
    (* zero the tail of the last partial block so stale bytes never leak *)
    let last = inode.size in
    if last mod block_size <> 0 then
      let lblk = last / block_size in
      match Extent_tree.find inode.extents lblk with
      | Some (phys, _) ->
          let phys = unshare_block t inode ~lblk ~phys in
          let in_block = last mod block_size in
          let n = min (size - last) (block_size - in_block) in
          Device.zero_nt t.env.Env.dev
            ~addr:(block_addr t phys + in_block)
            ~len:n
      | None -> ()
  end;
  inode.size <- size;
  Journal.commit t.journal ~meta_blocks:2

(** fsync(2) on ext4 DAX: force the running transaction to commit. The cost
    grows with the metadata dirtied since the last commit, which is what
    makes ext4 DAX fsync expensive after a burst of appends (paper
    Table 6). *)
let fsync t inode =
  with_ilock t inode @@ fun () ->
  cpu t (timing t).Timing.ext4_inode_cpu;
  let k = stream_idx t in
  if t.running_meta.(k) > 0 then begin
    let blocks = t.running_meta.(k) in
    t.running_meta.(k) <- 0;
    Journal.commit t.journal ~meta_blocks:blocks;
    (* wake jbd2, wait for the commit to land *)
    cpu_cat t Obs.Journal (timing t).Timing.jbd2_fsync_wait
  end
  else
    (* no running transaction: jbd2 fast path *)
    Device.fence ~site:site_fsync_fast t.env.Env.dev

(* ------------------------------------------------------------------ *)
(* relink — the kernel half of the paper's swap_extents primitive      *)
(* ------------------------------------------------------------------ *)

(** [relink t ~src ~src_blk ~dst ~dst_blk ~nblks ~dst_size] is the paper's
    new primitive as one kernel operation: logically and atomically move the
    block range of [src] (a staging file) into [dst], de-allocating any
    blocks it replaces, and update [dst]'s size — all inside a single journal
    transaction, with no data movement or flushing (the paper's modified
    [EXT4_IOC_MOVE_EXT]). Existing memory-mappings of the physical blocks
    remain valid; U-Split re-points its collection of mmaps. *)
let relink t ~src ~src_blk ~dst ~dst_blk ~nblks ~dst_size =
  if nblks <= 0 then Fsapi.Errno.(error EINVAL "relink");
  if Faults.check t.env.Env.faults Faults.Swap then
    Fsapi.Errno.(error EIO "k-split: relink (swap_extents) injected EIO");
  with_ilock t src @@ fun () ->
  with_ilock t dst @@ fun () ->
  let replaced = Extent_tree.remove_range dst.extents ~logical:dst_blk ~len:nblks in
  List.iter
    (fun e ->
      free_blocks t ~start:e.Extent_tree.physical ~len:e.Extent_tree.len)
    replaced;
  let moved = Extent_tree.remove_range src.extents ~logical:src_blk ~len:nblks in
  List.iter
    (fun e ->
      Extent_tree.insert dst.extents
        ~logical:(e.Extent_tree.logical - src_blk + dst_blk)
        ~physical:e.Extent_tree.physical ~len:e.Extent_tree.len)
    moved;
  (match dst_size with
  | Some size -> dst.size <- size
  | None -> ());
  let touched = List.length replaced + List.length moved in
  cpu t ((timing t).Timing.ext4_extent_cpu *. float_of_int (2 + touched));
  (* both inodes' extent updates fit two journal blocks, one transaction *)
  Journal.commit t.journal ~meta_blocks:2;
  let stats = t.env.Env.stats in
  stats.Stats.relinks <- stats.Stats.relinks + 1

(** Free a block range of [inode] (relink uses this to drop the staging
    file's temporarily allocated blocks). Metadata-only. *)
let dealloc_range t inode ~blk ~nblks =
  with_ilock t inode @@ fun () ->
  let removed = Extent_tree.remove_range inode.extents ~logical:blk ~len:nblks in
  List.iter
    (fun e ->
      free_blocks t ~start:e.Extent_tree.physical ~len:e.Extent_tree.len)
    removed;
  cpu t ((timing t).Timing.ext4_extent_cpu *. float_of_int (1 + List.length removed));
  Journal.commit t.journal ~meta_blocks:2

let set_size t inode size =
  with_ilock t inode @@ fun () ->
  cpu t (timing t).Timing.ext4_inode_cpu;
  inode.size <- size;
  Journal.commit t.journal ~meta_blocks:1

(** [clone_extents t ~src ~dst] publishes an instant snapshot: [dst]'s
    mapping becomes a block-for-block alias of [src]'s inside one journal
    transaction — no data moves, no flushes, O(extents) metadata. Every
    cloned block is marked shared; subsequent in-place stores through any
    owner break the share with a copy-on-write, and frees release shares
    instead of blocks until the last owner lets go. *)
let clone_extents t ~src ~dst =
  if src.ino = dst.ino then Fsapi.Errno.(error EINVAL "clone_extents: self");
  if Faults.check t.env.Env.faults Faults.Swap then
    Fsapi.Errno.(error EIO "k-split: clone_extents injected EIO");
  with_ilock t src @@ fun () ->
  with_ilock t dst @@ fun () ->
  let old = Extent_tree.remove_range dst.extents ~logical:0 ~len:max_int in
  List.iter
    (fun e -> free_blocks t ~start:e.Extent_tree.physical ~len:e.Extent_tree.len)
    old;
  let cloned = ref 0 in
  Extent_tree.iter
    (fun e ->
      Extent_tree.insert dst.extents ~logical:e.Extent_tree.logical
        ~physical:e.Extent_tree.physical ~len:e.Extent_tree.len;
      for i = 0 to e.Extent_tree.len - 1 do
        let b = e.Extent_tree.physical + i in
        Hashtbl.replace t.shared b
          (1 + Option.value ~default:0 (Hashtbl.find_opt t.shared b))
      done;
      incr cloned)
    src.extents;
  dst.size <- src.size;
  cpu t
    ((timing t).Timing.ext4_extent_cpu *. float_of_int (2 + !cloned));
  (* both inodes' extent updates in one transaction, like relink *)
  Journal.commit t.journal ~meta_blocks:2;
  let stats = t.env.Env.stats in
  stats.Stats.relinks <- stats.Stats.relinks + 1

(* ------------------------------------------------------------------ *)
(* Media-fault support: address translation and the scrubber (PR 5)     *)
(* ------------------------------------------------------------------ *)

(** Device address backing byte [off] of [inode], if mapped. Pure
    metadata walk, no charges — the fault oracle uses it to map file
    offsets to quarantined device lines. *)
let device_addr t inode ~off =
  match Extent_tree.find inode.extents (off / block_size) with
  | Some (phys, _) -> Some (block_addr t phys + (off mod block_size))
  | None -> None

(* the scrubber patrol lives at the end of the file: after migrating an
   inode's blocks it must re-derive live mappings via [remap_quietly] *)

(* ------------------------------------------------------------------ *)
(* DAX mmap                                                             *)
(* ------------------------------------------------------------------ *)

(** [mmap t inode ~off ~len] maps the byte range with MAP_POPULATE
    semantics: all page faults are taken now, 2 MB faults when the backing
    extent allows it. Returns the mapping used for direct loads/stores. *)
let mmap t inode ~off ~len =
  if off mod block_size <> 0 || len <= 0 then Fsapi.Errno.(error EINVAL "mmap");
  let npages = (len + block_size - 1) / block_size in
  let pages = Array.make npages (-1) in
  let first = off / block_size in
  let covered = ref 0 in
  while !covered < npages do
    match Extent_tree.find inode.extents (first + !covered) with
    | Some (phys, run) ->
        let n = min run (npages - !covered) in
        for i = 0 to n - 1 do
          pages.(!covered + i) <- phys + i
        done;
        covered := !covered + n
    | None -> incr covered
  done;
  (* Huge mapping iff the whole range is one physically-contiguous,
     2 MB-aligned run of 2 MB multiples. *)
  let huge =
    (timing t).Timing.huge_pages_enabled
    && npages mod blocks_per_huge = 0
    && npages > 0
    && pages.(0) >= 0
    && pages.(0) mod blocks_per_huge = 0
    && first mod blocks_per_huge = 0
    &&
    let ok = ref true in
    for i = 1 to npages - 1 do
      if pages.(i) <> pages.(0) + i then ok := false
    done;
    !ok
  in
  let stats = t.env.Env.stats in
  let tm = timing t in
  if huge then begin
    let faults = npages / blocks_per_huge in
    stats.Stats.page_faults <- stats.Stats.page_faults + faults;
    stats.Stats.page_faults_huge <- stats.Stats.page_faults_huge + faults;
    cpu t (float_of_int faults *. tm.Timing.page_fault_huge)
  end
  else begin
    let faults = Array.fold_left (fun acc p -> if p >= 0 then acc + 1 else acc) 0 pages in
    stats.Stats.page_faults <- stats.Stats.page_faults + faults;
    cpu t (float_of_int faults *. tm.Timing.page_fault)
  end;
  stats.Stats.mmap_setups <- stats.Stats.mmap_setups + 1;
  let m = { m_ino = inode.ino; m_off = off; m_len = len; pages; m_huge = huge } in
  t.live_maps <- m :: t.live_maps;
  m

(** [translate m ~file_off] gives the device address backing [file_off] and
    the number of contiguously mapped bytes from there; [None] on a hole or
    outside the mapping. [max] bounds the run-length scan: callers that will
    cap the run at [n] bytes anyway should pass [~max:n], which stops the
    page walk as soon as [n] contiguous bytes are proven — on a fully
    contiguous staging mapping the unbounded walk is O(mapping size). The
    returned run may exceed [max] (it ends on a page boundary) but is only
    guaranteed maximal when it is shorter than [max]. *)
let translate t m ~max ~file_off =
  if file_off < m.m_off || file_off >= m.m_off + m.m_len then None
  else begin
    let rel = file_off - m.m_off in
    let page = rel / block_size in
    let in_page = rel mod block_size in
    if m.pages.(page) < 0 then None
    else begin
      (* extend across physically-contiguous pages *)
      let run = ref (block_size - in_page) in
      let p = ref page in
      while
        !run < max
        && !p + 1 < Array.length m.pages
        && m.pages.(!p + 1) = m.pages.(!p) + 1
        && m.m_off + ((!p + 1) * block_size) < m.m_off + m.m_len
      do
        incr p;
        run := !run + block_size
      done;
      let limit = m.m_len - rel in
      Some (block_addr t m.pages.(page) + in_page, min !run limit)
    end
  end

(** Build a mapping over an already-faulted range without charging traps or
    faults — used by U-Split to retain mappings across relink (the modified
    ioctl keeps existing mappings valid, §3.5). *)
let mmap_retained (t : t) inode ~off ~len =
  if off mod block_size <> 0 || len <= 0 then
    Fsapi.Errno.(error EINVAL "mmap_retained");
  let npages = (len + block_size - 1) / block_size in
  let pages = Array.make npages (-1) in
  let first = off / block_size in
  for i = 0 to npages - 1 do
    pages.(i) <-
      (match Extent_tree.find inode.extents (first + i) with
      | Some (phys, _) -> phys
      | None -> -1)
  done;
  let m = { m_ino = inode.ino; m_off = off; m_len = len; pages; m_huge = false } in
  t.live_maps <- m :: t.live_maps;
  m

(** Forget the mappings [ms], which their owner dropped: no later
    copy-on-write or scrub fixes up their page arrays. *)
let forget_maps t ms =
  if ms <> [] then
    t.live_maps <- List.filter (fun m -> not (List.memq m ms)) t.live_maps

(** Mappings the kernel still tracks (test hook). *)
let live_map_count t = List.length t.live_maps

(** Re-derive the page array of an existing mapping after [relink]
    re-pointed the file's extents, or only its pages over the byte range
    [range] = [(off, len)] when the blocks changed there alone; charges
    nothing (the paper's modified ioctl keeps mappings valid without
    faults). *)
let remap_quietly ?range t inode m =
  let first = m.m_off / block_size in
  let lo, hi =
    match range with
    | None -> (0, Array.length m.pages - 1)
    | Some (off, len) ->
        ( max 0 ((off / block_size) - first),
          min
            (Array.length m.pages - 1)
            (((off + len - 1) / block_size) - first) )
  in
  for i = lo to hi do
    m.pages.(i) <-
      (match Extent_tree.find inode.extents (first + i) with
      | Some (phys, _) -> phys
      | None -> -1)
  done;
  ignore t

(* ------------------------------------------------------------------ *)
(* Scrubber patrol (PR 5)                                               *)
(* ------------------------------------------------------------------ *)

(** Scrubber patrol: walk every regular file and migrate its data off
    blocks that are worn to [wear_limit] writes or hold poisoned lines,
    then retire the bad blocks so the allocator never hands them out
    again. Unreadable (poisoned) lines are zeroed at the destination and
    marked quarantined by the device — data loss is surfaced, never
    silent. Live mappings of a migrated inode are re-derived, the way the
    kernel would fix up page tables. When the device has no spare blocks
    the bad data stays in place (reads keep faulting and their caller
    quarantines). Returns the number of blocks migrated. *)
let scrub t ~wear_limit =
  Env.with_span t.env ~cat:Obs.Kernel ~name:"k:scrub" @@ fun () ->
  let dev = t.env.Env.dev in
  let faults = t.env.Env.faults in
  let migrated = ref 0 in
  let scrub_inode inode =
    if inode.kind = Fsapi.Fs.Regular then begin
      (* collect first: migration rewrites the extent tree under us *)
      let bad = ref [] in
      Extent_tree.iter
        (fun e ->
          for i = 0 to e.Extent_tree.len - 1 do
            let phys = e.Extent_tree.physical + i in
            if
              Device.block_needs_scrub dev ~addr:(block_addr t phys)
                ~limit:wear_limit
            then bad := (e.Extent_tree.logical + i, phys) :: !bad
          done)
        inode.extents;
      let before = !migrated in
      List.iter
        (fun (lblk, phys) ->
          cpu_cat t Obs.Alloc (timing t).Timing.ext4_alloc_cpu;
          match Alloc.alloc_extent t.alloc ~goal:(-1) ~len:1 with
          | exception Fsapi.Errno.Error (Fsapi.Errno.ENOSPC, _) -> ()
          | fresh, _ ->
              ignore
                (Device.migrate_block dev ~src:(block_addr t phys)
                   ~dst:(block_addr t fresh));
              ignore
                (Extent_tree.remove_range inode.extents ~logical:lblk ~len:1);
              Extent_tree.insert inode.extents ~logical:lblk ~physical:fresh
                ~len:1;
              cpu t (timing t).Timing.ext4_extent_cpu;
              (* a snapshot-shared bad block is only retired by its last
                 owner; earlier owners just drop their share and move on *)
              (match Hashtbl.find_opt t.shared phys with
              | Some n when n > 1 -> Hashtbl.replace t.shared phys (n - 1)
              | Some _ -> Hashtbl.remove t.shared phys
              | None -> Alloc.retire t.alloc ~start:phys ~len:1);
              Faults.note_scrub_migration faults;
              incr migrated)
        (List.rev !bad);
      if !migrated > before then
        List.iter
          (fun m -> if m.m_ino = inode.ino then remap_quietly t inode m)
          t.live_maps
    end
  in
  (* visit inodes in ino order: the patrol's charges must not depend on
     hash-table iteration order *)
  let inos =
    Hashtbl.fold (fun ino _ acc -> ino :: acc) t.inodes []
    |> List.sort compare
  in
  List.iter
    (fun ino ->
      match Hashtbl.find_opt t.inodes ino with
      | Some inode -> scrub_inode inode
      | None -> ())
    inos;
  if !migrated > 0 then
    Journal.commit t.journal ~meta_blocks:(min 8 (1 + !migrated));
  !migrated
