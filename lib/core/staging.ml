(** Staging files (paper §3.3, §3.5).

    A pool of pre-allocated PM files absorbs appends (and, in strict mode,
    overwrites). Pre-allocation happens at startup and, afterwards, from a
    background thread, keeping file creation off the critical path. Each
    staging file is fully memory-mapped once — with 2 MB-aligned extents when
    the allocator can provide them, so its pages are huge and survive for the
    whole run (the collection-of-mmaps answer to huge-page fragility, §4).

    A handle is exclusively owned by one target file from the first staged
    write until relink; afterwards it returns to the pool if enough space
    remains, or is retired and replaced in the background. *)

open Pmem

let block_size = Kernelfs.Ext4.block_size

type pm_file = {
  sfd : int;
  s_ino : int;
  s_path : string;
  mapping : Kernelfs.Ext4.mapping;
}

type backing =
  | Pm_file of pm_file  (** a pre-allocated PM file, relinkable into targets *)
  | Dram of Bytes.t
      (** a volatile DRAM buffer (the §4 alternative design); cheaper to
          write but must be copied to PM on fsync and lost on crash *)

type handle = {
  h_id : int;
  backing : backing;
  s_size : int;
  mutable cursor : int;  (** next unreserved byte *)
}

type t = {
  sys : Kernelfs.Syscall.t;
  env : Env.t;
  file_size : int;
  dir : string;
  in_dram : bool;
  mutable ring : handle array;
      (** the pool, a FIFO: [pooled] handles from slot [head] on,
          wrapping; other slots hold [vacant]. The paper uses a lock-free
          queue; the simulation is single-domain, so a ring carries the
          same semantics *)
  mutable head : int;
  mutable pooled : int;
  mutable created : int;
  mutable live : int;
}

(* Fills the ring's empty slots. A ring rather than stdlib [Queue]: each
   Queue push allocates a cell linked from the previous tail cell, and a
   pop leaves the popped cell's link in place. Once a push links from a
   cell already in the major heap, every cell pushed after it is
   reachable from the remembered set at the next minor GC and is
   promoted, popped or not: major-heap garbage at every acquire/release
   cycle. Storing a long-lived handle into a ring slot allocates
   nothing. *)
let vacant = { h_id = -1; backing = Dram Bytes.empty; s_size = 0; cursor = 0 }

(** Fields of a PM-backed handle; raises on DRAM handles (which cannot be
    relinked). *)
let pm_backing h =
  match h.backing with
  | Pm_file b -> b
  | Dram _ -> Fsapi.Errno.(error EINVAL "staging: DRAM handle has no PM file")

let sfd h = (pm_backing h).sfd
let s_ino h = match h.backing with Pm_file b -> b.s_ino | Dram _ -> -1
let is_dram h = match h.backing with Dram _ -> true | Pm_file _ -> false

let staging_dir_of instance = Printf.sprintf "/.splitfs-%d" instance

let new_handle t =
  t.created <- t.created + 1;
  t.live <- t.live + 1;
  let backing =
    if t.in_dram then Dram (Bytes.make t.file_size '\000')
    else begin
      let path = Printf.sprintf "%s/staging-%d" t.dir (t.created - 1) in
      let sfd = Kernelfs.Syscall.open_ t.sys path Fsapi.Flags.create_rw in
      (* pre-allocation runs under the [Staging_prealloc] origin so a
         fault campaign can starve exactly this path (exercising the
         degraded-write fallback) while foreground allocations stay
         healthy; on ENOSPC the half-made file is torn down so the
         caller sees a clean failure *)
      (try
         Faults.with_origin t.env.Env.faults Faults.Staging_prealloc
           (fun () ->
             ignore (Kernelfs.Syscall.fallocate t.sys sfd ~off:0 ~len:t.file_size))
       with Fsapi.Errno.Error (Fsapi.Errno.ENOSPC, _) as e ->
         Kernelfs.Syscall.close t.sys sfd;
         Kernelfs.Syscall.unlink t.sys path;
         t.live <- t.live - 1;
         raise e);
      (* the file size covers the whole pre-allocation so that crash
         recovery can read staged bytes through the kernel *)
      Kernelfs.Syscall.set_size t.sys sfd t.file_size;
      let mapping = Kernelfs.Syscall.mmap t.sys sfd ~off:0 ~len:t.file_size in
      Pm_file
        {
          sfd;
          s_ino = (Kernelfs.Syscall.fstat t.sys sfd).Fsapi.Fs.st_ino;
          s_path = path;
          mapping;
        }
    end
  in
  { h_id = t.created - 1; backing; s_size = t.file_size; cursor = 0 }

(** Append [h] to the pool; a full ring doubles, keeping FIFO order. *)
let push t h =
  let cap = Array.length t.ring in
  if t.pooled = cap then begin
    let grown = Array.make (2 * cap) vacant in
    for k = 0 to cap - 1 do
      grown.(k) <- t.ring.((t.head + k) mod cap)
    done;
    t.ring <- grown;
    t.head <- 0
  end;
  t.ring.((t.head + t.pooled) mod Array.length t.ring) <- h;
  t.pooled <- t.pooled + 1

let create ?(in_dram = false) ~sys ~env ~instance ~count ~file_size () =
  let dir = staging_dir_of instance in
  if not in_dram then (
    match Kernelfs.Syscall.mkdir sys dir with
    | () -> ()
    | exception Fsapi.Errno.Error (Fsapi.Errno.EEXIST, _) -> ());
  let t =
    {
      sys;
      env;
      file_size;
      dir;
      in_dram;
      ring = Array.make (max 1 count) vacant;
      head = 0;
      pooled = 0;
      created = 0;
      live = 0;
    }
  in
  for _ = 1 to count do
    push t (new_handle t)
  done;
  t

(** A copy of [t] on [sys] and [env], clones of its own, with each PM
    handle's mapping replaced by [mapping]'s copy of it. Returns the
    copy and the function that maps one of [t]'s handles to its copy,
    the same object for every holder. *)
let clone t ~sys ~env ~mapping =
  let handles =
    Fsapi.Share.create (fun h ->
        if h == vacant then h
        else
          let backing =
            match h.backing with
            | Pm_file b -> Pm_file { b with mapping = mapping b.mapping }
            | Dram b -> Dram (Bytes.copy b)
          in
          { h with backing; cursor = h.cursor })
  in
  ( { t with sys; env; ring = Array.map (Fsapi.Share.get handles) t.ring },
    Fsapi.Share.get handles )

let pool_size t = t.pooled
let live_files t = t.live

(** Pop a staging file; if the pool ran dry (burst), one is created in the
    foreground — the cost the background thread normally hides. *)
let acquire t =
  if t.pooled = 0 then new_handle t
  else begin
    let h = t.ring.(t.head) in
    t.ring.(t.head) <- vacant;
    t.head <- (t.head + 1) mod Array.length t.ring;
    t.pooled <- t.pooled - 1;
    h
  end

let retire t h =
  (match h.backing with
  | Pm_file b ->
      Kernelfs.Syscall.close t.sys b.sfd;
      Kernelfs.Syscall.unlink t.sys b.s_path
  | Dram _ -> ());
  t.live <- t.live - 1

(** Return a handle after relink. Mostly-consumed handles are retired and a
    replacement is pre-allocated by the background thread. *)
let release t h =
  let min_useful = max block_size (t.file_size / 8) in
  if h.s_size - h.cursor >= min_useful then push t h
  else begin
    retire t h;
    Env.in_background t.env (fun () ->
        (* the background thread absorbs pre-allocation ENOSPC silently:
           the pool just stays one file short and the next [acquire]
           retries in the foreground *)
        match new_handle t with
        | h -> push t h
        | exception Fsapi.Errno.Error (Fsapi.Errno.ENOSPC, _) -> ())
  end

let remaining h = h.s_size - h.cursor

(** Reserve [len] bytes whose in-block offset equals [align_rem] (so relink
    can swap whole blocks and only copy partial boundary blocks). Distinct
    reservations never share a staging block — relink may move a
    reservation's partial tail block wholesale, so a block must have a
    single owner. Returns the staging offset, or [None] if the handle
    lacks space. *)
let reserve h ~align_rem len =
  assert (align_rem >= 0 && align_rem < block_size);
  let base =
    if h.cursor mod block_size = 0 then h.cursor + align_rem
    else ((h.cursor / block_size) + 1) * block_size + align_rem
  in
  if base + len > h.s_size then None
  else begin
    h.cursor <- base + len;
    Some base
  end

(** Reserve continuing exactly at the previous reservation's end (used to
    coalesce consecutive appends into one staged run). *)
let reserve_contiguous h ~at len =
  if at = h.cursor && at + len <= h.s_size then begin
    h.cursor <- at + len;
    true
  end
  else false

let translate t h ~max ~off =
  Kernelfs.Ext4.translate (Kernelfs.Syscall.kernel t.sys) (pm_backing h).mapping
    ~max ~file_off:off

(** User-space write into the staging area — no kernel involvement.
    PM-backed handles take non-temporal stores through the mapping; DRAM
    handles pay only DRAM bandwidth (§4 ablation). With [zero] the
    stored bytes are zeros ({!Device.zero_nt} on PM) and [buf] is not
    read. *)
let store t h ~zero ~off buf ~boff ~len =
  (match h.backing with
  | Dram b ->
      if zero then Bytes.fill b off len '\000' else Bytes.blit buf boff b off len;
      Env.cpu t.env
        (float_of_int len *. t.env.Env.timing.Timing.dram_write_per_byte)
  | Pm_file _ ->
      let pos = ref off and src = ref boff and remaining = ref len in
      while !remaining > 0 do
        match translate t h ~max:!remaining ~off:!pos with
        | Some (addr, run) ->
            let n = min run !remaining in
            if zero then Device.zero_nt t.env.Env.dev ~addr ~len:n
            else Device.store_nt t.env.Env.dev ~addr buf ~off:!src ~len:n;
            pos := !pos + n;
            src := !src + n;
            remaining := !remaining - n
        | None -> Fsapi.Errno.(error EINVAL "staging: hole in mapping")
      done);
  let stats = t.env.Env.stats in
  stats.Stats.staged_bytes <- stats.Stats.staged_bytes + len

let write t h ~off buf ~boff ~len = store t h ~zero:false ~off buf ~boff ~len

(** [write] of [len] zeros at [off], with no buffer of them. *)
let zero t h ~off ~len = store t h ~zero:true ~off Bytes.empty ~boff:0 ~len

(** User-space read of staged bytes. *)
let read t h ~off buf ~boff ~len =
  match h.backing with
  | Dram b ->
      Bytes.blit b off buf boff len;
      Env.cpu t.env
        (t.env.Env.timing.Timing.dram_read_lat
        +. (float_of_int len /. t.env.Env.timing.Timing.dram_read_bw))
  | Pm_file _ ->
      let pos = ref off and dst = ref boff and remaining = ref len in
      while !remaining > 0 do
        match translate t h ~max:!remaining ~off:!pos with
        | Some (addr, run) ->
            let n = min run !remaining in
            Device.load t.env.Env.dev ~addr buf ~off:!dst ~len:n;
            pos := !pos + n;
            dst := !dst + n;
            remaining := !remaining - n
        | None -> Fsapi.Errno.(error EINVAL "staging: hole in mapping")
      done
