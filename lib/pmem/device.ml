(** Simulated byte-addressable persistent-memory device.

    The device models the persistence behaviour of Intel Optane DC PMM under
    ADR: non-temporal stores are durable once they reach the memory
    controller, temporal stores live in the (volatile) CPU cache until the
    line is flushed. A crash discards every dirty cache line.

    [persistent] holds the durable image. Dirty cache lines live in a
    [shadow] image (at the same offsets as the durable image) indexed by a
    bitmap: bit [l mod 32] of word [l / 32] in [dirty] is set iff line
    [l] holds unflushed cached data, and [dirty_count] counts the set bits.
    A device allocates what its run touches, not its capacity: both images
    are sparse ({!Image}: 4 KiB chunks, and the table of them, allocated
    on first write), the dirty bitmap is made at the first temporal store
    (a run of NT stores never makes one), and the per-block wear counters
    live in 64 KiB-region leaves made at the region's first write. When
    [dirty_count] is zero — the common state right after any fsync/relink
    — [load] and [store_nt] degenerate to a single image copy plus cost
    accounting, with zero per-line work. The slow paths coalesce
    contiguous clean/dirty line spans into batched copies.

    Host-side data-structure choices must never change simulated-time
    results: every code path charges exactly the per-line costs the
    line-at-a-time implementation charged (see test/test_device_diff.ml,
    which checks this against a naive reference model). All accesses charge
    simulated time on the shared clock and update the shared statistics. *)

let line_size = 64
let block_size = 4096

(* One bitmap word covers 32 cache lines (2 KB); OCaml's 63-bit native ints
   keep all mask arithmetic unboxed. *)
let lines_per_word = 32
let word_mask = 0xFFFFFFFF

(* ------------------------------------------------------------------ *)
(* Sparse image                                                         *)
(* ------------------------------------------------------------------ *)

(** A capacity-sized byte image held as fixed 4 KiB chunks, each
    allocated on its first write, in a chunk table allocated at the
    image's first write. A chunk is a whole number of blocks, so a line or
    block never straddles two chunks; ranges that do (long loads and
    stores) are split per chunk. A durable image zero-fills its chunks,
    and an absent chunk reads as zero. A shadow image leaves them
    uninitialised: a shadow line is read only while its dirty bit is set,
    and setting it always writes the line first. Every access to either
    image goes through [read], [write], [zero], [copy], [absent], [sub],
    [line] and [write_line]. *)
module Image = struct
  let chunk_bits = 12
  let chunk_size = 1 lsl chunk_bits
  let chunk_mask = chunk_size - 1
  let () = assert (chunk_size mod block_size = 0)

  type t = {
    nchunks : int;
    mutable chunks : Bytes.t array;
        (** [[||]] until the image is first written; then one cell per
            chunk, [Bytes.empty] until that chunk is first written *)
    zeroed : bool;  (** chunks are zero-filled: absent reads as zero *)
  }

  let create ~capacity ~zeroed =
    { nchunks = (capacity + chunk_mask) lsr chunk_bits; chunks = [||]; zeroed }

  (** Chunk [c], or [Bytes.empty] if it was never written. *)
  let chunk img c =
    let chunks = img.chunks in
    if c < Array.length chunks then chunks.(c) else Bytes.empty

  let chunk_for_write img c =
    if Array.length img.chunks = 0 then
      img.chunks <- Array.make img.nchunks Bytes.empty;
    let ch = img.chunks.(c) in
    if Bytes.length ch > 0 then ch
    else begin
      let ch =
        if img.zeroed then Bytes.make chunk_size '\000'
        else Bytes.create chunk_size
      in
      img.chunks.(c) <- ch;
      ch
    end

  (** Copy [len] image bytes at [addr] into [dst] at [off]. *)
  let read img ~addr dst ~off ~len =
    let addr = ref addr and off = ref off and len = ref len in
    while !len > 0 do
      let within = !addr land chunk_mask in
      let n = min !len (chunk_size - within) in
      let ch = chunk img (!addr lsr chunk_bits) in
      if Bytes.length ch = 0 then Bytes.fill dst !off n '\000'
      else Bytes.blit ch within dst !off n;
      addr := !addr + n;
      off := !off + n;
      len := !len - n
    done

  (** Copy [len] bytes of [src] at [off] into the image at [addr]. *)
  let write img ~addr src ~off ~len =
    let addr = ref addr and off = ref off and len = ref len in
    while !len > 0 do
      let within = !addr land chunk_mask in
      let n = min !len (chunk_size - within) in
      Bytes.blit src !off (chunk_for_write img (!addr lsr chunk_bits)) within n;
      addr := !addr + n;
      off := !off + n;
      len := !len - n
    done

  (** Copy [addr, addr+len) of [src] to the same offsets of [dst]. *)
  let copy ~src ~dst ~addr ~len =
    let addr = ref addr and len = ref len in
    while !len > 0 do
      let c = !addr lsr chunk_bits and within = !addr land chunk_mask in
      let n = min !len (chunk_size - within) in
      let s = chunk src c in
      if Bytes.length s > 0 then
        Bytes.blit s within (chunk_for_write dst c) within n
      else if Bytes.length (chunk dst c) > 0 || not dst.zeroed then
        Bytes.fill (chunk_for_write dst c) within n '\000';
      addr := !addr + n;
      len := !len - n
    done

  (** Zero [len] image bytes at [addr]. In a durable image an absent
      chunk already reads as zero, so it stays absent. *)
  let zero img ~addr ~len =
    let addr = ref addr and len = ref len in
    while !len > 0 do
      let c = !addr lsr chunk_bits and within = !addr land chunk_mask in
      let n = min !len (chunk_size - within) in
      if Bytes.length (chunk img c) > 0 || not img.zeroed then
        Bytes.fill (chunk_for_write img c) within n '\000';
      addr := !addr + n;
      len := !len - n
    done

  (** Every chunk holding a byte of [addr, addr+len) is absent from a
      durable image: the range reads as zero and was never written. *)
  let absent img ~addr ~len =
    let c = ref (addr lsr chunk_bits) and last = (addr + len - 1) lsr chunk_bits in
    while !c <= last && Bytes.length (chunk img !c) = 0 do incr c done;
    img.zeroed && !c > last

  (** A fresh copy of [len] image bytes at [addr]. *)
  let sub img ~addr ~len =
    let b = Bytes.create len in
    read img ~addr b ~off:0 ~len;
    b

  (** One all-zero line, shared by every caller of [line]. *)
  let zero_line = Bytes.make line_size '\000'

  (** The line at [addr] as a buffer nobody may write: [zero_line] for a
      line in an absent chunk of a durable image, a fresh copy
      otherwise. *)
  let line img ~addr =
    if img.zeroed && Bytes.length (chunk img (addr lsr chunk_bits)) = 0 then
      zero_line
    else sub img ~addr ~len:line_size

  (** Write line content [b] at [addr]; [zero_line] leaves an absent
      chunk absent. *)
  let write_line img ~addr b =
    if b == zero_line then zero img ~addr ~len:line_size
    else write img ~addr b ~off:0 ~len:line_size
end

(* ------------------------------------------------------------------ *)
(* Persist-order journal (crash-state exploration support)              *)
(* ------------------------------------------------------------------ *)

(** One post-commit version of a cache line: its full 64-byte content
    after the store that created it. [nt] marks non-temporal stores (which
    real hardware may tear at 8-byte granularity); [reached] means the
    content has reached the persistence domain (NT store, clwb, or the
    writeback an NT store forces on a covered dirty line) and will be
    committed by the next fence. [vdata] is never written once captured,
    so a commit can make it the line's base and lines can share one
    buffer ({!Image.zero_line}). *)
type jversion = { vdata : Bytes.t; nt : bool; mutable reached : bool }

(** Pending state of journalled line [jl_line]. [jbase] is the line's
    durable content as of the last fence (the state a crash falls back
    to when no later version survives), immutable like [vdata];
    [jversions] are the post-commit versions, newest first. *)
type jline = {
  jl_line : int;
  mutable jbase : Bytes.t;
  mutable jversions : jversion list;
}

let no_jline = { jl_line = -1; jbase = Bytes.empty; jversions = [] }

(** Survivor choice for one line in a partial crash: keep the first
    [s_keep] pending versions (0 = revert to the fence-committed base).
    [s_tear] is an 8-bit mask over the kept frontier version's eight
    8-byte chunks; set bits revert that chunk to the previous version —
    modelling a non-temporal store that only partially reached media. *)
type survivor = { s_line : int; s_keep : int; s_tear : int }

(** Pending summary of one line, exposed to the exploration engine:
    [p_versions] pending versions, bit [k] of [p_nt_mask] set iff version
    [k+1] (1-based, oldest first) came from a non-temporal store. *)
type pending_line = { p_line : int; p_versions : int; p_nt_mask : int }

(* The journal's table, keyed by line number. Line numbers are small
   non-negative ints, so the number itself picks the bucket: no call to
   the generic hash and compare for every line a store touches. *)
module Lines = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash l = l
end)

(** [jlines] holds only lines a crash can still change: those with
    pending versions, and those touched since the last fence. A fence
    drops every line it leaves without pending versions. Such a line's
    base equals its durable content, because every durable write while
    journalling pushes or promotes a version, so a later touch
    recaptures the same base.

    One rule keeps the space small: a store whose post-store line
    content equals the line's frontier (newest pending version, or the
    base when none is pending) adds no version. Surviving the duplicate
    is indistinguishable from surviving its predecessor, so every
    distinct crash image stays reachable; what goes is the padding, above
    all the all-zero jbd2 blocks written over a zeroed journal area. *)
type journal = {
  jlines : jline Lines.t;
  mutable jlive : jline array;
      (** the lines of [jlines] in [0, jcount), walked by a fence and a
          crash instead of the table's buckets; [no_jline] beyond *)
  mutable jcount : int;
  mutable j_fences : int;  (** fences observed since [journal_begin] *)
  j_fence_pending : (int, pending_line array) Hashtbl.t;
      (** per fence index, the pending summary captured just before that
          fence committed (or would have committed); recorded only while
          no crash is armed *)
  mutable j_trip_fence : int;  (** fence index to crash at; -1 = disarmed *)
  mutable j_trip_survivors : survivor list;
}

exception Crashed

(* ------------------------------------------------------------------ *)
(* Fence-site registry (fence minimization support)                     *)
(*                                                                      *)
(* Every ordering instruction the file-system layers issue registers a   *)
(* named site id at module initialisation and passes it to [fence]/      *)
(* [flush]. The minimizer elides one site at a time — a faithful model   *)
(* of deleting that sfence/clwb from the source: no ordering commit, no  *)
(* simulated-time charge, no stats — and lets exhaustive crash-state     *)
(* exploration either prove the site redundant or exhibit a              *)
(* counterexample. Site *names* are source locations, so the registry is *)
(* global but immutable after module initialisation (every               *)
(* [register_fence_site] call is a top-level binding, executed before    *)
(* any campaign domain spawns); all run state — hit counters and the     *)
(* elision mask — is per-device, so concurrent domains can elide         *)
(* different sites without observing each other.                         *)
(* ------------------------------------------------------------------ *)

let fence_site_names : string array ref = ref [||]

let register_fence_site name =
  let id = Array.length !fence_site_names in
  fence_site_names := Array.append !fence_site_names [| name |];
  id

let fence_sites () =
  Array.to_list (Array.mapi (fun i n -> (i, n)) !fence_site_names)

type t = {
  capacity : int;
  persistent : Image.t;  (** the durable image *)
  shadow : Image.t;  (** dirty-line contents at their device offsets *)
  mutable dirty : int array;
      (** dirty-line bitmap, one word per 32 lines; [[||]] until the first
          temporal store, the only operation that sets a bit *)
  mutable dirty_count : int;  (** number of set bits in [dirty] *)
  wear : int array array;
      (** write count per 4 KB block, one leaf of [wear_leaf] counters per
          64 KiB region; [[||]] until the region is first written *)
  clock : Simclock.t;
  timing : Timing.t;
  stats : Stats.t;
  mutable last_read_start : int;  (** to classify sequential vs random reads *)
  mutable last_read_end : int;
  mutable journal : journal option;
      (** persist-order journal; opt-in ([journal_begin]) and purely
          passive — it never changes simulated-time charges *)
  mutable halted : bool;
      (** set when an armed partial crash fired: every device operation is
          ignored until [resume], so unwinding code cannot disturb the
          chosen crash image *)
  mutable media_free_at : float;
      (** virtual time the media finishes its last accepted transfer; the
          shared-bandwidth contention model (multi-actor only) queues a new
          transfer behind it, M/D/1-style in dispatch order *)
  (* --- media faults (PR 5) --- *)
  faults : Faults.t option;
      (** outcome counters for the fault plane; the media-fault state
          itself lives in the tables below *)
  poison : (int, unit) Hashtbl.t;
      (** poisoned cache lines (by line index): a load served from media
          raises {!Faults.Poisoned}; a full-line write clears the poison,
          like a real PM DIMM's full-line-write clear *)
  quarantined : (int, unit) Hashtbl.t;
      (** lines whose content was lost and zeroed by a quarantine — the
          oracle's license for a zeroed range *)
  mutable last_poison : int;
      (** device address of the line behind the most recent
          {!Faults.Poisoned}; lets layers that only see the translated
          EIO find the line to quarantine. -1 = none *)
  (* --- per-device fence-site run state (PR 8) --- *)
  mutable site_hits : int array;
      (** executions per registered fence site on this device; grown on
          demand so a device created before every module registered is
          still safe *)
  mutable elided_fence_site : int;
      (** site id currently elided on this device; -1 = none. Per-device
          so parallel minimizer domains can each elide a different
          site. *)
}

(* Blocks per wear leaf: a leaf covers one 64 KiB region. *)
let wear_leaf = 16

let create ?(capacity = 64 * 1024 * 1024) ?faults ~clock ~timing ~stats () =
  assert (capacity mod block_size = 0);
  {
    capacity;
    persistent = Image.create ~capacity ~zeroed:true;
    shadow = Image.create ~capacity ~zeroed:false;
    dirty = [||];
    dirty_count = 0;
    wear =
      Array.make (((capacity / block_size) + wear_leaf - 1) / wear_leaf) [||];
    clock;
    timing;
    stats;
    last_read_start = -1;
    last_read_end = -1;
    journal = None;
    halted = false;
    media_free_at = 0.;
    faults;
    poison = Hashtbl.create 16;
    quarantined = Hashtbl.create 16;
    last_poison = -1;
    site_hits = Array.make (Array.length !fence_site_names) 0;
    elided_fence_site = -1;
  }

let site_hits t i = if i < Array.length t.site_hits then t.site_hits.(i) else 0
let elide_fence_site t i = t.elided_fence_site <- i

let capacity t = t.capacity
let check_range t addr len = addr >= 0 && len >= 0 && addr + len <= t.capacity

let charge_media t ns =
  (* Shared-bandwidth contention: with several actors the media is a
     deterministic M/D/1-style server — a transfer dispatched while the
     device is still busy waits for [media_free_at] first, then occupies
     the device for [ns / pm_channels] (DIMM interleave absorbs that much
     parallelism; the issuing actor still experiences the full [ns]
     latency). Single-actor clocks are monotone, so the branch can only
     ever charge a wait when a second actor exists; it stays inert (and
     bit-identical to the pre-actor model) otherwise. *)
  let obs = Simclock.obs t.clock in
  if Simclock.multi t.clock then begin
    let now = Simclock.now t.clock in
    if t.media_free_at > now then begin
      let wait = t.media_free_at -. now in
      Obs.push obs Obs.Bw_wait;
      Simclock.advance t.clock wait;
      Obs.pop obs;
      t.stats.Stats.bw_wait_ns <- t.stats.Stats.bw_wait_ns +. wait;
      let a = Simclock.current t.clock in
      a.Simclock.a_bw_wait_ns <- a.Simclock.a_bw_wait_ns +. wait
    end;
    t.media_free_at <-
      Simclock.now t.clock
      +. (ns /. float_of_int (max 1 t.timing.Timing.pm_channels));
    let a = Simclock.current t.clock in
    a.Simclock.a_media_ns <- a.Simclock.a_media_ns +. ns
  end;
  Obs.push obs Obs.Media;
  Simclock.advance t.clock ns;
  Obs.pop obs;
  t.stats.Stats.media_ns <- t.stats.Stats.media_ns +. ns

let add_wear t addr len =
  let first = addr / block_size and last = (addr + len - 1) / block_size in
  for b = first to last do
    let r = b / wear_leaf in
    if Array.length t.wear.(r) = 0 then t.wear.(r) <- Array.make wear_leaf 0;
    let leaf = t.wear.(r) and i = b mod wear_leaf in
    leaf.(i) <- leaf.(i) + 1
  done

(* ------------------------------------------------------------------ *)
(* Dirty-line bitmap index                                              *)
(* ------------------------------------------------------------------ *)

let popcount32 n =
  let n = n - ((n lsr 1) land 0x55555555) in
  let n = (n land 0x33333333) + ((n lsr 2) land 0x33333333) in
  let n = (n + (n lsr 4)) land 0x0F0F0F0F in
  (n * 0x01010101) lsr 24 land 0x3F

(* Bits [lo..hi] of a word, inclusive. *)
let range_mask lo hi = ((1 lsl (hi - lo + 1)) - 1) lsl lo

let line_dirty t line =
  t.dirty.(line lsr 5) land (1 lsl (line land 31)) <> 0

let bump_dirty t added =
  t.dirty_count <- t.dirty_count + added;
  if t.dirty_count > t.stats.Stats.dirty_lines_hwm then
    t.stats.Stats.dirty_lines_hwm <- t.dirty_count

(** Seed the shadow copy of a clean line from the durable image and mark it
    dirty; no-op on already-dirty lines (their shadow content is newest). *)
let init_line_if_clean t line =
  let w = line lsr 5 and bit = 1 lsl (line land 31) in
  if t.dirty.(w) land bit = 0 then begin
    Image.copy ~src:t.persistent ~dst:t.shadow ~addr:(line * line_size)
      ~len:line_size;
    t.dirty.(w) <- t.dirty.(w) lor bit;
    bump_dirty t 1
  end

(** Set every bit in [first..last], counting only newly-set bits. *)
let mark_range_dirty t first last =
  let wf = first lsr 5 and wl = last lsr 5 in
  for w = wf to wl do
    let lo = if w = wf then first land 31 else 0 in
    let hi = if w = wl then last land 31 else 31 in
    let mask =
      if lo = 0 && hi = 31 then word_mask else range_mask lo hi
    in
    let added = mask land lnot t.dirty.(w) in
    if added <> 0 then begin
      t.dirty.(w) <- t.dirty.(w) lor mask;
      bump_dirty t (popcount32 added)
    end
  done

(** Write every dirty line in [first..last] back to the durable image
    (coalescing consecutive lines into one blit) and clear its bit. Charges
    nothing — callers account for the operation that triggered it. *)
let writeback_dirty_range t first last =
  let wf = first lsr 5 and wl = last lsr 5 in
  for w = wf to wl do
    let lo = if w = wf then first land 31 else 0 in
    let hi = if w = wl then last land 31 else 31 in
    let mask =
      if lo = 0 && hi = 31 then word_mask else range_mask lo hi
    in
    let bits = t.dirty.(w) land mask in
    if bits <> 0 then begin
      let b = ref lo in
      while !b <= hi do
        if bits land (1 lsl !b) = 0 then incr b
        else begin
          let s = !b in
          while !b <= hi && bits land (1 lsl !b) <> 0 do incr b done;
          let off = ((w lsl 5) + s) * line_size in
          Image.copy ~src:t.shadow ~dst:t.persistent ~addr:off
            ~len:((!b - s) * line_size)
        end
      done;
      t.dirty.(w) <- t.dirty.(w) land lnot mask;
      t.dirty_count <- t.dirty_count - popcount32 bits
    end
  done

(** Last line of the maximal run starting at [line] (bounded by [last])
    whose lines all share [line]'s dirtiness [d]; whole bitmap words are
    skipped 32 lines at a time. *)
let span_end t ~d ~line ~last =
  let l = ref line in
  let continue = ref true in
  while !continue && !l < last do
    let next = !l + 1 in
    if next land 31 = 0 && last - next >= 31 then begin
      (* a full word ahead: skip it wholesale when uniform *)
      let w = t.dirty.(next lsr 5) in
      if d && w = word_mask then l := next + 31
      else if (not d) && w = 0 then l := next + 31
      else if line_dirty t next = d then l := next
      else continue := false
    end
    else if line_dirty t next = d then l := next
    else continue := false
  done;
  !l

(* ------------------------------------------------------------------ *)
(* Persist-order journal hooks                                          *)
(*                                                                      *)
(* The journal mirrors, per cache line, the sequence of contents that    *)
(* could be the line's post-crash state: the fence-committed base plus   *)
(* every store since. Under x86-TSO with ADR, a crash leaves each line   *)
(* at its base or at any single later version (caches may evict          *)
(* speculatively; clwb/NT stores may or may not have completed before    *)
(* the power loss), so the per-line choice space is "keep the first k    *)
(* versions" for k in 0..n. A fence commits the newest version that has  *)
(* reached the persistence domain and keeps cached-only newer versions   *)
(* pending; a line left with none leaves the journal, so a fence costs   *)
(* the lines stored since the last one plus those still pending. All     *)
(* hooks are passive: they never touch simulated time.                   *)
(* ------------------------------------------------------------------ *)

(** The line's jline, created on first touch since the last fence. *)
let j_touch j t line =
  match Lines.find_opt j.jlines line with
  | Some jl -> jl
  | None ->
      let jl =
        {
          jl_line = line;
          jbase = Image.line t.persistent ~addr:(line * line_size);
          jversions = [];
        }
      in
      Lines.add j.jlines line jl;
      if j.jcount = Array.length j.jlive then begin
        let grown = Array.make (2 * j.jcount) no_jline in
        Array.blit j.jlive 0 grown 0 j.jcount;
        j.jlive <- grown
      end;
      j.jlive.(j.jcount) <- jl;
      j.jcount <- j.jcount + 1;
      jl

(** The line's newest cached content reached the persistence domain
    (clwb, or the writeback an NT store forces). *)
let j_reached t jl line =
  match jl.jversions with
  | v :: _ -> v.reached <- true
  | [] ->
      (* dirty line with nothing pending (its store predates
         journal_begin, or it equals the committed content):
         record its cached content as the sole (reached) version *)
      jl.jversions <-
        [
          {
            vdata = Image.line t.shadow ~addr:(line * line_size);
            nt = false;
            reached = true;
          };
        ]

(** The line's current frontier content: newest pending version, or the
    fence-committed base when nothing is pending. *)
let j_frontier jl =
  match jl.jversions with v :: _ -> v.vdata | [] -> jl.jbase

(** After a temporal store: push one unreached version per touched line,
    holding the line's full post-store cached content, unless it equals
    the frontier. *)
let j_store t ~addr ~len =
  match t.journal with
  | None -> ()
  | Some j ->
      let first = addr / line_size and last = (addr + len - 1) / line_size in
      for line = first to last do
        let jl = j_touch j t line in
        let vdata = Image.line t.shadow ~addr:(line * line_size) in
        if not (Bytes.equal vdata (j_frontier jl)) then
          jl.jversions <-
            { vdata; nt = false; reached = false } :: jl.jversions
      done

(** Before an NT store's writeback/blit: capture line bases and mark
    cached content of covered dirty lines as reached (the store forces
    their writeback). Must run before [persistent] is modified. *)
let j_store_nt_pre t ~addr ~len =
  match t.journal with
  | None -> ()
  | Some j ->
      let first = addr / line_size and last = (addr + len - 1) / line_size in
      for line = first to last do
        let jl = j_touch j t line in
        if t.dirty_count > 0 && line_dirty t line then j_reached t jl line
      done

(** After an NT store's blit: push one reached NT version per line with
    the line's full post-store durable content, unless it equals the
    frontier. *)
let j_store_nt_post t ~addr ~len =
  match t.journal with
  | None -> ()
  | Some j ->
      let first = addr / line_size and last = (addr + len - 1) / line_size in
      for line = first to last do
        let jl = j_touch j t line in
        let vdata = Image.line t.persistent ~addr:(line * line_size) in
        if Bytes.equal vdata (j_frontier jl) then
          (* content already at the frontier; the NT store still reaches
             the persistence domain, so promote the frontier (a tear
             against identical content is a no-op) *)
          (match jl.jversions with
          | v :: _ -> v.reached <- true
          | [] -> () (* equals the committed base: nothing new pending *))
        else
          jl.jversions <- { vdata; nt = true; reached = true } :: jl.jversions
      done

(** A zero NT store the journal can skip: every line it covers is clean
    and in a never-written chunk, so it holds zeros with nothing pending
    and the per-line hooks would add no version. Nothing can be pending
    there: only a store that dirties the line or an NT store of content
    other than zeros pushes a version, and the line is clean again only
    once a writeback has written its chunk, or after a crash, which
    empties the journal. Must run before [persistent] is modified. *)
let j_zero_skip t ~addr ~len =
  t.journal <> None
  && Image.absent t.persistent ~addr ~len
  &&
  let first = addr / line_size and last = (addr + len - 1) / line_size in
  t.dirty_count = 0
  || ((not (line_dirty t first)) && span_end t ~d:false ~line:first ~last = last)

(** Before a flush writes dirty lines back: mark their newest cached
    versions reached. Must run before [persistent] is modified. *)
let j_flush t ~addr ~len =
  match t.journal with
  | None -> ()
  | Some j ->
      if t.dirty_count > 0 then begin
        let first = addr / line_size and last = (addr + len - 1) / line_size in
        for line = first to last do
          if line_dirty t line then begin
            let jl = j_touch j t line in
            j_reached t jl line
          end
        done
      end

(** Per-line pending summary, sorted by line for determinism. *)
let pending_summary j =
  let acc = ref [] in
  for i = 0 to j.jcount - 1 do
    let jl = j.jlive.(i) in
    if jl.jversions <> [] then begin
      let n = List.length jl.jversions in
      let mask = ref 0 in
      List.iteri
        (fun i v -> if v.nt then mask := !mask lor (1 lsl (n - 1 - i)))
        jl.jversions;
      acc := { p_line = jl.jl_line; p_versions = n; p_nt_mask = !mask } :: !acc
    end
  done;
  let arr = Array.of_list !acc in
  Array.sort (fun a b -> compare a.p_line b.p_line) arr;
  arr

(** Fence commit: for each line, the newest reached version becomes the
    new base; versions older than it can no longer survive a crash and
    are dropped; cached-only newer versions stay pending. A line left
    with no pending version leaves the journal. *)
let commit_journal j =
  let rec commit jl newer = function
    | [] -> ()
    | v :: older ->
        if v.reached then begin
          jl.jbase <- v.vdata;
          jl.jversions <- List.rev newer
        end
        else commit jl (v :: newer) older
  in
  let kept = ref 0 in
  for i = 0 to j.jcount - 1 do
    let jl = j.jlive.(i) in
    commit jl [] jl.jversions;
    if jl.jversions = [] then Lines.remove j.jlines jl.jl_line
    else begin
      j.jlive.(!kept) <- jl;
      incr kept
    end
  done;
  Array.fill j.jlive !kept (j.jcount - !kept) no_jline;
  j.jcount <- !kept

(** Drop every journalled line, as a crash does. *)
let reset_journal j =
  Lines.reset j.jlines;
  Array.fill j.jlive 0 j.jcount no_jline;
  j.jcount <- 0

(* Crash-state application --------------------------------------------- *)

(* Common post-crash reset: the cache is gone, read adjacency is
   meaningless, and the fast/slow-path hit counters restart so post-crash
   resource tables describe the cold simulator, not the pre-crash run. *)
let crash_common t =
  if t.dirty_count > 0 then begin
    Array.fill t.dirty 0 (Array.length t.dirty) 0;
    t.dirty_count <- 0
  end;
  t.last_read_start <- -1;
  t.last_read_end <- -1;
  t.stats.Stats.fast_path_hits <- 0;
  t.stats.Stats.slow_path_hits <- 0

(* Write one survivor choice into the durable image. [s_keep] is clamped
   to the line's pending-version count. *)
let apply_survivor t j s =
  match Lines.find_opt j.jlines s.s_line with
  | None -> ()
  | Some jl ->
      let n = List.length jl.jversions in
      let keep = max 0 (min n s.s_keep) in
      (* [jversions] is newest-first; version [k] counts oldest-first *)
      let version k = List.nth jl.jversions (n - k) in
      let kept = if keep = 0 then jl.jbase else (version keep).vdata in
      let content =
        if keep = 0 || s.s_tear land 0xFF = 0 then kept
        else begin
          (* line contents are shared: tear a copy *)
          let torn = Bytes.copy kept in
          let prev =
            if keep = 1 then jl.jbase else (version (keep - 1)).vdata
          in
          for c = 0 to 7 do
            if s.s_tear land (1 lsl c) <> 0 then
              Bytes.blit prev (c * 8) torn (c * 8) 8
          done;
          torn
        end
      in
      Image.write_line t.persistent ~addr:(s.s_line * line_size) content

(** Crash leaving a chosen subset of pending stores durable. Lines not
    named in [survivors] default to their newest pending content (every
    store to them persisted); a [survivor] entry reverts its line to an
    earlier version — optionally with an 8-byte-granularity tear against
    the version below it. The pending journal state is consumed. *)
let crash_partial t ~survivors =
  match t.journal with
  | None -> invalid_arg "Device.crash_partial: journaling is off"
  | Some j ->
      for i = 0 to j.jcount - 1 do
        let jl = j.jlive.(i) in
        match jl.jversions with
        | [] -> ()
        | v :: _ ->
            Image.write_line t.persistent ~addr:(jl.jl_line * line_size)
              v.vdata
      done;
      List.iter (apply_survivor t j) survivors;
      crash_common t;
      t.stats.Stats.partial_crashes <- t.stats.Stats.partial_crashes + 1;
      reset_journal j

(* ------------------------------------------------------------------ *)
(* Stores                                                               *)
(* ------------------------------------------------------------------ *)

(** Temporal store: data lands in the CPU cache and is lost on crash unless
    flushed. *)
let store t ~addr src ~off ~len =
  assert (check_range t addr len);
  if len > 0 && not t.halted then begin
    Simclock.advance t.clock
      (float_of_int len *. t.timing.Timing.cache_store_per_byte);
    if Array.length t.dirty = 0 then
      t.dirty <- Array.make (t.capacity / line_size / lines_per_word) 0;
    let first = addr / line_size and last = (addr + len - 1) / line_size in
    (* boundary lines may be partially covered: their bytes outside
       [addr, addr+len) must come from the durable image when clean;
       interior lines are fully overwritten below *)
    init_line_if_clean t first;
    if last <> first then init_line_if_clean t last;
    if last > first + 1 then mark_range_dirty t (first + 1) (last - 1);
    Image.write t.shadow ~addr src ~off ~len;
    j_store t ~addr ~len
  end

(** Non-temporal store: bypasses the cache; durable once a subsequent fence
    orders it (ADR makes it durable on arrival, the fence is ordering).
    With [zero] the stored bytes are zeros and [src] is not read. *)
let nt_store t ~zero ~addr src ~off ~len =
  assert (check_range t addr len);
  if len > 0 && not t.halted then begin
    let obs = Simclock.obs t.clock in
    let a = Simclock.current t.clock in
    let t0 = a.Simclock.a_now in
    let skip = zero && j_zero_skip t ~addr ~len in
    if not skip then j_store_nt_pre t ~addr ~len;
    if t.dirty_count = 0 then
      t.stats.Stats.fast_path_hits <- t.stats.Stats.fast_path_hits + 1
    else begin
      (* a covered line may hold older cached data; the NT store must
         invalidate it (the cached content reaches the durable image first,
         then the store overwrites its part) *)
      t.stats.Stats.slow_path_hits <- t.stats.Stats.slow_path_hits + 1;
      writeback_dirty_range t (addr / line_size) ((addr + len - 1) / line_size)
    end;
    if zero then Image.zero t.persistent ~addr ~len
    else Image.write t.persistent ~addr src ~off ~len;
    (* a fully-overwritten poisoned line is healed: the write replaces the
       bad ECC word wholesale (partially-covered boundary lines keep their
       poison — the device would have to read-modify-write them) *)
    if Hashtbl.length t.poison > 0 then begin
      let first_full = (addr + line_size - 1) / line_size
      and last_full = ((addr + len) / line_size) - 1 in
      for line = first_full to last_full do
        Hashtbl.remove t.poison line
      done
    end;
    if not skip then j_store_nt_post t ~addr ~len;
    charge_media t (Timing.nt_write_cost t.timing len);
    t.stats.Stats.nt_stores <- t.stats.Stats.nt_stores + 1;
    t.stats.Stats.pm_write_bytes <- t.stats.Stats.pm_write_bytes + len;
    add_wear t addr len;
    if Obs.tracing obs then
      Obs.emit obs ~name:"pm:w" ~cat:Obs.Media ~actor:a.Simclock.aid ~t0
        ~t1:a.Simclock.a_now
  end

let store_nt t ~addr src ~off ~len = nt_store t ~zero:false ~addr src ~off ~len

(* ------------------------------------------------------------------ *)
(* Flush / fence                                                        *)
(* ------------------------------------------------------------------ *)

(** An instrumented call site executed (only live devices count: a halted
    device is unwinding out of a chosen crash image). *)
let site_hit site t =
  if site >= 0 && not t.halted then begin
    if site >= Array.length t.site_hits then begin
      let grown = Array.make (Array.length !fence_site_names) 0 in
      Array.blit t.site_hits 0 grown 0 (Array.length t.site_hits);
      t.site_hits <- grown
    end;
    t.site_hits.(site) <- t.site_hits.(site) + 1
  end

let site_elided site t = site >= 0 && site = t.elided_fence_site

(** Flush (clwb) every dirty line intersecting [addr, addr+len): only set
    bits in the range are visited, clean words are skipped wholesale.
    [site]: registered call-site id; an elided site skips the whole flush
    — writebacks, charges and stats — exactly as if the clwb loop were
    deleted from the source. *)
let flush ?(site = -1) t ~addr ~len =
  assert (check_range t addr len);
  site_hit site t;
  if len > 0 && (not t.halted) && not (site_elided site t) then begin
    j_flush t ~addr ~len;
    if t.dirty_count = 0 then
      t.stats.Stats.fast_path_hits <- t.stats.Stats.fast_path_hits + 1
    else begin
      t.stats.Stats.slow_path_hits <- t.stats.Stats.slow_path_hits + 1;
      let first = addr / line_size and last = (addr + len - 1) / line_size in
      let wf = first lsr 5 and wl = last lsr 5 in
      for w = wf to wl do
        let lo = if w = wf then first land 31 else 0 in
        let hi = if w = wl then last land 31 else 31 in
        let mask =
          if lo = 0 && hi = 31 then word_mask else range_mask lo hi
        in
        let bits = t.dirty.(w) land mask in
        if bits <> 0 then begin
          for b = lo to hi do
            if bits land (1 lsl b) <> 0 then begin
              let line = (w lsl 5) + b in
              let off = line * line_size in
              Image.copy ~src:t.shadow ~dst:t.persistent ~addr:off
                ~len:line_size;
              (* full-line writeback heals a poisoned line, as in store_nt *)
              if Hashtbl.length t.poison > 0 then Hashtbl.remove t.poison line;
              Simclock.advance t.clock t.timing.Timing.clwb;
              charge_media t (Timing.nt_write_cost t.timing line_size);
              t.stats.Stats.flushes <- t.stats.Stats.flushes + 1;
              t.stats.Stats.pm_write_bytes <-
                t.stats.Stats.pm_write_bytes + line_size;
              add_wear t off line_size
            end
          done;
          t.dirty.(w) <- t.dirty.(w) land lnot mask;
          t.dirty_count <- t.dirty_count - popcount32 bits
        end
      done
    end
  end

(** [site]: registered call-site id; an elided site skips the whole fence
    — no journal commit, no armed-crash trip, no time charge, no stats —
    exactly as if the sfence were deleted from the source. *)
let fence ?(site = -1) t =
  site_hit site t;
  if (not t.halted) && not (site_elided site t) then begin
    (match t.journal with
    | None -> ()
    | Some j ->
        (* record the choice space a crash at this fence would face, then
           either trip the armed crash or commit reached versions; only
           an unarmed (profiling) run reads the summaries *)
        if j.j_trip_fence < 0 then
          Hashtbl.replace j.j_fence_pending j.j_fences (pending_summary j);
        let here = j.j_fences in
        j.j_fences <- here + 1;
        if j.j_trip_fence = here then begin
          crash_partial t ~survivors:j.j_trip_survivors;
          t.halted <- true;
          raise Crashed
        end
        else commit_journal j);
    Simclock.advance t.clock t.timing.Timing.sfence;
    t.stats.Stats.fences <- t.stats.Stats.fences + 1
  end

(* ------------------------------------------------------------------ *)
(* Loads                                                                *)
(* ------------------------------------------------------------------ *)

(** Load [len] bytes at [addr] into [dst]. Dirty (cached) lines are served
    from the cache at cache speed; the rest is charged PM media cost, with
    the first-access latency picked by read adjacency — continuing where
    the last load ended, or exactly repeating it, counts as sequential. *)
let load t ~addr dst ~off ~len =
  assert (check_range t addr len);
  if len > 0 && not t.halted then begin
    (* machine-check analogue: a load touching a poisoned line that would
       be served from media (not from a dirty cached copy) faults before
       any time is charged or read-adjacency state is touched *)
    if Hashtbl.length t.poison > 0 then begin
      let first = addr / line_size and last = (addr + len - 1) / line_size in
      for line = first to last do
        if
          Hashtbl.mem t.poison line
          && not (t.dirty_count > 0 && line_dirty t line)
        then begin
          t.last_poison <- line * line_size;
          (match t.faults with Some f -> Faults.note_media f | None -> ());
          raise (Faults.Poisoned (line * line_size))
        end
      done
    end;
    let obs = Simclock.obs t.clock in
    let a = Simclock.current t.clock in
    let t0 = a.Simclock.a_now in
    let random =
      not
        (addr = t.last_read_end
        || (addr = t.last_read_start && addr + len = t.last_read_end))
    in
    t.last_read_start <- addr;
    t.last_read_end <- addr + len;
    if t.dirty_count = 0 then begin
      (* clean device: one blit, all bytes at PM media cost *)
      t.stats.Stats.fast_path_hits <- t.stats.Stats.fast_path_hits + 1;
      Image.read t.persistent ~addr dst ~off ~len;
      charge_media t (Timing.pm_read_cost t.timing ~random len);
      t.stats.Stats.pm_read_bytes <- t.stats.Stats.pm_read_bytes + len
    end
    else begin
      t.stats.Stats.slow_path_hits <- t.stats.Stats.slow_path_hits + 1;
      let last = (addr + len - 1) / line_size in
      let pos = ref addr and doff = ref off and remaining = ref len in
      let cached = ref 0 and uncached = ref 0 in
      while !remaining > 0 do
        let line = !pos / line_size in
        let d = line_dirty t line in
        let stop = span_end t ~d ~line ~last in
        let n = min !remaining (((stop + 1) * line_size) - !pos) in
        if d then begin
          Image.read t.shadow ~addr:!pos dst ~off:!doff ~len:n;
          cached := !cached + n
        end
        else begin
          Image.read t.persistent ~addr:!pos dst ~off:!doff ~len:n;
          uncached := !uncached + n
        end;
        pos := !pos + n;
        doff := !doff + n;
        remaining := !remaining - n
      done;
      if !cached > 0 then
        Simclock.advance t.clock
          (float_of_int !cached *. t.timing.Timing.cache_read_per_byte);
      if !uncached > 0 then begin
        charge_media t (Timing.pm_read_cost t.timing ~random !uncached);
        t.stats.Stats.pm_read_bytes <- t.stats.Stats.pm_read_bytes + !uncached
      end
    end;
    if Obs.tracing obs then
      Obs.emit obs ~name:"pm:r" ~cat:Obs.Media ~actor:a.Simclock.aid ~t0
        ~t1:a.Simclock.a_now
  end

(** [load] into a fresh buffer. *)
let load_bytes t ~addr ~len =
  let b = Bytes.create len in
  load t ~addr b ~off:0 ~len;
  b

(* Longest single NT store [zero_nt] makes: a longer range is stored,
   counted and charged in pieces of this size. *)
let zero_piece = 65536

(** Write zeros with non-temporal stores: the charges, counters, wear,
    journal versions and poison healing of [store_nt] of a zero buffer,
    without copying one. A never-written chunk of the durable image stays
    absent, so zeroing journal blocks and fresh data blocks allocates
    nothing; while journalling, a piece over such chunks that finds its
    lines clean records nothing ([j_zero_skip]). *)
let zero_nt t ~addr ~len =
  let pos = ref addr and remaining = ref len in
  while !remaining > 0 do
    let n = min !remaining zero_piece in
    nt_store t ~zero:true ~addr:!pos Bytes.empty ~off:0 ~len:n;
    pos := !pos + n;
    remaining := !remaining - n
  done

(** Crash: all cache lines not yet flushed (and not written with NT stores)
    are lost. The durable image is untouched — and so are the wear counters
    and any poisoned/quarantined lines: media damage is physical and
    survives a power cycle (only {!reset_faults} clears it, for tests that
    reuse a device as if it were new). *)
let crash t =
  crash_common t;
  Option.iter reset_journal t.journal

(** Number of dirty (would-be-lost) cache lines; exposed for tests. *)
let dirty_lines t = t.dirty_count

let wear_of_block t b =
  let leaf = t.wear.(b / wear_leaf) in
  if Array.length leaf = 0 then 0 else leaf.(b mod wear_leaf)

let max_wear t = Array.fold_left (Array.fold_left max) 0 t.wear
let total_wear t = Array.fold_left (Array.fold_left ( + )) 0 t.wear

(** Peek at the durable image without charging time (test/debug only). *)
let peek_persistent t ~addr ~len =
  assert (check_range t addr len);
  Image.sub t.persistent ~addr ~len

(** Overwrite the durable image directly, bypassing the cache model and
    all cost accounting — the bit-rot hook tests use to flip single bits
    in durable structures (test/debug only). *)
let poke_persistent t ~addr b ~off ~len =
  assert (check_range t addr len);
  Image.write t.persistent ~addr b ~off ~len

(* ------------------------------------------------------------------ *)
(* Media faults: poisoned lines, worn blocks, quarantine (PR 5)         *)
(* ------------------------------------------------------------------ *)

let poison_line t ~addr =
  assert (check_range t addr 1);
  Hashtbl.replace t.poison (addr / line_size) ()

let is_poisoned t ~addr = Hashtbl.mem t.poison (addr / line_size)
let is_quarantined t ~addr = Hashtbl.mem t.quarantined (addr / line_size)
let quarantined_count t = Hashtbl.length t.quarantined
let last_poison t = t.last_poison

(** Any poisoned line inside [addr, addr+len)? (Host-side; no charges.) *)
let range_has_poison t ~addr ~len =
  Hashtbl.length t.poison > 0
  && begin
       let first = addr / line_size and last = (addr + len - 1) / line_size in
       let found = ref false in
       for line = first to last do
         if Hashtbl.mem t.poison line then found := true
       done;
       !found
     end

(** Give up on [addr, addr+len): zero it with NT stores (the patrol pays
    the honest media cost of the repair write) and mark every covered
    line quarantined — the differential oracle's license for reading
    zeros where data was lost. Clears the poison as a side effect of the
    full-line writes. *)
let quarantine t ~addr ~len =
  assert (check_range t addr len);
  let first = addr / line_size and last = (addr + len - 1) / line_size in
  zero_nt t ~addr:(first * line_size) ~len:((last - first + 1) * line_size);
  for line = first to last do
    Hashtbl.remove t.poison line;
    Hashtbl.replace t.quarantined line ()
  done;
  match t.faults with
  | Some f -> Faults.note_quarantined f (last - first + 1)
  | None -> ()

(** Does the block at device address [addr] need scrubbing — worn to
    [limit] or holding a poisoned line? *)
let block_needs_scrub t ~addr ~limit =
  wear_of_block t (addr / block_size) >= limit
  || range_has_poison t ~addr ~len:block_size

(** Scrubber migration: copy one 4 KB block from [src] to [dst] (device
    addresses, block-aligned), charging honest load/NT-store costs.
    Poisoned source lines cannot be read; they are zeroed at the
    destination and the destination line is marked quarantined (an
    existing quarantine marker travels with its line). Returns the
    number of lines whose data was lost. *)
let migrate_block t ~src ~dst =
  assert (src mod block_size = 0 && dst mod block_size = 0);
  let buf = Bytes.create line_size in
  let lost = ref 0 in
  for i = 0 to (block_size / line_size) - 1 do
    let s = src + (i * line_size) and d = dst + (i * line_size) in
    let sline = s / line_size in
    if
      Hashtbl.mem t.poison sline
      && not (t.dirty_count > 0 && line_dirty t sline)
    then begin
      zero_nt t ~addr:d ~len:line_size;
      Hashtbl.remove t.poison sline;
      Hashtbl.replace t.quarantined (d / line_size) ();
      incr lost
    end
    else begin
      load t ~addr:s buf ~off:0 ~len:line_size;
      store_nt t ~addr:d buf ~off:0 ~len:line_size;
      if Hashtbl.mem t.quarantined sline then
        Hashtbl.replace t.quarantined (d / line_size) ()
    end
  done;
  (match t.faults with
  | Some f when !lost > 0 -> Faults.note_quarantined f !lost
  | _ -> ());
  !lost

(** Clear all media-fault state — wear counters, poison, quarantine
    markers — as if the DIMM were factory-fresh. [crash] deliberately
    keeps all of it (media damage survives power cycles); this is the
    explicit reset for tests. *)
let reset_faults t =
  Array.fill t.wear 0 (Array.length t.wear) [||];
  Hashtbl.reset t.poison;
  Hashtbl.reset t.quarantined;
  t.last_poison <- -1

(* ------------------------------------------------------------------ *)
(* Persist-order journal API                                            *)
(* ------------------------------------------------------------------ *)

let journal_begin t =
  t.journal <-
    Some
      {
        jlines = Lines.create 256;
        jlive = Array.make 256 no_jline;
        jcount = 0;
        j_fences = 0;
        j_fence_pending = Hashtbl.create 64;
        j_trip_fence = -1;
        j_trip_survivors = [];
      }

let journal_stop t = t.journal <- None
let journaling t = t.journal <> None

(** Fences observed since [journal_begin]; fence index [i] is the
    (i+1)-th fence the journalled run will execute. *)
let fence_count t = match t.journal with Some j -> j.j_fences | None -> 0

(** The pending-line summary captured just before fence [i] committed. *)
let fence_pending t i =
  match t.journal with
  | Some j -> ( try Hashtbl.find j.j_fence_pending i with Not_found -> [||])
  | None -> [||]

(** The pending-line summary right now (the choice space of a crash at
    the current point, e.g. at end of trace). *)
let pending_now t =
  match t.journal with Some j -> pending_summary j | None -> [||]

(** Arm a crash at fence index [fence]: when the journalled run reaches
    it, the device applies [survivors] via [crash_partial], halts (all
    further device operations no-op until [resume]), and raises
    [Crashed]. [fence = -1] disarms. *)
let arm_crash t ~fence ~survivors =
  match t.journal with
  | None -> invalid_arg "Device.arm_crash: journaling is off"
  | Some j ->
      j.j_trip_fence <- fence;
      j.j_trip_survivors <- survivors

(** Reactivate a device halted by an armed crash, so recovery can run
    against the chosen crash image. *)
let resume t = t.halted <- false
