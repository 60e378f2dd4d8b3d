(** Sharded bitmap block allocator for the data area of the simulated
    ext4 file system.

    The device is split into [shards] equal allocation groups (ext4
    block-group style). Each shard owns a contiguous block range with its
    own next-fit cursor, first-free hint, and — when an environment is
    wired in — its own {!Pmem.Lock}, so concurrent actors allocating in
    different groups never serialize on a single allocator lock. An
    actor's {e home} shard is picked by allocation-group affinity
    (actor id mod shards); when the home shard has no suitable run the
    allocator steals from the neighbouring shards in ring order.

    Extents never cross a shard boundary (exactly as ext4 extents do not
    cross block groups), so every block's owning shard is a pure function
    of its number and [free_extent]/[retire] route per block without any
    reverse map.

    With [shards = 1] — the default, and what every single-client
    experiment uses — the search chain (goal, then next-fit cursor, then
    the start of the device) is the same chain the unsharded allocator
    ran, so placements and therefore all single-client results are
    bit-identical. The per-shard first-free hint is an exact
    optimisation, not a policy change: it maintains the invariant that
    every block below the hint is non-free, so starting a scan at
    [max start hint] returns precisely what a scan from [start] would
    have. *)

type shard = {
  base : int;  (** first block of this allocation group *)
  limit : int;  (** one past the last block *)
  mutable s_free : int;
  mutable s_next_fit : int;  (** absolute block number in [base, limit) *)
  mutable s_hint : int;
      (** first-free lower bound: every block in [base, s_hint) is
          non-free, so scans never re-walk the packed prefix *)
  s_lock : Pmem.Lock.t;
}

type t = {
  nblocks : int;
  bitmap : Bytes.t;
      (** one byte per block: '\000' free, '\001' used, '\002' retired
          (worn/poisoned block taken out of service — never free again) *)
  mutable free : int;
  shards : shard array;
  shard_blocks : int;  (** blocks per shard; the last takes the remainder *)
  mutable steals : int;  (** cross-shard allocations after home ENOSPC *)
  faults : Faults.t option;  (** injected-ENOSPC fault point *)
  env : Pmem.Env.t option;
      (** when present, each shard's critical section runs under its lock
          so concurrent actors contend per group, not globally *)
}

let create ?faults ?env ?(shards = 1) ~nblocks () =
  assert (nblocks > 0);
  let shards = max 1 (min shards nblocks) in
  let shard_blocks = nblocks / shards in
  let mk k =
    let base = k * shard_blocks in
    let limit = if k = shards - 1 then nblocks else base + shard_blocks in
    {
      base;
      limit;
      s_free = limit - base;
      s_next_fit = base;
      s_hint = base;
      s_lock = Pmem.Lock.create (Printf.sprintf "alloc-shard-%d" k);
    }
  in
  {
    nblocks;
    bitmap = Bytes.make nblocks '\000';
    free = nblocks;
    shards = Array.init shards mk;
    shard_blocks;
    steals = 0;
    faults;
    env;
  }

let nblocks t = t.nblocks
let free_blocks t = t.free
let used_blocks t = t.nblocks - t.free
let nshards t = Array.length t.shards
let steals t = t.steals
let is_free t b = Bytes.get t.bitmap b = '\000'
let is_allocated t b = not (is_free t b)

let shard_of t b =
  let k = min (b / t.shard_blocks) (Array.length t.shards - 1) in
  t.shards.(k)

(** The shard an actor's allocations gravitate to: allocation-group
    affinity by actor id, so a tenant's actors spread across groups and
    keep their files' blocks together without global coordination. *)
let home_shard t =
  match t.env with
  | Some env when Array.length t.shards > 1 ->
      (Pmem.Simclock.current env.Pmem.Env.clock).Pmem.Simclock.aid
      mod Array.length t.shards
  | _ -> 0

let with_shard t s f =
  match t.env with
  | Some env -> Pmem.Env.with_lock env s.s_lock f
  | None -> f ()

let mark_used t s ~start ~len =
  Bytes.fill t.bitmap start len '\001';
  t.free <- t.free - len;
  s.s_free <- s.s_free - len;
  (* the run just became non-free: extend the first-free lower bound when
     it abuts the packed prefix *)
  if start <= s.s_hint then s.s_hint <- max s.s_hint (start + len)

(** Length of the free run starting at [b], capped at [cap] and at the
    owning shard's limit — extents never cross allocation groups. *)
let run_length t s b cap =
  let n = ref 0 in
  while !n < cap && b + !n < s.limit && is_free t (b + !n) do
    incr n
  done;
  !n

(* First free block at or after [start] within shard [s]. Exact under the
   hint invariant: every block below [s_hint] is non-free, so scanning
   from [max start s_hint] visits the same first free block a scan from
   [start] would. Scans that begin at the lower bound also tighten it. *)
let find_free_from t s start =
  let from = max start s.s_hint in
  let b = ref from in
  while !b < s.limit && not (is_free t !b) do
    incr b
  done;
  if !b < s.limit then begin
    if start <= s.s_hint then s.s_hint <- !b;
    Some !b
  end
  else None

(* The unsharded allocator's search chain, run within one shard: prefer
   the goal (extends the previous extent of the same file), then the
   shard's next-fit cursor, then the shard base. With one shard this is
   exactly the original goal / next_fit / block-0 chain. *)
let alloc_in_shard t s ~goal ~len =
  if s.s_free = 0 then None
  else begin
    let try_at start =
      match find_free_from t s start with
      | None -> None
      | Some b ->
          let n = run_length t s b len in
          Some (b, n)
    in
    let goal = if goal >= s.base && goal < s.limit then goal else s.s_next_fit in
    let best =
      match try_at goal with
      | Some (b, n) when b = goal || n = len -> Some (b, n)
      | fallback -> (
          match try_at s.s_next_fit with
          | Some (b, n) when n = len -> Some (b, n)
          | other -> (
              match (fallback, other, try_at s.base) with
              | _, _, Some (b, n) when n = len -> Some (b, n)
              | Some r, _, _ -> Some r
              | _, Some r, _ -> Some r
              | _, _, r -> r))
    in
    match best with
    | None -> None
    | Some (b, n) ->
        mark_used t s ~start:b ~len:n;
        s.s_next_fit <- (if b + n >= s.limit then s.base else b + n);
        Some (b, n)
  end

let alloc_extent t ~goal ~len =
  if len <= 0 then invalid_arg "Alloc.alloc_extent";
  (match t.faults with
  | Some f when Faults.check f Faults.Alloc ->
      Fsapi.Errno.(error ENOSPC "k-split alloc: injected fault")
  | _ -> ());
  if t.free = 0 then Fsapi.Errno.(error ENOSPC "alloc_extent");
  let ns = Array.length t.shards in
  (* an explicit goal overrides affinity: contiguity with the file's
     previous extent matters more than which group serves it *)
  let home =
    if goal >= 0 && goal < t.nblocks then
      min (goal / t.shard_blocks) (ns - 1)
    else home_shard t
  in
  let rec try_shards k =
    if k = ns then Fsapi.Errno.(error ENOSPC "alloc_extent")
    else begin
      let s = t.shards.((home + k) mod ns) in
      match with_shard t s (fun () -> alloc_in_shard t s ~goal ~len) with
      | Some (b, n) ->
          if k > 0 then t.steals <- t.steals + 1;
          (b, n)
      | None -> try_shards (k + 1)
    end
  in
  try_shards 0

(* Aligned scan within one shard, starting at the next-fit cursor rounded
   up to the alignment and wrapping at the shard boundary — O(free runs)
   instead of O(device) from block 0 on every call. *)
let aligned_in_shard t s ~align ~len =
  let round_up b = (b + align - 1) / align * align in
  let first = round_up s.base in
  let start = round_up (max s.s_next_fit s.s_hint) in
  let attempt b =
    if b + len <= s.limit && run_length t s b len = len then begin
      mark_used t s ~start:b ~len;
      s.s_next_fit <- (if b + len >= s.limit then s.base else b + len);
      true
    end
    else false
  in
  let rec scan b stop =
    if b + len > s.limit || b >= stop then None
    else if attempt b then Some b
    else scan (b + align) stop
  in
  match scan start s.limit with
  | Some b -> Some b
  | None -> (
      (* wrap: cover the aligned slots below the cursor *)
      match scan first start with Some b -> Some b | None -> None)

let alloc_aligned t ~align ~len =
  if align <= 0 || len <= 0 then invalid_arg "Alloc.alloc_aligned";
  let ns = Array.length t.shards in
  let home = home_shard t in
  let rec try_shards k =
    if k = ns then None
    else begin
      let s = t.shards.((home + k) mod ns) in
      match with_shard t s (fun () -> aligned_in_shard t s ~align ~len) with
      | Some b ->
          if k > 0 then t.steals <- t.steals + 1;
          Some b
      | None -> try_shards (k + 1)
    end
  in
  try_shards 0

let alloc_many t ~goal ~len =
  let rec go goal remaining acc =
    if remaining = 0 then List.rev acc
    else
      let b, n = alloc_extent t ~goal ~len:remaining in
      go (b + n) (remaining - n) ((b, n) :: acc)
  in
  go goal len []

(* Freeing routes each block to its owning shard (a pure function of the
   block number) and rolls the shard's first-free hint back so the hint
   invariant — no free block below it — survives. *)
let free_extent t ~start ~len =
  if start < 0 || len < 0 || start + len > t.nblocks then
    invalid_arg "Alloc.free_extent";
  for b = start to start + len - 1 do
    if is_free t b then invalid_arg "Alloc.free_extent: double free";
    if Bytes.get t.bitmap b = '\002' then
      invalid_arg "Alloc.free_extent: block is retired"
  done;
  Bytes.fill t.bitmap start len '\000';
  t.free <- t.free + len;
  for b = start to start + len - 1 do
    let s = shard_of t b in
    s.s_free <- s.s_free + 1;
    if b < s.s_hint then s.s_hint <- b
  done

(** Take [start, start+len) out of service permanently (scrubber: the
    blocks are worn out or hold unrecoverable lines). Works on used
    blocks (after their data has been migrated) and on free ones;
    retired blocks are never handed out or freed again. *)
let retire t ~start ~len =
  if start < 0 || len < 0 || start + len > t.nblocks then
    invalid_arg "Alloc.retire";
  for b = start to start + len - 1 do
    let s = shard_of t b in
    (match Bytes.get t.bitmap b with
    | '\000' ->
        t.free <- t.free - 1;
        s.s_free <- s.s_free - 1
    | '\002' -> invalid_arg "Alloc.retire: already retired"
    | _ -> ());
    Bytes.set t.bitmap b '\002'
  done

let run_length_any t b cap =
  let n = ref 0 in
  while !n < cap && b + !n < t.nblocks && is_free t (b + !n) do
    incr n
  done;
  !n

let fragmentation t ~run =
  if t.free = 0 then 0.
  else begin
    let short = ref 0 in
    let b = ref 0 in
    while !b < t.nblocks do
      if is_free t !b then begin
        let n = run_length_any t !b t.nblocks in
        if n < run then short := !short + n;
        b := !b + n
      end
      else incr b
    done;
    float_of_int !short /. float_of_int t.free
  end
