(** jbd2-like metadata journal (ordered mode).

    The simulated kernel file system keeps its metadata in heap structures
    that are mutated synchronously, so the journal's job here is (a) to
    charge the PM traffic and ordering instructions a jbd2 commit performs —
    descriptor block, one journal block per dirtied metadata block, commit
    block, fences — and (b) to provide the atomicity contract: every public
    file-system operation completes its commit before returning, so a crash
    observed between operations always sees metadata-consistent state
    (paper Table 3, "atomic metadata ops" for ext4 DAX).

    The journal area can be split into [streams] independent commit
    streams (KucoFS-style partitioned logging): each stream owns a
    contiguous subregion with its own write head and its own lock, and a
    committer is routed to stream [actor id mod streams]. With one stream
    — the default, and what every existing configuration uses — there is
    a single head walking the whole region under the single "jbd2" lock,
    exactly the original behaviour; with more, commits from different
    actors proceed in parallel instead of collapsing onto one running
    transaction (the paper-§2 multi-client ext4 DAX wall).

    Checkpointing (writing journalled blocks back in place) happens off the
    critical path in jbd2 and is not charged, matching how the paper
    attributes software overhead to the foreground operation. *)

(* Registered fence site (fence minimization, crashcheck litmus). *)
let site_commit_record = Pmem.Device.register_fence_site "jbd2:commit-record"

type stream = {
  st_start : int;  (** device address of this stream's subregion *)
  st_len : int;
  mutable head : int;  (** next write offset within the subregion *)
  st_lock : Pmem.Lock.t;
      (** jbd2 has one running transaction per stream: concurrent
          committers of the same stream serialize behind it, which is what
          makes ext4 DAX appends collapse under multi-client load
          (paper §2) — sharding the streams is what breaks that wall *)
}

type t = {
  env : Pmem.Env.t;
  block_size : int;
  streams : stream array;
  mutable commits : int;
}

let create ?(streams = 1) ~env ~region_start ~region_len ~block_size () =
  assert (region_len mod block_size = 0);
  let streams = max 1 (min streams (region_len / block_size)) in
  let per = region_len / streams / block_size * block_size in
  let mk k =
    let st_start = region_start + (k * per) in
    let st_len = if k = streams - 1 then region_start + region_len - st_start else per in
    {
      st_start;
      st_len;
      head = 0;
      st_lock =
        (if k = 0 then Pmem.Lock.create "jbd2"
         else Pmem.Lock.create ~id:k "jbd2-");
    }
  in
  {
    env;
    block_size;
    streams = Array.init streams mk;
    commits = 0;
  }

(** A copy of [t] committing through [env]: stream heads and locks
    copied. *)
let clone t ~env =
  {
    t with
    env;
    streams =
      Array.map
        (fun s -> { s with st_lock = Pmem.Lock.copy s.st_lock })
        t.streams;
  }

let nstreams t = Array.length t.streams

(** The stream serving the current actor: commit traffic spreads across
    streams by actor id, so tenants journal in parallel. *)
let stream_for t =
  let n = Array.length t.streams in
  if n = 1 then t.streams.(0)
  else
    t.streams.((Pmem.Simclock.current t.env.Pmem.Env.clock).Pmem.Simclock.aid
               mod n)

let write_journal_block t s =
  let dev = t.env.Pmem.Env.dev in
  if s.head + t.block_size > s.st_len then s.head <- 0;
  (* the simulated journal carries no replayable content (see [commit]):
     its blocks are zero stores, which leave never-written chunks of the
     durable image unallocated *)
  Pmem.Device.zero_nt dev ~addr:(s.st_start + s.head) ~len:t.block_size;
  s.head <- s.head + t.block_size;
  let stats = t.env.Pmem.Env.stats in
  stats.Pmem.Stats.journal_bytes <-
    stats.Pmem.Stats.journal_bytes + t.block_size

(* Injected journal-EIO faults are retried here, inside the commit path,
   so every caller (fsync, metadata ops, background commits) inherits the
   same degradation: transient write failures back off with a capped
   exponential simulated-ns delay and retry; a fault still firing after
   this many attempts is sticky and surfaces as EIO. *)
let max_commit_attempts = 6

(** [commit t ~meta_blocks] charges one transaction that dirtied
    [meta_blocks] metadata blocks, on the current actor's stream. *)
let commit t ~meta_blocks =
  if meta_blocks > 0 then
    Pmem.Env.with_span t.env ~cat:Obs.Journal ~name:"jbd2:commit" @@ fun () ->
    let s = stream_for t in
    Pmem.Env.with_lock t.env s.st_lock (fun () ->
        let faults = t.env.Pmem.Env.faults in
        let attempt = ref 1 in
        while Faults.check faults Faults.Journal do
          if !attempt >= max_commit_attempts then begin
            Faults.note_errno faults;
            Fsapi.Errno.(error EIO "jbd2: journal commit failed (sticky)")
          end;
          Pmem.Env.cpu_cat t.env Obs.Journal
            (Faults.backoff_ns ~attempt:!attempt);
          Faults.new_epoch faults;
          Faults.note_journal_retry faults;
          incr attempt
        done;
        if !attempt > 1 then Faults.note_retried faults;
        let dev = t.env.Pmem.Env.dev in
        (* descriptor block + journalled copies of the metadata blocks,
           then the commit record. One fence commits the whole
           transaction: the simulated journal carries no replayable
           content (metadata is reconstructed from the DRAM structures,
           not the journal), so the separate blocks-before-record fence
           real jbd2 needs is unobservable here — crashcheck's fence
           minimizer proved it redundant over the exhaustive litmus
           corpus (EXPERIMENTS.md, PR 7) and it was removed *)
        for _ = 0 to meta_blocks do
          write_journal_block t s
        done;
        write_journal_block t s;
        Pmem.Device.fence ~site:site_commit_record dev;
        t.commits <- t.commits + 1;
        let stats = t.env.Pmem.Env.stats in
        stats.Pmem.Stats.journal_commits <- stats.Pmem.Stats.journal_commits + 1)

let commits t = t.commits
