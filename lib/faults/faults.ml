(** Deterministic fault-injection plane. See the .mli for the model. *)

exception Poisoned of int

let () =
  Printexc.register_printer (function
    | Poisoned addr -> Some (Printf.sprintf "Faults.Poisoned(0x%x)" addr)
    | _ -> None)

type site = Alloc | Journal | Swap

let site_index = function Alloc -> 0 | Journal -> 1 | Swap -> 2
let nsites = 3
let site_name = function Alloc -> "alloc" | Journal -> "journal" | Swap -> "swap"
let all_sites = [ Alloc; Journal; Swap ]

type origin = Other | Staging_prealloc

let origin_name = function
  | Other -> "any"
  | Staging_prealloc -> "staging-prealloc"

type duration = Transient of int | Sticky

type rfault = {
  rf_site : site;
  rf_origin : origin option;
  rf_from : int;
  rf_duration : duration;
}

let rfault ?origin site ~from duration =
  (match duration with
  | Transient k when k < 1 -> invalid_arg "Faults.rfault: Transient k < 1"
  | _ -> ());
  { rf_site = site; rf_origin = origin; rf_from = from; rf_duration = duration }

let pp_rfault ppf r =
  Fmt.pf ppf "%s@call>=%d %s%s" (site_name r.rf_site) r.rf_from
    (match r.rf_duration with
    | Transient k -> Printf.sprintf "transient(%d)" k
    | Sticky -> "sticky")
    (match r.rf_origin with
    | None -> ""
    | Some o -> Printf.sprintf " origin=%s" (origin_name o))

type counts = {
  mutable injected : int;
  mutable media : int;
  mutable masked : int;
  mutable retried : int;
  mutable errno : int;
  mutable degraded_writes : int;
  mutable relink_retries : int;
  mutable journal_retries : int;
  mutable quarantined_lines : int;
  mutable scrub_migrations : int;
  mutable replay_skipped : int;
}

let zero_counts () =
  {
    injected = 0;
    media = 0;
    masked = 0;
    retried = 0;
    errno = 0;
    degraded_writes = 0;
    relink_retries = 0;
    journal_retries = 0;
    quarantined_lines = 0;
    scrub_migrations = 0;
    replay_skipped = 0;
  }

(* An armed [armed_rfault] remembers the epoch it first fired in so a
   [Transient k] fault can heal k epochs later. *)
type armed_rfault = { spec : rfault; mutable tripped : int (* epoch; -1 *) }

type t = {
  mutable on : bool;
  mutable epoch : int;
  calls : int array;  (** per-site call counters, armed only *)
  mutable faults : armed_rfault list;
  mutable cur_origin : origin;
  c : counts;
}

let create () =
  {
    on = false;
    epoch = 0;
    calls = Array.make nsites 0;
    faults = [];
    cur_origin = Other;
    c = zero_counts ();
  }

let clone t =
  {
    t with
    calls = Array.copy t.calls;
    faults = List.map (fun a -> { a with tripped = a.tripped }) t.faults;
    c = { t.c with injected = t.c.injected };
  }

let arm t = t.on <- true

let inject t r =
  t.faults <- { spec = r; tripped = -1 } :: t.faults;
  t.on <- true

let reset t =
  t.epoch <- 0;
  Array.fill t.calls 0 nsites 0;
  t.faults <- [];
  t.cur_origin <- Other;
  let c = t.c in
  c.injected <- 0;
  c.media <- 0;
  c.masked <- 0;
  c.retried <- 0;
  c.errno <- 0;
  c.degraded_writes <- 0;
  c.relink_retries <- 0;
  c.journal_retries <- 0;
  c.quarantined_lines <- 0;
  c.scrub_migrations <- 0;
  c.replay_skipped <- 0

let check t site =
  if not t.on then false
  else begin
    let i = site_index site in
    let idx = t.calls.(i) in
    t.calls.(i) <- idx + 1;
    let fires a =
      let r = a.spec in
      r.rf_site = site
      && (match r.rf_origin with
         | None -> true
         | Some o -> o = t.cur_origin)
      && idx >= r.rf_from
      &&
      if a.tripped < 0 then begin
        a.tripped <- t.epoch;
        true
      end
      else
        match r.rf_duration with
        | Sticky -> true
        | Transient k -> t.epoch < a.tripped + k
    in
    let fired = List.exists fires t.faults in
    if fired then t.c.injected <- t.c.injected + 1;
    fired
  end

let with_origin t o f =
  let prev = t.cur_origin in
  t.cur_origin <- o;
  Fun.protect ~finally:(fun () -> t.cur_origin <- prev) f

let epoch t = t.epoch
let new_epoch t = t.epoch <- t.epoch + 1
let calls t site = t.calls.(site_index site)

(* 1us, 2us, 4us, 8us, then capped at 16us of simulated backoff. *)
let backoff_ns ~attempt =
  float_of_int (min (1000 * (1 lsl max 0 (attempt - 1))) 16_000)

let counts t = t.c
let note_media t = t.c.media <- t.c.media + 1
let note_masked t = t.c.masked <- t.c.masked + 1
let note_retried t = t.c.retried <- t.c.retried + 1
let note_errno t = t.c.errno <- t.c.errno + 1
let note_degraded_write t = t.c.degraded_writes <- t.c.degraded_writes + 1
let note_relink_retry t = t.c.relink_retries <- t.c.relink_retries + 1
let note_journal_retry t = t.c.journal_retries <- t.c.journal_retries + 1
let note_quarantined t n = t.c.quarantined_lines <- t.c.quarantined_lines + n
let note_scrub_migration t = t.c.scrub_migrations <- t.c.scrub_migrations + 1
let note_replay_skipped t = t.c.replay_skipped <- t.c.replay_skipped + 1

let pp_counts ppf c =
  Fmt.pf ppf
    "injected=%d media=%d masked=%d retried=%d errno=%d degraded=%d \
     relink-retries=%d journal-retries=%d quarantined=%d scrubbed=%d \
     replay-skipped=%d"
    c.injected c.media c.masked c.retried c.errno c.degraded_writes
    c.relink_retries c.journal_retries c.quarantined_lines c.scrub_migrations
    c.replay_skipped
