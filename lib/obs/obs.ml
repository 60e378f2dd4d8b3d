(** Observability: overhead attribution, span tracing, latency histograms.

    One [t] rides along with a simulation environment and observes every
    simulated-nanosecond charge without ever producing one itself — all
    work done here costs host time only, so simulated results are
    bit-identical with observability on or off.

    {2 Attribution}

    Every charge that flows through [Simclock.advance] is attributed to
    the category on top of a host-side category stack ([push]/[pop]
    mark the dynamic extent of an instrumented region). Charges outside
    any region fall to [App] (application think time, baseline op CPU),
    and charges inside [Env.in_background] are forced to [Background]
    regardless of the stack — mirroring exactly the simulated time the
    environment moves off the foreground clock. The categories are
    therefore exhaustive and mutually exclusive:

      sum over categories of attr = total simulated ns across all actors
                                    + background ns

    which the profiler checks as an invariant (see [Env.check_identity]).

    {2 Tracing}

    When enabled, instrumented regions also emit complete spans (name,
    category, actor id, simulated start/end ns) into a fixed-capacity
    ring — oldest spans are overwritten, never blocking and never
    allocating per event beyond the span record itself. A sampling
    factor keeps 1-in-N spans; an [on_event] callback sees every span
    before sampling (used for streaming per-syscall trace lines). Spans
    are not recorded inside background extents: the clock rewind would
    make them overlap foreground spans on the same track. *)

module Hist = Hist
module Timeline = Timeline
module Forensics = Forensics

type cat =
  | Media  (** time the PM media itself is busy with a transfer *)
  | Usplit  (** U-Split library CPU: bookkeeping, mmap lookup, memcpy *)
  | Syscall  (** kernel traps and VFS dispatch *)
  | Kernel  (** in-kernel FS CPU outside the other kernel categories *)
  | Journal  (** jbd2 commit path: journal writes, fences, fsync waits *)
  | Alloc  (** block/extent allocator CPU *)
  | Log_append  (** composing + checksumming U-Split op-log entries *)
  | Relink_copy  (** partial-block copies during relink *)
  | Lock_wait  (** queueing on contended simulated locks *)
  | Bw_wait  (** queueing on shared PM bandwidth *)
  | Background  (** work moved off the foreground clock *)
  | App  (** everything outside instrumented regions: think time *)

let ncats = 12

let cat_index = function
  | Media -> 0
  | Usplit -> 1
  | Syscall -> 2
  | Kernel -> 3
  | Journal -> 4
  | Alloc -> 5
  | Log_append -> 6
  | Relink_copy -> 7
  | Lock_wait -> 8
  | Bw_wait -> 9
  | Background -> 10
  | App -> 11

let all_cats =
  [
    Media;
    Usplit;
    Syscall;
    Kernel;
    Journal;
    Alloc;
    Log_append;
    Relink_copy;
    Lock_wait;
    Bw_wait;
    Background;
    App;
  ]

let cat_name = function
  | Media -> "media"
  | Usplit -> "usplit-cpu"
  | Syscall -> "syscall-trap"
  | Kernel -> "kernel-cpu"
  | Journal -> "journal"
  | Alloc -> "alloc"
  | Log_append -> "log-append"
  | Relink_copy -> "relink-copy"
  | Lock_wait -> "lock-wait"
  | Bw_wait -> "bw-wait"
  | Background -> "background"
  | App -> "app"

type span = {
  e_name : string;
  e_cat : cat;
  e_actor : int;  (** actor id = trace track *)
  e_t0 : float;  (** simulated ns *)
  e_t1 : float;
  e_arg : string option;  (** preformatted detail, e.g. a strace line *)
}

type t = {
  attr : float array;  (** ns attributed per category, indexed by cat *)
  mutable stack : int array;  (** category-index stack *)
  mutable depth : int;
  mutable background : int;  (** nesting depth of background extents *)
  (* --- tracing --- *)
  mutable trace_on : bool;
  mutable sample : int;  (** keep 1-in-N spans *)
  mutable seq : int;  (** spans seen since tracing was enabled *)
  mutable ring : span array;  (** capacity 0 until tracing is enabled *)
  mutable ring_len : int;
  mutable ring_pos : int;  (** next write slot *)
  mutable overwritten : int;  (** sampled-in spans lost to ring wrap *)
  mutable on_event : (span -> unit) option;
  mutable capture : (span -> unit) option;
      (** sees every span regardless of [trace_on]/sampling — the tail-
          forensics hook; [tracing] is true while one is installed *)
  hists : (string, Hist.t) Hashtbl.t;
  (* --- virtual-time telemetry (PR 9) --- *)
  mutable next_sample : float;
      (** next timeline boundary in simulated ns; [infinity] when the
          timeline is off, so the funnel's check is one float compare *)
  mutable tl : Timeline.t option;
}

let empty_span =
  { e_name = ""; e_cat = App; e_actor = 0; e_t0 = 0.; e_t1 = 0.; e_arg = None }

(* [SPLITFS_TRACE=1] turns tracing on in every environment the process
   creates — the switch behind the "output is bit-identical with tracing
   on" end-to-end check (diff `bench --fast` with and without it). *)
let trace_everything =
  match Sys.getenv_opt "SPLITFS_TRACE" with
  | Some ("1" | "true" | "yes") -> true
  | _ -> false

let create () =
  {
    attr = Array.make ncats 0.;
    stack = Array.make 32 0;
    depth = 0;
    background = 0;
    trace_on = trace_everything;
    sample = 1;
    seq = 0;
    ring = (if trace_everything then Array.make 4096 empty_span else [||]);
    ring_len = 0;
    ring_pos = 0;
    overwritten = 0;
    on_event = None;
    capture = None;
    hists = Hashtbl.create 16;
    next_sample = infinity;
    tl = None;
  }

(** A copy of [t]: attribution, category stack, histograms and span ring
    copied, the hooks shared. The timeline stays behind, since its
    sources read one environment's counters: [Env.clone] attaches a copy
    that reads the clone's ({!Timeline.clone}). *)
let clone t =
  let hists = Hashtbl.copy t.hists in
  Hashtbl.filter_map_inplace (fun _ h -> Some (Hist.copy h)) hists;
  {
    t with
    attr = Array.copy t.attr;
    stack = Array.copy t.stack;
    ring = Array.copy t.ring;
    hists;
    tl = None;
  }

(* --- attribution --- *)

let i_background = cat_index Background
let i_app = cat_index App

(** [attribute t ns] charges [ns] simulated ns to the active category.
    Called from [Simclock.advance] — the single funnel every simulated
    charge flows through. *)
let attribute t ns =
  let i =
    if t.background > 0 then i_background
    else if t.depth > 0 then t.stack.(t.depth - 1)
    else i_app
  in
  t.attr.(i) <- t.attr.(i) +. ns

let push t cat =
  let d = t.depth in
  if d = Array.length t.stack then
    t.stack <- Array.append t.stack (Array.make (Array.length t.stack) 0);
  t.stack.(d) <- cat_index cat;
  t.depth <- d + 1

let pop t = t.depth <- t.depth - 1
let enter_background t = t.background <- t.background + 1
let leave_background t = t.background <- t.background - 1

let total t = Array.fold_left ( +. ) 0. t.attr
let attributed t cat = t.attr.(cat_index cat)
let breakdown t = List.map (fun c -> (c, t.attr.(cat_index c))) all_cats
let snapshot t = Array.copy t.attr

(** [breakdown_since t snap] — per-category delta against a [snapshot]. *)
let breakdown_since t snap =
  List.map (fun c -> (c, t.attr.(cat_index c) -. snap.(cat_index c))) all_cats

(* --- tracing --- *)

let set_tracing ?(sample = 1) ?(ring = 65536) t on =
  t.trace_on <- on;
  t.sample <- max 1 sample;
  t.seq <- 0;
  t.ring_len <- 0;
  t.ring_pos <- 0;
  t.overwritten <- 0;
  if on && Array.length t.ring <> ring then t.ring <- Array.make ring empty_span

let tracing t = (t.trace_on || t.capture <> None) && t.background = 0
let set_on_event t f = t.on_event <- f

(** Install/remove the capture hook (tail forensics): sees every span the
    instrumented regions emit, independent of the ring and sampling. *)
let set_capture t f = t.capture <- f
let span_count t = t.ring_len
let overwritten t = t.overwritten

let emit ?arg t ~name ~cat ~actor ~t0 ~t1 =
  if (t.trace_on || t.capture <> None) && t.background = 0 then begin
    let s = { e_name = name; e_cat = cat; e_actor = actor; e_t0 = t0; e_t1 = t1; e_arg = arg } in
    (match t.capture with Some f -> f s | None -> ());
    if t.trace_on then begin
      (match t.on_event with Some f -> f s | None -> ());
      let seq = t.seq in
      t.seq <- seq + 1;
      if seq mod t.sample = 0 then begin
        let cap = Array.length t.ring in
        if cap > 0 then begin
          t.ring.(t.ring_pos) <- s;
          t.ring_pos <- (t.ring_pos + 1) mod cap;
          if t.ring_len < cap then t.ring_len <- t.ring_len + 1
          else t.overwritten <- t.overwritten + 1
        end
      end
    end
  end

(** Retained spans, oldest first. *)
let spans t =
  let cap = Array.length t.ring in
  let first = if t.ring_len < cap then 0 else t.ring_pos in
  List.init t.ring_len (fun i -> t.ring.((first + i) mod cap))

(* --- virtual-time telemetry --- *)

(** Attach a {!Timeline}: from now on, the first clock advance past each
    period boundary takes a sample ([Simclock.advance] compares against
    [next_sample] — one float compare on the disabled path). *)
let set_timeline t tl =
  t.tl <- Some tl;
  t.next_sample <- Timeline.next_boundary tl

let timeline t = t.tl

(** Attach [tl] to a {!clone} whose original carried a timeline: the
    next boundary is the original's, which the clone copied. *)
let adopt_timeline t tl = t.tl <- Some tl

(** Boundary crossing, called from the clock funnel. Samples are
    suppressed inside background extents: the pending rewind would make
    their times non-monotone and double-count the background interval. *)
let timeline_tick t now =
  match t.tl with
  | None -> ()
  | Some tl ->
      if t.background = 0 then begin
        Timeline.sample tl ~now;
        t.next_sample <- Timeline.next_boundary tl
      end

(* --- latency histograms --- *)

let hist t key =
  match Hashtbl.find_opt t.hists key with
  | Some h -> h
  | None ->
      let h = Hist.create () in
      Hashtbl.replace t.hists key h;
      h

let record_latency t key ns = Hist.record (hist t key) ns

let hists t =
  Hashtbl.fold (fun k h acc -> (k, h) :: acc) t.hists []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* --- Chrome trace-event JSON (Perfetto-loadable) --- *)

let add_json_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(** [chrome_json ?actors t] renders the retained spans as a Chrome
    trace-event JSON document: one complete ("ph":"X") event per span,
    timestamps in microseconds of simulated time, one track (tid) per
    actor. [actors] supplies (id, name) pairs for thread-name metadata.
    When a {!Timeline} is attached its series are merged in as Perfetto
    counter tracks ("ph":"C" events, cumulative values), so spans and
    counters line up in one UI. *)
let chrome_json ?(actors = []) t =
  let b = Buffer.create 65536 in
  Buffer.add_string b "{\"traceEvents\":[";
  let first = ref true in
  let sep () =
    if !first then first := false else Buffer.add_char b ',';
    Buffer.add_string b "\n  "
  in
  sep ();
  Buffer.add_string b
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"splitfs-sim\"}}";
  List.iter
    (fun (aid, name) ->
      sep ();
      Buffer.add_string b
        (Printf.sprintf "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"args\":{\"name\":" aid);
      add_json_string b name;
      Buffer.add_string b "}}")
    actors;
  List.iter
    (fun s ->
      sep ();
      Buffer.add_string b "{\"name\":";
      add_json_string b s.e_name;
      Buffer.add_string b ",\"cat\":";
      add_json_string b (cat_name s.e_cat);
      Buffer.add_string b
        (Printf.sprintf ",\"ph\":\"X\",\"ts\":%.4f,\"dur\":%.4f,\"pid\":0,\"tid\":%d"
           (s.e_t0 /. 1000.)
           ((s.e_t1 -. s.e_t0) /. 1000.)
           s.e_actor);
      (match s.e_arg with
      | Some a ->
          Buffer.add_string b ",\"args\":{\"detail\":";
          add_json_string b a;
          Buffer.add_string b "}"
      | None -> ());
      Buffer.add_string b "}")
    (spans t);
  (match t.tl with
  | None -> ()
  | Some tl ->
      List.iter
        (fun name ->
          Array.iter
            (fun (time, _delta, cum) ->
              sep ();
              Buffer.add_string b "{\"name\":";
              add_json_string b name;
              Buffer.add_string b
                (Printf.sprintf
                   ",\"ph\":\"C\",\"ts\":%.4f,\"pid\":0,\"args\":{\"value\":%.6g}}"
                   (time /. 1000.) cum))
            (Timeline.samples tl name))
        (Timeline.series_names tl));
  Buffer.add_string b "\n],\"displayTimeUnit\":\"ns\"}\n";
  Buffer.contents b
