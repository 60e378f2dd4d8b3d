(** Virtual-time telemetry: deterministic time series over the counters.

    A timeline samples a set of registered {e sources} — closures reading
    cumulative counters (category attribution, stats, fault/scrub events,
    allocator steals, per-tenant throughput) — every time the simulated
    clock crosses a period boundary. Because the trigger is purely
    virtual time (the [Simclock.advance] funnel compares the current
    actor's clock against {!next_boundary}), the sample times and values
    are bit-identical across host machines and [--jobs] counts: host
    speed never appears in the inputs.

    Each source becomes one {e series} of fixed capacity holding, per
    sample, the boundary-crossing time, the delta of the counter since
    the previous sample, and the cumulative value. When the buffer
    fills, adjacent sample pairs merge (deltas add, the later time and
    cumulative value win) and the sampling period doubles: the series
    always covers the whole run at a resolution that adapts to its
    length. The compaction depends only on the sample count, so it is as
    deterministic as the samples themselves, and every series maintains
    the invariant

      sum(retained deltas) = last sampled value - value at registration

    which {!check} verifies at 1e-8 relative tolerance — the timeline leg
    of [Env.check_identity].

    Sources must be charge-free (plain field reads): they run inside the
    clock-advance funnel, so a source that advanced the clock would
    recurse. All timeline work costs host time only. *)

type series = {
  s_name : string;
  s_read : unit -> float;  (** cumulative counter; must not charge time *)
  s_cum0 : float;  (** counter value when the source was registered *)
  mutable s_last : float;  (** counter value at the newest sample *)
  s_delta : float array;  (** per-slot delta since the previous sample *)
  s_cum : float array;  (** per-slot cumulative value *)
}

type t = {
  capacity : int;
  period0_ns : float;
  mutable period_ns : float;
  mutable next_ns : float;  (** next boundary; [Simclock.advance] compares *)
  mutable series_rev : series list;  (** newest first; {!series_list} reverses *)
  mutable nseries : int;
  times : float array;  (** shared sample times (clock at the crossing) *)
  mutable len : int;  (** retained samples; the next write slot *)
  mutable taken : int;  (** samples taken, including merged ones *)
  mutable doublings : int;
}

(* [SPLITFS_TIMELINE=1] enables a default timeline in every environment
   the process creates — the switch behind the "output is bit-identical
   with telemetry on" end-to-end check (diff `bench --fast` with and
   without it), mirroring SPLITFS_TRACE. *)
let timeline_everything =
  match Sys.getenv_opt "SPLITFS_TIMELINE" with
  | Some ("1" | "true" | "yes") -> true
  | _ -> false

let create ?(capacity = 512) ?(period_ns = 4096.) () =
  let capacity = max 8 capacity in
  (* pair-merging compaction needs an even slot count *)
  let capacity = capacity + (capacity land 1) in
  if period_ns <= 0. then invalid_arg "Timeline.create: period_ns <= 0";
  {
    capacity;
    period0_ns = period_ns;
    period_ns;
    next_ns = period_ns;
    series_rev = [];
    nseries = 0;
    times = Array.make capacity 0.;
    len = 0;
    taken = 0;
    doublings = 0;
  }

let next_boundary t = t.next_ns
let period_ns t = t.period_ns
let length t = t.len
let samples_taken t = t.taken
let doublings t = t.doublings

(** Registration order (the export order). *)
let series_list t = List.rev t.series_rev

let series_names t = List.map (fun s -> s.s_name) (series_list t)

(** [add_source t ~name read] registers a cumulative counter. Sources may
    be registered after sampling has started (e.g. per-tenant throughput
    once the fleet exists): earlier slots read as delta 0 / cumulative
    [read ()]-at-registration, and the identity holds from registration
    onward. *)
let add_source t ~name read =
  let v = read () in
  let s =
    {
      s_name = name;
      s_read = read;
      s_cum0 = v;
      s_last = v;
      s_delta = Array.make t.capacity 0.;
      s_cum = Array.make t.capacity v;
    }
  in
  t.series_rev <- s :: t.series_rev;
  t.nseries <- t.nseries + 1

(** A copy of [t], every retained sample and the sampling state
    included, whose series read [source name] instead of their own
    sources: the same counters of another environment. *)
let clone t ~source =
  let series s =
    {
      s with
      s_read = source s.s_name;
      s_delta = Array.copy s.s_delta;
      s_cum = Array.copy s.s_cum;
    }
  in
  { t with series_rev = List.map series t.series_rev; times = Array.copy t.times }

(* Merge adjacent sample pairs in place: deltas add, the later time and
   cumulative value survive. Depends only on slot contents, so a given
   sample history always compacts identically. *)
let compact t =
  let half = t.len / 2 in
  for j = 0 to half - 1 do
    t.times.(j) <- t.times.((2 * j) + 1)
  done;
  List.iter
    (fun s ->
      for j = 0 to half - 1 do
        s.s_delta.(j) <- s.s_delta.(2 * j) +. s.s_delta.((2 * j) + 1);
        s.s_cum.(j) <- s.s_cum.((2 * j) + 1)
      done;
      (* the merged-away upper half is dead: zero it so the identity
         check can fold over the whole array without double-counting *)
      for j = half to t.capacity - 1 do
        s.s_delta.(j) <- 0.
      done)
    t.series_rev;
  t.len <- half;
  t.period_ns <- t.period_ns *. 2.;
  t.doublings <- t.doublings + 1

(** [sample t ~now] records one sample at virtual time [now] and advances
    the boundary. Called from the clock funnel when [now] crosses
    {!next_boundary}; callable directly ({!flush}) to close the books. *)
let sample t ~now =
  let slot = t.len in
  t.times.(slot) <- now;
  List.iter
    (fun s ->
      let v = s.s_read () in
      s.s_delta.(slot) <- v -. s.s_last;
      s.s_cum.(slot) <- v;
      s.s_last <- v)
    t.series_rev;
  t.len <- t.len + 1;
  if t.len = t.capacity then compact t;
  t.taken <- t.taken + 1;
  let next = t.period_ns *. (Float.floor (now /. t.period_ns) +. 1.) in
  (* guard against float-precision stalls at extreme now/period ratios *)
  t.next_ns <- (if next > now then next else now +. t.period_ns)

(** Take a closing sample at [now] (or just past the newest sample if the
    clock has not moved) so the series account for every counter value up
    to the present — used before exports and by the identity check. *)
let flush t ~now =
  let last = if t.len = 0 then neg_infinity else t.times.(t.len - 1) in
  sample t ~now:(Float.max now last)

(** Retained samples of series [name], oldest first, as
    [(time, delta, cumulative)] triples. *)
let samples t name =
  match List.find_opt (fun s -> s.s_name = name) t.series_rev with
  | None -> invalid_arg ("Timeline.samples: unknown series " ^ name)
  | Some s ->
      Array.init t.len (fun i -> (t.times.(i), s.s_delta.(i), s.s_cum.(i)))

(** Verify, for every series, sum(retained deltas) = last sampled value
    - value at registration, at 1e-8 relative + 1e-6 absolute tolerance
    (float summation order only). Raises [Failure] on violation; returns
    the number of series checked. *)
let check t =
  List.iter
    (fun s ->
      let retained = Array.fold_left ( +. ) 0. s.s_delta in
      let expect = s.s_last -. s.s_cum0 in
      let tol =
        (1e-8 *. Float.max (Float.abs retained) (Float.abs expect)) +. 1e-6
      in
      if Float.abs (retained -. expect) > tol then
        failwith
          (Printf.sprintf
             "timeline identity violated for series %s: retained %.6f <> \
              final-cum0 %.6f (tol %.6f)"
             s.s_name retained expect tol))
    t.series_rev;
  t.nseries

(* --- OpenMetrics / Prometheus text exposition ---------------------- *)

let metric_name s =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    s

(** OpenMetrics text exposition: one gauge metric per series (sampled
    cumulative values with virtual-time timestamps in seconds), ending
    with the spec's [# EOF] marker. Deterministic byte-for-byte. *)
let openmetrics t =
  let b = Buffer.create 4096 in
  List.iter
    (fun s ->
      let m = metric_name ("splitfs_" ^ s.s_name) in
      Buffer.add_string b
        (Printf.sprintf "# HELP %s cumulative %s sampled at virtual-time boundaries\n"
           m s.s_name);
      Buffer.add_string b (Printf.sprintf "# TYPE %s gauge\n" m);
      Array.iter
        (fun (time, _delta, cum) ->
          Buffer.add_string b
            (Printf.sprintf "%s{series=\"%s\"} %.6g %.9f\n" m s.s_name cum
               (time /. 1e9)))
        (samples t s.s_name))
    (series_list t);
  Buffer.add_string b "# EOF\n";
  Buffer.contents b
