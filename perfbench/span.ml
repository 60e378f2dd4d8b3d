(** In-memory span recorder for the traced run.

    Spans are opened and closed from the benchmark's own code around calls
    into each layer's public functions; the library itself is untouched.
    Each span records its name, host start and end (monotonic ns), its
    parent span and the op or trial id it belongs to. Per-name aggregates
    (calls, inclusive ns, self ns, minor words) are kept for every span;
    the span list itself is capped so that a long run still writes a
    trace file of bounded size. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* --- span names: registered once at module initialisation --- *)

let names = ref [||]

let name s =
  let id = Array.length !names in
  names := Array.append !names [| s |];
  id

let name_of id = !names.(id)

type t = {
  mutable n : int;  (** spans kept so far *)
  mutable s_name : int array;
  mutable s_t0 : int array;
  mutable s_t1 : int array;
  mutable s_parent : int array;  (** kept index of the parent, or -1 *)
  mutable s_id : int array;
  mutable dropped : int;
  (* per-name aggregates, indexed by name id *)
  mutable calls : int array;
  mutable incl_ns : float array;
  mutable self_ns : float array;
  mutable words : float array;
  (* open-span stack *)
  mutable depth : int;
  k_name : int array;
  k_slot : int array;
  k_t0 : int array;
  k_w0 : float array;
  k_child : int array;  (** ns covered by closed children *)
  mutable cur_id : int;
}

let max_depth = 64

(** Spans kept for the trace file; later ones still count in the
    aggregates. *)
let max_kept = 200_000

let create () =
  let n = Array.length !names in
  {
    n = 0;
    s_name = Array.make 1024 0;
    s_t0 = Array.make 1024 0;
    s_t1 = Array.make 1024 0;
    s_parent = Array.make 1024 0;
    s_id = Array.make 1024 0;
    dropped = 0;
    calls = Array.make n 0;
    incl_ns = Array.make n 0.;
    self_ns = Array.make n 0.;
    words = Array.make n 0.;
    depth = 0;
    k_name = Array.make max_depth 0;
    k_slot = Array.make max_depth 0;
    k_t0 = Array.make max_depth 0;
    k_w0 = Array.make max_depth 0.;
    k_child = Array.make max_depth 0;
    cur_id = 0;
  }

(** Every op or trial that follows belongs to [id]. *)
let set_id t id = t.cur_id <- id

let grow t =
  let g a = Array.append a (Array.make (Array.length a) 0) in
  t.s_name <- g t.s_name;
  t.s_t0 <- g t.s_t0;
  t.s_t1 <- g t.s_t1;
  t.s_parent <- g t.s_parent;
  t.s_id <- g t.s_id

let enter t id =
  let d = t.depth in
  if d >= max_depth then failwith "Span.enter: nesting too deep";
  let slot =
    if t.n < max_kept then begin
      if t.n = Array.length t.s_name then grow t;
      let s = t.n in
      t.n <- s + 1;
      t.s_name.(s) <- id;
      t.s_parent.(s) <- (if d > 0 then t.k_slot.(d - 1) else -1);
      t.s_id.(s) <- t.cur_id;
      s
    end
    else begin
      t.dropped <- t.dropped + 1;
      -1
    end
  in
  t.k_name.(d) <- id;
  t.k_slot.(d) <- slot;
  t.k_child.(d) <- 0;
  t.depth <- d + 1;
  t.k_w0.(d) <- Gc.minor_words ();
  let t0 = now_ns () in
  t.k_t0.(d) <- t0;
  if slot >= 0 then t.s_t0.(slot) <- t0

let leave t =
  let t1 = now_ns () in
  let w1 = Gc.minor_words () in
  let d = t.depth - 1 in
  t.depth <- d;
  let id = t.k_name.(d) in
  let dur = t1 - t.k_t0.(d) in
  let slot = t.k_slot.(d) in
  if slot >= 0 then t.s_t1.(slot) <- t1;
  if d > 0 then t.k_child.(d - 1) <- t.k_child.(d - 1) + dur;
  t.calls.(id) <- t.calls.(id) + 1;
  t.incl_ns.(id) <- t.incl_ns.(id) +. float_of_int dur;
  t.self_ns.(id) <- t.self_ns.(id) +. float_of_int (dur - t.k_child.(d));
  t.words.(id) <- t.words.(id) +. (w1 -. t.k_w0.(d))

(** [span t id f] runs [f ()] inside a span named [id]. *)
let span t id f =
  enter t id;
  match f () with
  | x ->
      leave t;
      x
  | exception e ->
      leave t;
      raise e

(** [opt tr id f] is [span] when tracing, a plain call otherwise. *)
let opt tr id f = match tr with None -> f () | Some t -> span t id f

let calls t id = t.calls.(id)

(** Mean inclusive host ns per call (0 for a name never entered). *)
let mean_ns t id =
  if t.calls.(id) = 0 then 0. else t.incl_ns.(id) /. float_of_int t.calls.(id)

let mean_words t id =
  if t.calls.(id) = 0 then 0. else t.words.(id) /. float_of_int t.calls.(id)

let self_ns t id = t.self_ns.(id)
let total_ns t id = t.incl_ns.(id)

(** Chrome-trace JSON ("X" complete events, microsecond timestamps
    relative to the first kept span), loadable in Perfetto. *)
let write_chrome t path =
  let oc = open_out path in
  let base = if t.n > 0 then t.s_t0.(0) else 0 in
  let us x = float_of_int (x - base) /. 1000. in
  output_string oc "{\"traceEvents\":[";
  for s = 0 to t.n - 1 do
    if s > 0 then output_string oc ",\n";
    Printf.fprintf oc
      "{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%d,\"parent\":%d,\"id\":%d}}"
      (name_of t.s_name.(s)) (us t.s_t0.(s))
      (float_of_int (t.s_t1.(s) - t.s_t0.(s)) /. 1000.)
      s t.s_parent.(s) t.s_id.(s)
  done;
  Printf.fprintf oc "],\"displayTimeUnit\":\"ns\",\"otherData\":{\"dropped_spans\":%d}}\n"
    t.dropped;
  close_out oc
