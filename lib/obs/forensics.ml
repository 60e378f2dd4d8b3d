(** Tail forensics: top-k slowest-op exemplar capture.

    A ['span t] retains, per operation key ("<stack>/<op>"), the [k]
    slowest operations observed — each with its complete span list (the
    inner trace of that one op), the interval it covered, and the
    per-category attribution delta across it. The result answers "why is
    p999 slow": an outlier decomposes into the same 12 overhead
    categories the profiler uses, with the span tree as the drill-down.

    The type is parametric in the span representation so this module
    stays a leaf (the instrumentation layer instantiates it at
    [Obs.span] and routes [Obs]'s capture hook into {!on_span}).

    Capture relies on the dispatch model being run-to-completion: the
    scheduler runs each client operation to completion on the host
    before dispatching the next, so one in-flight capture buffer
    suffices even for 10k-actor fleets. Nested instrumented ops fold
    into the outermost one (depth counter). Purely host-side: no
    simulated charge ever originates here. *)

type 'a exemplar = {
  ex_key : string;
  ex_lat_ns : float;
  ex_t0 : float;  (** simulated ns, op start *)
  ex_t1 : float;
  ex_actor : int;
  ex_seq : int;  (** global op sequence number — provenance + tie-break *)
  ex_spans : 'a list;  (** emission order; the op's own span is last *)
  ex_cats : float array;  (** per-category attribution delta over the op *)
}

type 'a t = {
  k : int;
  ncats : int;
  mutable seq : int;  (** ops completed through this store *)
  mutable depth : int;  (** >0 while an op capture is open *)
  mutable cur_key : string;
  mutable cur_actor : int;
  mutable cur_t0 : float;
  mutable cur_cats0 : float array;
  mutable cur_spans_rev : 'a list;
  tops : (string, 'a exemplar list) Hashtbl.t;
      (** per key, ascending (latency, seq); length <= k *)
  ops : (string, int) Hashtbl.t;  (** ops observed per key *)
}

let create ?(k = 3) ~ncats () =
  {
    k = max 1 k;
    ncats;
    seq = 0;
    depth = 0;
    cur_key = "";
    cur_actor = 0;
    cur_t0 = 0.;
    cur_cats0 = [||];
    cur_spans_rev = [];
    tops = Hashtbl.create 32;
    ops = Hashtbl.create 32;
  }

(** Route for the tracing capture hook: spans emitted during an open op
    belong to that op's exemplar candidate. *)
let on_span t s = if t.depth > 0 then t.cur_spans_rev <- s :: t.cur_spans_rev

(** [op_begin t ~key ~actor ~t0 ~cats] opens a capture; [cats] is a
    snapshot of the cumulative per-category attribution (ownership is
    taken). Nested calls only bump the depth — the outermost op wins. *)
let op_begin t ~key ~actor ~t0 ~cats =
  t.depth <- t.depth + 1;
  if t.depth = 1 then begin
    t.cur_key <- key;
    t.cur_actor <- actor;
    t.cur_t0 <- t0;
    t.cur_cats0 <- cats;
    t.cur_spans_rev <- []
  end

(** Abandon the current capture level (exception unwinding). *)
let op_abort t =
  t.depth <- t.depth - 1;
  if t.depth = 0 then t.cur_spans_rev <- []

(* Insert keeping ascending (latency, seq) order and length <= k; the
   deterministic tie-break makes reports independent of anything but the
   simulated history. *)
let insert t ex =
  let key = ex.ex_key in
  let cur = match Hashtbl.find_opt t.tops key with Some l -> l | None -> [] in
  let lt a b =
    a.ex_lat_ns < b.ex_lat_ns
    || (a.ex_lat_ns = b.ex_lat_ns && a.ex_seq < b.ex_seq)
  in
  let rec ins = function
    | [] -> [ ex ]
    | x :: rest -> if lt ex x then ex :: x :: rest else x :: ins rest
  in
  let merged = ins cur in
  let merged =
    if List.length merged > t.k then List.tl merged else merged
  in
  Hashtbl.replace t.tops key merged

(** [op_end t ~t1 ~cats] closes the innermost capture level; at depth 0
    the candidate is scored and retained if it lands in the key's top-k.
    [cats] is the closing attribution snapshot. *)
let op_end t ~t1 ~cats =
  t.depth <- t.depth - 1;
  if t.depth = 0 then begin
    let lat = t1 -. t.cur_t0 in
    let seq = t.seq in
    t.seq <- seq + 1;
    let key = t.cur_key in
    Hashtbl.replace t.ops key
      (1 + match Hashtbl.find_opt t.ops key with Some n -> n | None -> 0);
    (* on ties with a full list the incumbent (earlier seq) wins *)
    let qualifies =
      match Hashtbl.find_opt t.tops key with
      | Some (smallest :: _ as l) when List.length l >= t.k ->
          lat > smallest.ex_lat_ns
      | _ -> true
    in
    if qualifies then
      insert t
        {
          ex_key = key;
          ex_lat_ns = lat;
          ex_t0 = t.cur_t0;
          ex_t1 = t1;
          ex_actor = t.cur_actor;
          ex_seq = seq;
          ex_spans = List.rev t.cur_spans_rev;
          ex_cats =
            Array.init t.ncats (fun i -> cats.(i) -. t.cur_cats0.(i));
        };
    t.cur_spans_rev <- []
  end

(** Keys with at least one retained exemplar, sorted. *)
let keys t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.tops [] |> List.sort compare

(** Retained exemplars for [key], slowest first. *)
let exemplars t key =
  match Hashtbl.find_opt t.tops key with
  | Some l -> List.rev l
  | None -> []

(** Ops observed under [key] (the population the top-k came from). *)
let total_ops t key =
  match Hashtbl.find_opt t.ops key with Some n -> n | None -> 0
