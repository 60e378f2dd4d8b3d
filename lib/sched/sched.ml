(** Deterministic event-driven scheduler for multi-client workloads.

    Each client is a closed-loop actor: it issues its next operation as
    soon as its previous one completes (no think time). Operations run to
    completion on the host; concurrency exists only in virtual time, so
    the scheduler is a discrete-event loop at operation granularity: it
    always dispatches the client whose virtual clock is furthest behind
    (ties broken by client id). That order is a pure function of the
    workload, which makes every run at a fixed seed bit-identical —
    including the contention charges (locks, shared PM bandwidth) the
    dispatched operation picks up from the windows other clients
    published.

    Dispatch-order determinism is also what makes the contention model
    well-defined: [Pmem.Lock] and the device's bandwidth queue resolve
    overlapping windows in dispatch order, and dispatch order is
    min-clock order.

    Dispatch is a binary min-heap keyed on (virtual clock, client id), so
    selecting the next client is O(log N) instead of the O(N) min-scan
    the scheduler shipped with — the difference between 16 closed-loop
    clients and a 10,000-actor serving tier. Only the dispatched client's
    clock moves between dispatches (charges land on the current actor
    only), so re-sifting just that one key preserves the exact
    min-clock-with-id-tiebreak order of the scan; {!run_reference} keeps
    the original min-scan as an executable specification, and the
    equivalence test pins [trace_hash]/[makespan] of the two against each
    other at every client count. *)

type client = {
  c_id : int;
  c_name : string;
  actor : Pmem.Simclock.actor;
  step : client -> int -> bool;
      (** [step c i] runs the client's [i]-th operation on [c]'s clock;
          [false] means the workload is exhausted ([i] was not run) *)
  mutable ops_done : int;
  mutable finished : bool;
}

type t = {
  env : Pmem.Env.t;
  mutable clients : client array;  (** spawn order; first [nclients] live *)
  mutable nclients : int;
  mutable spawned_at : float;  (** virtual time of the first spawn *)
  mutable trace_hash : int;  (** FNV-1a over the dispatch sequence *)
  mutable dispatches : int;
}

let create env =
  {
    env;
    clients = [||];
    nclients = 0;
    spawned_at = 0.;
    (* FNV-1a 64-bit offset basis, truncated to OCaml's 63-bit int *)
    trace_hash = 0xbf29ce484222325;
    dispatches = 0;
  }

(** [spawn t ~name ~step] registers a client whose virtual clock starts at
    the current actor's time — all clients spawned back-to-back start
    together, after whatever setup the driver already charged. Amortized
    O(1): the client table doubles, it is never rebuilt per spawn. *)
let spawn t ~name ~step =
  if t.nclients = 0 then t.spawned_at <- Pmem.Env.now t.env;
  let actor = Pmem.Env.new_actor t.env ~name in
  let c =
    { c_id = t.nclients; c_name = name; actor; step; ops_done = 0; finished = false }
  in
  let cap = Array.length t.clients in
  if t.nclients = cap then begin
    let grown = Array.make (max 8 (2 * cap)) c in
    Array.blit t.clients 0 grown 0 cap;
    t.clients <- grown
  end;
  t.clients.(t.nclients) <- c;
  t.nclients <- t.nclients + 1;
  c

let fnv_prime = 0x100000001b3

let record t c =
  (* FNV-1a over (client id, op index): a compact fingerprint of the
     interleaving, compared across runs by the determinism test *)
  let mix h x = (h lxor x) * fnv_prime land max_int in
  t.trace_hash <- mix (mix t.trace_hash c.c_id) c.ops_done;
  t.dispatches <- t.dispatches + 1

let dispatch t c =
  record t c;
  let more = Pmem.Env.run_as t.env c.actor (fun () -> c.step c c.ops_done) in
  if more then c.ops_done <- c.ops_done + 1 else c.finished <- true

(* --- event heap ----------------------------------------------------- *)

(* Strictly-less on (virtual clock, client id): the same lexicographic
   order the min-scan reference induces, so the heap's minimum is always
   exactly the client the scan would have picked. *)
let precedes a b =
  let ta = a.actor.Pmem.Simclock.a_now and tb = b.actor.Pmem.Simclock.a_now in
  ta < tb || (ta = tb && a.c_id < b.c_id)

let sift_down heap n i =
  let c = heap.(i) in
  let i = ref i in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= n then continue := false
    else begin
      let r = l + 1 in
      let smallest = if r < n && precedes heap.(r) heap.(l) then r else l in
      if precedes heap.(smallest) c then begin
        heap.(!i) <- heap.(smallest);
        i := smallest
      end
      else continue := false
    end
  done;
  heap.(!i) <- c

(** Run every client to completion, always dispatching the one whose
    virtual clock is furthest behind (ties: lowest client id). O(log N)
    per dispatch. *)
let run t =
  if t.nclients > 0 then begin
    let heap = Array.sub t.clients 0 t.nclients in
    (* spawn order is id order, and all clocks start together, so the
       array is heap-ordered for equal clocks; heapify handles drivers
       that charged time between spawns *)
    for i = (t.nclients / 2) - 1 downto 0 do
      sift_down heap t.nclients i
    done;
    let n = ref t.nclients in
    while !n > 0 do
      let c = heap.(0) in
      dispatch t c;
      if c.finished then begin
        decr n;
        heap.(0) <- heap.(!n);
        if !n > 0 then sift_down heap !n 0
      end
      else
        (* only the dispatched client's clock moved: re-sift its key *)
        sift_down heap !n 0
    done
  end

(** The original O(N)-per-dispatch min-scan, retained as the executable
    specification of dispatch order: the equivalence test pins the heap
    scheduler's [trace_hash], [makespan] and per-client op counts against
    this, and the scale experiment measures its host cost as the
    baseline the heap beats. *)
let run_reference t =
  let next_runnable () =
    let best = ref None in
    for i = 0 to t.nclients - 1 do
      let c = t.clients.(i) in
      if not c.finished then
        match !best with
        | Some b when b.actor.Pmem.Simclock.a_now <= c.actor.Pmem.Simclock.a_now
          ->
            ()
        | _ -> best := Some c
    done;
    !best
  in
  let rec loop () =
    match next_runnable () with
    | None -> ()
    | Some c ->
        dispatch t c;
        loop ()
  in
  loop ()

(** Live clients in spawn order — the telemetry layer reads [ops_done]
    through this to build per-tenant throughput series. *)
let clients t = Array.to_list (Array.sub t.clients 0 t.nclients)

let trace_hash t = t.trace_hash
let dispatches t = t.dispatches

(** Total operations completed across all clients. *)
let total_ops t =
  let n = ref 0 in
  for i = 0 to t.nclients - 1 do
    n := !n + t.clients.(i).ops_done
  done;
  !n

(** Makespan: first spawn to the last client's completion, in virtual ns.
    Aggregate throughput = [total_ops / makespan]. *)
let makespan t =
  let m = ref 0. in
  for i = 0 to t.nclients - 1 do
    m := Float.max !m (t.clients.(i).actor.Pmem.Simclock.a_now -. t.spawned_at)
  done;
  !m
