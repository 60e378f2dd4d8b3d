(** Yahoo Cloud Serving Benchmark (Cooper et al., SoCC '10) workloads A–F,
    driven against the LSM key-value store — the paper's LevelDB
    experiments (§5.2, Figure 6, Table 7).

    Standard mixes:
    - A: 50% read / 50% update (zipfian)
    - B: 95% read / 5% update (zipfian)
    - C: 100% read (zipfian)
    - D: 95% read / 5% insert (latest)
    - E: 95% scan / 5% insert (zipfian)
    - F: 50% read / 50% read-modify-write (zipfian) *)

type workload = Load | A | B | C | D | E | F

let workload_name = function
  | Load -> "LoadA"
  | A -> "RunA"
  | B -> "RunB"
  | C -> "RunC"
  | D -> "RunD"
  | E -> "RunE"
  | F -> "RunF"

type op = Read of int | Update of int | Insert | Scan of int * int | Rmw of int

type config = { records : int; operations : int; value_size : int }

(* A scan reads 1 to [scan_max] records; every run draws from seed 7. *)
let scan_max = 100
let seed = 7

let key_of i = Printf.sprintf "user%012d" i

(** Generate the operation for one step of the given workload. *)
let next_op workload rng zipf ~inserted =
  let zip () = Zipf.sample zipf rng in
  let latest () = max 0 (!inserted - 1 - Zipf.sample zipf rng) in
  match workload with
  | Load -> Insert
  | A -> if Rng.float rng < 0.5 then Read (zip ()) else Update (zip ())
  | B -> if Rng.float rng < 0.95 then Read (zip ()) else Update (zip ())
  | C -> Read (zip ())
  | D ->
      if Rng.float rng < 0.95 then Read (latest ())
      else Insert
  | E ->
      if Rng.float rng < 0.95 then Scan (zip (), 1 + Rng.int rng scan_max)
      else Insert
  | F -> if Rng.float rng < 0.5 then Read (zip ()) else Rmw (zip ())

type result = {
  ops_done : int;
  reads : int;
  writes : int;
  scans : int;
  not_found : int;
}

(** Run a workload against an open LSM store. [Load] inserts
    [cfg.records]; the others execute [cfg.operations] ops over an
    existing store. *)
let run ?(think = fun () -> ()) (lsm : Apps.Lsm.t) workload cfg =
  let rng = Rng.create seed in
  let zipf = Zipf.create (max 1 cfg.records) in
  let inserted = ref cfg.records in
  let reads = ref 0 and writes = ref 0 and scans = ref 0 and not_found = ref 0 in
  let value () = Rng.payload rng cfg.value_size in
  let steps = match workload with Load -> cfg.records | _ -> cfg.operations in
  (if workload = Load then inserted := 0);
  for _ = 1 to steps do
    (* application-side work (request parsing, memtable walk, comparisons):
       the paper observes LevelDB spends 20-50% of its time outside POSIX
       calls (section 4) *)
    think ();
    match next_op workload rng zipf ~inserted with
    | Insert ->
        Apps.Lsm.put lsm (key_of !inserted) (value ());
        incr inserted;
        incr writes
    | Update k ->
        Apps.Lsm.put lsm (key_of k) (value ());
        incr writes
    | Read k ->
        (match Apps.Lsm.get lsm (key_of k) with
        | Some _ -> ()
        | None -> incr not_found);
        incr reads
    | Scan (k, n) ->
        ignore (Apps.Lsm.scan lsm ~start:(key_of k) ~count:n);
        incr scans
    | Rmw k ->
        (match Apps.Lsm.get lsm (key_of k) with
        | Some _ -> ()
        | None -> incr not_found);
        Apps.Lsm.put lsm (key_of k) (value ());
        incr reads;
        incr writes
  done;
  {
    ops_done = steps;
    reads = !reads;
    writes = !writes;
    scans = !scans;
    not_found = !not_found;
  }
