(** Multi-tenant serving-tier workload: the op mix one actor of a scale-out
    tier issues against its tenant's slice of the namespace.

    Each tenant owns a root directory ([/t<k>]) holding one shared,
    preallocated data file (the YCSB-style keyspace: Zipf-skewed point
    reads and in-place updates at record granularity) plus one private
    write-ahead log per actor (the TPC-C-style durability stream:
    appends fsynced every few records). Reads dominate — a serving tier
    with hundreds of actors per tenant cannot serialize every op on the
    tenant's file write lock — and every op charges [think_ns] of
    application CPU (request parsing, hashing, response building), which
    is what bounds a single actor's rate and lets aggregate throughput
    climb with the actor count until the device saturates.

    Everything is deterministic: each actor derives its RNG from
    [seed] and its own index, so a run's dispatch trace is a pure
    function of (spec, nactors, ops per actor). *)

(* The tenant's shared data file: its records and their size. *)
let data_records = 256
let record_size = 4096
let data_file_bytes = data_records * record_size

(* The actor's private WAL: its record size, fsynced every few appends. *)
let wal_record = 1024
let wal_fsync_every = 4

(* The op mix: Zipf point reads and in-place updates on the shared data
   file; the remainder appends to the actor's private WAL. *)
let read_fraction = 0.7
let update_fraction = 0.1
let zipf_theta = 0.99

(* Application CPU charged per op. *)
let think_ns = 200_000.
let seed = 0x5CA1E

(** Per-actor state for one closed-loop serving actor. *)
type actor_state = {
  fs : Fsapi.Fs.t;
  data_path : string;
  wal_path : string;
  rng : Rng.t;
  zipf : Zipf.t;  (** shared per run: immutable after creation *)
  think : unit -> unit;
  mutable data_fd : int;
  mutable wal_fd : int;
  mutable wal_off : int;
  mutable wal_appends : int;
}

let make_actor ~fs ~think ~zipf ~tenant ~idx =
  {
    fs;
    data_path = Printf.sprintf "/t%d/data" tenant;
    wal_path = Printf.sprintf "/t%d/wal%d" tenant idx;
    (* splitmix64 decorrelates the dense actor indices *)
    rng = Rng.create (seed + (idx * 0x9E3779B9) + 1);
    zipf;
    think;
    data_fd = -1;
    wal_fd = -1;
    wal_off = 0;
    wal_appends = 0;
  }

(** One scheduler step of the actor: step 0 opens its files, steps
    [1..ops_per_actor] each run one op of the mix, the final step makes
    the WAL durable and closes. Returns [false] when exhausted. *)
let step ~ops_per_actor st i =
  if i = 0 then begin
    st.data_fd <- st.fs.Fsapi.Fs.open_ st.data_path Fsapi.Flags.rdwr;
    st.wal_fd <- st.fs.Fsapi.Fs.open_ st.wal_path Fsapi.Flags.create_rw;
    true
  end
  else if i <= ops_per_actor then begin
    st.think ();
    let u = Rng.float st.rng in
    let record () = Zipf.sample st.zipf st.rng in
    if u < read_fraction then begin
      let buf = Bytes.create record_size in
      let n =
        st.fs.Fsapi.Fs.pread st.data_fd ~buf ~boff:0 ~len:record_size
          ~at:(record () * record_size)
      in
      assert (n = record_size)
    end
    else if u < read_fraction +. update_fraction then begin
      let buf = Bytes.make record_size 'u' in
      let n =
        st.fs.Fsapi.Fs.pwrite st.data_fd ~buf ~boff:0 ~len:record_size
          ~at:(record () * record_size)
      in
      assert (n = record_size)
    end
    else begin
      let buf = Bytes.make wal_record 'w' in
      let n =
        st.fs.Fsapi.Fs.pwrite st.wal_fd ~buf ~boff:0 ~len:wal_record
          ~at:st.wal_off
      in
      assert (n = wal_record);
      st.wal_off <- st.wal_off + wal_record;
      st.wal_appends <- st.wal_appends + 1;
      if st.wal_appends mod wal_fsync_every = 0 then
        st.fs.Fsapi.Fs.fsync st.wal_fd
    end;
    true
  end
  else if i = ops_per_actor + 1 then begin
    st.fs.Fsapi.Fs.fsync st.wal_fd;
    st.fs.Fsapi.Fs.close st.wal_fd;
    st.fs.Fsapi.Fs.close st.data_fd;
    true
  end
  else false

(** Create the tenant root and its preallocated, fully-mapped data file
    (setup, charged to the caller's clock before any actor spawns). *)
let setup_tenant (fs : Fsapi.Fs.t) ~tenant =
  fs.Fsapi.Fs.mkdir (Printf.sprintf "/t%d" tenant);
  let path = Printf.sprintf "/t%d/data" tenant in
  let fd = fs.Fsapi.Fs.open_ path Fsapi.Flags.create_rw in
  let chunk = 16 * 4096 in
  let buf = Bytes.make chunk 'd' in
  let total = data_file_bytes in
  let off = ref 0 in
  while !off < total do
    let n = min chunk (total - !off) in
    let w = fs.Fsapi.Fs.pwrite fd ~buf ~boff:0 ~len:n ~at:!off in
    assert (w = n);
    off := !off + n
  done;
  fs.Fsapi.Fs.fsync fd;
  fs.Fsapi.Fs.close fd
