(** The two data-path workloads: closed loop, one client, no think time.

    - [varmail-strict]: the Table 6 loop on splitfs-strict. One unit is
      one iteration of 16 Fsapi calls: create, 4 x (4 KiB append + fsync),
      close, open, 16 KiB pread, close, open, close, unlink. Names rotate
      over 512 paths, so at most 16 KiB is live at a time.
    - [zipf-rw]: splitfs-posix over 32 files x 32 KiB. One unit is 64
      ops: 63 x 4 KiB at a Zipf(0.99) block rank (90% pread, 10% in-place
      pwrite) and one fsync, round-robin over the files. The 1 MiB of
      file data fits in one core's L2: a working set that spills into the
      host's shared L3 made the run's speed follow the other tenants'
      cache use.

    Every pread is checked against an in-benchmark model of the bytes
    last written, and every short return or [Errno.Error] counts as a
    failed op. *)

open Common

type kind = Varmail | Zipf

let kind_name = function Varmail -> "varmail-strict" | Zipf -> "zipf-rw"

let spec = function
  | Varmail -> Harness.Fs_config.Splitfs_strict
  | Zipf -> Harness.Fs_config.Splitfs_posix

let ops_per_unit = function Varmail -> 16 | Zipf -> 64

let block = 4096
let varmail_names = 512
let zipf_files = 32
let zipf_blocks_per_file = 8
let zipf_blocks = zipf_files * zipf_blocks_per_file
let pool_size = 64
let window_offsets = 512

type ctx = {
  env : Pmem.Env.t;
  fs : Fsapi.Fs.t;
  tr : Span.t option;
  mutable attempted : int;
  mutable failed : int;
  mutable recording : bool;  (** inside the exact window *)
  lat : Fbuf.t;
  mutable user_bytes : int;
  mutable digest : int;
}

let fail c = c.failed <- c.failed + 1

(** One Fsapi call: counted, timed on the simulated clock, spanned when
    tracing. Returns the call's result, or -1 if it raised. *)
let op c id f =
  c.attempted <- c.attempted + 1;
  let t0 = Pmem.Env.now c.env in
  let r =
    match Span.opt c.tr id f with
    | r -> r
    | exception Fsapi.Errno.Error _ ->
        fail c;
        -1
  in
  if c.recording then Fbuf.push c.lat (Pmem.Env.now c.env -. t0);
  r

(** [expect c r n] counts a short return as a failure (a raise already
    counted). *)
let expect c r n = if r >= 0 && r <> n then fail c

let random_block rng =
  Bytes.init block (fun _ -> Char.unsafe_chr (Workloads.Rng.int rng 256))

let permutation rng n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Workloads.Rng.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* ------------------------------------------------------------------ *)
(* varmail-strict                                                       *)
(* ------------------------------------------------------------------ *)

type varmail = {
  names : string array;
  v_pool : Bytes.t array;
  order : int array;  (** append k of iteration i writes pool block order.(4i+k mod n) *)
  expect_buf : Bytes.t;
  v_rbuf : Bytes.t;
  mutable iter : int;
}

let varmail_init ~seed =
  let rng = Workloads.Rng.create seed in
  let perm = permutation rng varmail_names in
  {
    names = Array.map (Printf.sprintf "/vm%03d") perm;
    v_pool = Array.init 64 (fun _ -> random_block rng);
    order = permutation rng 64;
    expect_buf = Bytes.create (4 * block);
    v_rbuf = Bytes.create (4 * block);
    iter = 0;
  }

let varmail_unit c v =
  let fs = c.fs in
  let i = v.iter in
  v.iter <- i + 1;
  let path, blocks =
    Span.opt c.tr l_gen (fun () ->
        let path = v.names.(i mod varmail_names) in
        let blocks =
          Array.init 4 (fun k ->
              let b = v.order.(((4 * i) + k) mod Array.length v.order) in
              Bytes.blit v.v_pool.(b) 0 v.expect_buf (k * block) block;
              c.digest <- mix c.digest b;
              v.v_pool.(b))
        in
        (path, blocks))
  in
  let fd = op c l_open (fun () -> fs.Fsapi.Fs.open_ path Fsapi.Flags.create_rw) in
  for k = 0 to 3 do
    let buf = blocks.(k) in
    expect c (op c l_write (fun () -> fs.Fsapi.Fs.write fd ~buf ~boff:0 ~len:block)) block;
    if c.recording then c.user_bytes <- c.user_bytes + block;
    ignore (op c l_fsync (fun () -> fs.Fsapi.Fs.fsync fd; 0))
  done;
  ignore (op c l_close (fun () -> fs.Fsapi.Fs.close fd; 0));
  let fd = op c l_open (fun () -> fs.Fsapi.Fs.open_ path Fsapi.Flags.rdonly) in
  let len = 4 * block in
  let n =
    op c l_pread (fun () -> fs.Fsapi.Fs.pread fd ~buf:v.v_rbuf ~boff:0 ~len ~at:0)
  in
  if n >= 0 then
    Span.opt c.tr l_verify (fun () ->
        if n <> len || not (Bytes.equal v.v_rbuf v.expect_buf) then fail c);
  ignore (op c l_close (fun () -> fs.Fsapi.Fs.close fd; 0));
  let fd = op c l_open (fun () -> fs.Fsapi.Fs.open_ path Fsapi.Flags.rdonly) in
  ignore (op c l_close (fun () -> fs.Fsapi.Fs.close fd; 0));
  ignore (op c l_unlink (fun () -> fs.Fsapi.Fs.unlink path; 0))

(** The run must end with none of the rotating names left behind. *)
let varmail_final c v =
  let left =
    match c.fs.Fsapi.Fs.readdir "/" with
    | entries ->
        List.filter
          (fun e -> Array.exists (fun p -> p = "/" ^ e) v.names)
          entries
    | exception Fsapi.Errno.Error _ -> [ "(readdir failed)" ]
  in
  c.attempted <- c.attempted + 1;
  if left <> [] then fail c

(* ------------------------------------------------------------------ *)
(* zipf-rw                                                              *)
(* ------------------------------------------------------------------ *)

type zipf = {
  fds : Fsapi.Fs.fd array;
  z_pool : Bytes.t array;
  model : int array;  (** block -> pool index of the bytes last written *)
  perm : int array;  (** Zipf rank -> block *)
  z : Workloads.Zipf.t;
  rng : Workloads.Rng.t;
  z_rbuf : Bytes.t;
  mutable batch : int;
}

let zipf_path f = Printf.sprintf "/z%02d" f

(** Create the 32 files and fill every block from the seeded pool,
    fsync'd: the 1 MiB working set is live before the first timed op. *)
let zipf_prefill (fs : Fsapi.Fs.t) ~seed =
  let rng = Workloads.Rng.create seed in
  let z_pool = Array.init pool_size (fun _ -> random_block rng) in
  let model = Array.make zipf_blocks 0 in
  let fds =
    Array.init zipf_files (fun f ->
        let fd = fs.Fsapi.Fs.open_ (zipf_path f) Fsapi.Flags.create_rw in
        for k = 0 to zipf_blocks_per_file - 1 do
          let p = Workloads.Rng.int rng pool_size in
          let n =
            fs.Fsapi.Fs.pwrite fd ~buf:z_pool.(p) ~boff:0 ~len:block
              ~at:(k * block)
          in
          if n <> block then failwith "zipf-rw prefill: short write";
          model.((f * zipf_blocks_per_file) + k) <- p
        done;
        fs.Fsapi.Fs.fsync fd;
        fd)
  in
  {
    fds;
    z_pool;
    model;
    perm = permutation rng zipf_blocks;
    z = Workloads.Zipf.create ~theta:0.99 zipf_blocks;
    rng;
    z_rbuf = Bytes.create block;
    batch = 0;
  }

let zipf_unit c z =
  let fs = c.fs in
  for _ = 1 to 63 do
    let b, w =
      Span.opt c.tr l_gen (fun () ->
          let b = z.perm.(Workloads.Zipf.sample z.z z.rng) in
          let w =
            if Workloads.Rng.int z.rng 10 = 0 then
              Workloads.Rng.int z.rng pool_size
            else -1
          in
          c.digest <- mix (mix c.digest b) w;
          (b, w))
    in
    let fd = z.fds.(b / zipf_blocks_per_file) in
    let at = b mod zipf_blocks_per_file * block in
    if w >= 0 then begin
      let buf = z.z_pool.(w) in
      let n =
        op c l_pwrite (fun () -> fs.Fsapi.Fs.pwrite fd ~buf ~boff:0 ~len:block ~at)
      in
      expect c n block;
      if n = block then z.model.(b) <- w;
      if c.recording then c.user_bytes <- c.user_bytes + block
    end
    else begin
      let n =
        op c l_pread (fun () ->
            fs.Fsapi.Fs.pread fd ~buf:z.z_rbuf ~boff:0 ~len:block ~at)
      in
      if n >= 0 then
        Span.opt c.tr l_verify (fun () ->
            if n <> block || not (Bytes.equal z.z_rbuf z.z_pool.(z.model.(b)))
            then fail c)
    end
  done;
  let fd = z.fds.(z.batch mod zipf_files) in
  z.batch <- z.batch + 1;
  ignore (op c l_fsync (fun () -> fs.Fsapi.Fs.fsync fd; 0))

(** Read every block back once more against the model. *)
let zipf_final c z =
  let buf = Bytes.create block in
  Array.iteri
    (fun b p ->
      c.attempted <- c.attempted + 1;
      let fd = z.fds.(b / zipf_blocks_per_file) in
      match
        c.fs.Fsapi.Fs.pread fd ~buf ~boff:0 ~len:block
          ~at:(b mod zipf_blocks_per_file * block)
      with
      | n -> if n <> block || not (Bytes.equal buf z.z_pool.(p)) then fail c
      | exception Fsapi.Errno.Error _ -> fail c)
    z.model

(* ------------------------------------------------------------------ *)
(* Stack construction                                                   *)
(* ------------------------------------------------------------------ *)

type state = V of varmail | Z of zipf

(** [Fs_config.make] recomposed from its layers, so each layer's set-up
    can be spanned. The traced run checks it builds the same stack: its
    exact metrics must equal the untraced run's bit for bit. *)
let make_traced tr spec =
  let mode =
    match spec with
    | Harness.Fs_config.Splitfs_strict -> Splitfs.Config.Strict
    | _ -> Splitfs.Config.Posix
  in
  Span.span tr l_make (fun () ->
      let env =
        Span.span tr l_env_create (fun () ->
            Pmem.Env.create ~capacity:(256 * 1024 * 1024) ())
      in
      let kfs =
        Span.span tr l_mkfs (fun () ->
            Kernelfs.Ext4.mkfs ~journal_len:(8 * 1024 * 1024) env)
      in
      let sys = Kernelfs.Syscall.make kfs in
      let cfg = Harness.Fs_config.splitfs_experiment_cfg mode in
      let u =
        Span.span tr l_mount (fun () ->
            Splitfs.Usplit.mount ~cfg ~sys ~env ~instance:0 ())
      in
      (env, Splitfs.Usplit.as_fsapi u))

let setup kind ~seed ~tr =
  let env, fs =
    match tr with
    | None ->
        let st = Harness.Fs_config.make (spec kind) in
        (st.Harness.Fs_config.env, st.Harness.Fs_config.fs)
    | Some t -> make_traced t (spec kind)
  in
  let st =
    match kind with
    | Varmail -> V (varmail_init ~seed)
    | Zipf -> Z (Span.opt tr l_prefill (fun () -> zipf_prefill fs ~seed))
  in
  (env, fs, st)

(* ------------------------------------------------------------------ *)
(* One phase: set-up, exact window, timed loop, final checks            *)
(* ------------------------------------------------------------------ *)

type result = {
  setup_s : float;  (** median over [setup_reps] set-ups *)
  setup_runs : float list;
  ops_per_s : float;  (** raw, over the whole timed phase *)
  throughput : float;  (** [Common.throughput] *)
  timed_ops : int;
  timed_s : float;
  slices : int;
  spread : string;  (** raw slice-rate spread within the run *)
  scaled_spread : string;
  exact : exact;
  attempted : int;
  failed : int;
  minor_words_per_op : float;
  major_per_kop : float;
  identity_ok : bool;
}

let run kind ~seed ~seconds ~exact_units ~setup_reps ~tr =
  let setups = ref [] and last = ref None in
  for _ = 1 to setup_reps do
    last := None;
    Gc.full_major ();
    let x, dt = timed (fun () -> setup kind ~seed ~tr) in
    setups := dt :: !setups;
    last := Some x
  done;
  let env, fs, st = Option.get !last in
  let c =
    {
      env;
      fs;
      tr;
      attempted = 0;
      failed = 0;
      recording = false;
      lat = Fbuf.create ();
      user_bytes = 0;
      digest = 0;
    }
  in
  let unit () =
    match st with V v -> varmail_unit c v | Z z -> zipf_unit c z
  in
  let unit =
    match tr with
    | None -> unit
    | Some t ->
        fun () ->
          Span.set_id t (Span.calls t l_iter);
          Span.span t l_iter unit
  in
  let per_unit = ops_per_unit kind in
  (* the exact window starts a seed-drawn number of units into the timed
     phase and runs a seed-drawn length, so the seed also picks where in
     the stack's cycle of relinks, log wraps and journal commits the
     window falls: varmail's op stream is otherwise the same at every
     seed *)
  let first = Workloads.Rng.derive seed 0x5EA mod window_offsets in
  let exact_units =
    exact_units + (Workloads.Rng.derive seed 0x1E7 mod max 1 (exact_units / 8))
  in
  let s0 = ref (Pmem.Stats.copy env.Pmem.Env.stats) in
  let a0 = ref (Obs.snapshot env.Pmem.Env.obs) in
  let g0 = Gc.quick_stat () in
  let m = meter ~slice_ns:50_000_000 in
  let deadline = int_of_float (seconds *. 1e9) in
  let exact = ref None in
  let u = ref 0 in
  let elapsed = ref 0 in
  while !u < first + exact_units || !elapsed < deadline do
    if !u = first then begin
      c.recording <- true;
      s0 := Pmem.Stats.copy env.Pmem.Env.stats;
      a0 := Obs.snapshot env.Pmem.Env.obs
    end;
    unit ();
    incr u;
    if !u = first + exact_units then begin
      c.recording <- false;
      let cats = Array.make Obs.ncats 0. in
      cats_add cats env.Pmem.Env.obs !a0;
      exact :=
        Some
          {
            ops = exact_units * per_unit;
            lat = Fbuf.contents c.lat;
            user_bytes = c.user_bytes;
            stats = Pmem.Stats.diff env.Pmem.Env.stats !s0;
            cats;
            digest = c.digest;
            states = 0;
            recover_sim_ns = 0.;
            entries_replayed = 0;
            verdicts = 0;
          }
    end;
    elapsed := tick m per_unit
  done;
  let g1 = Gc.quick_stat () in
  let timed_ops = m.work in
  let ops_per_s = rate m in
  (match st with V v -> varmail_final c v | Z z -> zipf_final c z);
  let identity_ok =
    match Pmem.Env.check_identity env with
    | _ -> true
    | exception Failure _ -> false
  in
  if not identity_ok then fail c;
  {
    setup_s = median !setups;
    setup_runs = List.rev !setups;
    ops_per_s;
    throughput = throughput m;
    timed_ops;
    timed_s = float_of_int !elapsed /. 1e9;
    slices = List.length m.rates;
    spread = rate_spread m.rates;
    scaled_spread = rate_spread m.scaled;
    exact = Option.get !exact;
    attempted = c.attempted;
    failed = c.failed;
    minor_words_per_op =
      (g1.Gc.minor_words -. g0.Gc.minor_words) /. float_of_int (max 1 timed_ops);
    major_per_kop =
      float_of_int (g1.Gc.major_collections - g0.Gc.major_collections)
      *. 1000. /. float_of_int (max 1 timed_ops);
    identity_ok;
  }
