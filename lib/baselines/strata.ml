(** Strata-like cross-media file system (Kwon et al., SOSP '17), restricted
    to its PM layer — the paper's user-space strict-mode comparator.

    Protocol: every update is appended to a per-process *private log* in
    user space (64-byte header + payload, one fence) — fast, no kernel
    trap, immediately durable and atomic. When the log fills past the
    digest threshold, a *digest* coalesces the log and copies live data
    into the shared area — so appends are written to PM twice, the 2×
    write-amplification the paper measures against relink (§2.3, Table 7).
    Updates are private (invisible to other processes) until digested.
    The POSIX surface is {!Pmbase}'s. *)

open Pmem

let block_size = 4096
let header_size = 64

(** Fill fraction of the private log that triggers a digest. *)
let digest_threshold = 0.9

type t = {
  base : Pmbase.t;  (** shared area *)
  env : Env.t;
  log_len : int;  (** the private log sits at device address 0 *)
  mutable log_cursor : int;
  shadows : (int, Kernelfs.Extent_tree.t) Hashtbl.t;
      (** per-inode byte-granular map: file offset -> private-log offset *)
  mutable digests : int;
  header : Bytes.t;
}

let mkfs ?(log_len = 8 * 1024 * 1024) (env : Env.t) =
  let log_len = (log_len + block_size - 1) / block_size * block_size in
  {
    base = Pmbase.create env ~reserved:log_len;
    env;
    log_len;
    log_cursor = 0;
    shadows = Hashtbl.create 64;
    digests = 0;
    header = Bytes.make header_size '\x03';
  }

(** User-space op CPU: the only entry charge, since no call traps. *)
let cpu t = Env.cpu_cat t.env Obs.Usplit t.env.Env.timing.Timing.strata_op_cpu

let digests t = t.digests

let shadow_of t ino =
  match Hashtbl.find_opt t.shadows ino with
  | Some s -> s
  | None ->
      let s = Kernelfs.Extent_tree.create () in
      Hashtbl.replace t.shadows ino s;
      s

(* --- digest --- *)

let digest_file t (file : Pmbase.file) =
  match Hashtbl.find_opt t.shadows file.Pmbase.ino with
  | None -> ()
  | Some shadow ->
      let tm = t.env.Env.timing in
      Kernelfs.Extent_tree.iter
        (fun e ->
          let len = e.Kernelfs.Extent_tree.len in
          let buf = Bytes.create len in
          Device.load t.env.Env.dev ~addr:e.Kernelfs.Extent_tree.physical buf
            ~off:0 ~len;
          Env.cpu_cat t.env Obs.Usplit
            (tm.Timing.strata_digest_per_byte *. float_of_int len);
          ignore
            (Pmbase.write_data t.base file ~buf ~boff:0 ~len
               ~at:e.Kernelfs.Extent_tree.logical ~cow:false))
        shadow;
      Device.fence t.env.Env.dev;
      Hashtbl.remove t.shadows file.Pmbase.ino

(** Digest every file, then reset the log. Runs in the foreground: a full
    private log back-pressures the application, which is the stall the
    paper observes on append-heavy workloads. *)
let digest_all t =
  let live =
    (* collect (ino, file) pairs for every shadowed inode still reachable *)
    Hashtbl.fold (fun ino _ acc -> ino :: acc) t.shadows []
  in
  let rec find_file node ino =
    match node with
    | Pmbase.File f -> if f.Pmbase.ino = ino then Some f else None
    | Pmbase.Dir d ->
        Hashtbl.fold
          (fun _ child acc ->
            match acc with Some _ -> acc | None -> find_file child ino)
          d None
  in
  List.iter
    (fun ino ->
      match find_file (Pmbase.Dir t.base.Pmbase.root) ino with
      | Some file -> digest_file t file
      | None -> Hashtbl.remove t.shadows ino)
    live;
  t.log_cursor <- 0;
  t.digests <- t.digests + 1

let ensure_log_space t need =
  if
    t.log_cursor + need
    > int_of_float (digest_threshold *. float_of_int t.log_len)
  then digest_all t;
  if t.log_cursor + need > t.log_len then
    Fsapi.Errno.(error ENOSPC "strata: private log too small for this write")

(** Append one record — the header, then [len] payload bytes of [buf] — to
    the private log and fence it. Returns the payload's log offset. *)
let log_append t buf ~boff ~len =
  ensure_log_space t (header_size + len);
  let dev = t.env.Env.dev in
  Device.store_nt dev ~addr:t.log_cursor t.header ~off:0 ~len:header_size;
  let data_off = t.log_cursor + header_size in
  Device.store_nt dev ~addr:data_off buf ~off:boff ~len;
  t.log_cursor <- data_off + len;
  Device.fence dev;
  let stats = t.env.Env.stats in
  stats.Stats.log_entries <- stats.Stats.log_entries + 1;
  data_off

(* --- data path (all user-space: no traps) --- *)

(** A write larger than half the private log is split into pieces of at
    most half the log, each charged as a call of its own; a piece that
    does not fit forces a digest. *)
let rec log_write t (file : Pmbase.file) ~buf ~boff ~len ~at =
  let max_piece = (t.log_len / 2) - header_size in
  if len > max_piece then begin
    cpu t;
    log_write t file ~buf ~boff ~len:max_piece ~at;
    cpu t;
    log_write t file ~buf ~boff:(boff + max_piece) ~len:(len - max_piece)
      ~at:(at + max_piece)
  end
  else begin
    let data_off = log_append t buf ~boff ~len in
    let shadow = shadow_of t file.Pmbase.ino in
    ignore (Kernelfs.Extent_tree.remove_range shadow ~logical:at ~len);
    Kernelfs.Extent_tree.insert shadow ~logical:at ~physical:data_off ~len;
    if at + len > file.Pmbase.size then file.Pmbase.size <- at + len;
    let stats = t.env.Env.stats in
    stats.Stats.staged_bytes <- stats.Stats.staged_bytes + len
  end

(** Read through the private log: logged bytes from the log, the rest from
    the shared area. *)
let log_read t (file : Pmbase.file) ~buf ~boff ~len ~at =
  if at >= file.Pmbase.size then 0
  else begin
    let len = min len (file.Pmbase.size - at) in
    let shadow = shadow_of t file.Pmbase.ino in
    let pos = ref at and dst = ref boff and remaining = ref len in
    while !remaining > 0 do
      (match Kernelfs.Extent_tree.find shadow !pos with
      | Some (log_off, run) ->
          let n = min run !remaining in
          Device.load t.env.Env.dev ~addr:log_off buf ~off:!dst ~len:n;
          pos := !pos + n;
          dst := !dst + n;
          remaining := !remaining - n
      | None ->
          let bound =
            match Kernelfs.Extent_tree.next_mapped shadow !pos with
            | Some next -> min !remaining (next - !pos)
            | None -> !remaining
          in
          let got =
            Pmbase.read_data t.base file ~buf ~boff:!dst ~len:bound ~at:!pos
          in
          let got = if got = 0 then bound else got in
          (* holes (not yet digested gaps) read as zeros *)
          if got < bound then Bytes.fill buf (!dst + got) (bound - got) '\000';
          pos := !pos + bound;
          dst := !dst + bound;
          remaining := !remaining - bound);
    done;
    len
  end

let as_fsapi t =
  Pmbase.as_fsapi t.base
    {
      Pmbase.name = "strata";
      enter = (fun _ -> cpu t);
      (* metadata changes are logged in the private log too *)
      persist =
        (fun meta ->
          (match meta with
          | Pmbase.Unlink file -> Hashtbl.remove t.shadows file.Pmbase.ino
          | Create | Truncate | Rename | Mkdir | Rmdir -> ());
          ignore (log_append t t.header ~boff:0 ~len:0));
      write = log_write t;
      read = log_read t;
      (* the private log is durable at write time: fsync is an ordering
         point *)
      fsync = (fun () -> Device.fence t.env.Env.dev);
      (* settle the log for this file, then truncate the shared copy *)
      settle = digest_file t;
    }
