(** Crashcheck workloads: random interleavings of writes, fsyncs and
    checkpoints over a few files, and the deterministic payload formula
    every campaign writes (DESIGN.md §5d). *)

type op =
  | Write of { file : int; at : int; len : int; seed : int }
  | Fsync of { file : int }
  | Checkpoint  (** relink_all on SplitFS, fsync-everything on the oracle *)

type t = {
  mode : Splitfs.Config.mode;
  nfiles : int;
  initial : int array;  (** per-file setup content length, fsync'd *)
  ops : op list;
}

(** Fill [buf]'s first [len] bytes with the deterministic payload of
    [seed]: identical for the system under test and the oracle,
    distinctive across seeds. Byte [i] is
    [(seed * 131 + i * 7 + i * i mod 251) land 0xFF]; the loop carries
    [i * i mod 251] and its step [(2i + 1) mod 251] instead of dividing
    once per byte. *)
let payload_into ~seed buf ~len =
  let base = ref (seed * 131) and sq = ref 0 and step = ref 1 in
  for i = 0 to len - 1 do
    Bytes.unsafe_set buf i (Char.unsafe_chr ((!base + !sq) land 0xFF));
    base := !base + 7;
    sq := !sq + !step;
    if !sq >= 251 then sq := !sq - 251;
    step := !step + 2;
    if !step >= 251 then step := !step - 251
  done

(** {!payload_into} on a fresh buffer. *)
let payload ~seed len =
  let buf = Bytes.create len in
  payload_into ~seed buf ~len;
  buf

(** Random interleaving of appends, overwrites (possibly crossing EOF),
    fsyncs and checkpoints. Sizes stay small so each trial stays cheap
    and the staging files never run out (a mid-op checkpoint would not
    be wrong, merely noisy). [scale] multiplies every length drawn —
    the default 1 keeps crash-state spaces small, while faultcheck
    passes a larger factor so writes cross block boundaries and the
    full-block relink path is exercised under injected faults. *)
let generate ~mode ~seed ?(scale = 1) ~nops () =
  let rng = Workloads.Rng.create seed in
  let nfiles = 3 in
  let initial = Array.init nfiles (fun i -> scale * (256 + (128 * i))) in
  let sizes = Array.copy initial in
  let ops =
    List.init nops (fun k ->
        let file = Workloads.Rng.int rng nfiles in
        match Workloads.Rng.int rng 10 with
        | 0 | 1 -> Fsync { file }
        | 2 when mode <> Splitfs.Config.Posix -> Checkpoint
        | 2 -> Fsync { file }
        | 3 | 4 | 5 ->
            (* overwrite starting inside the file, may cross EOF *)
            let at = Workloads.Rng.int rng (max 1 sizes.(file)) in
            let len = scale * (1 + Workloads.Rng.int rng 200) in
            if at + len > sizes.(file) then sizes.(file) <- at + len;
            Write { file; at; len; seed = (seed * 7919) + k }
        | _ ->
            (* append *)
            let len = scale * (1 + Workloads.Rng.int rng 700) in
            let at = sizes.(file) in
            sizes.(file) <- at + len;
            Write { file; at; len; seed = (seed * 7919) + k })
  in
  { mode; nfiles; initial; ops }
