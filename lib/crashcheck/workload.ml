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

external get64 : string -> int -> int64 = "%caml_string_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* The payload's two periodic terms, [7i land 0xFF] (period 256) and
   [i * i mod 251] (period 251), each with 8 bytes past its period so an
   8-byte read at any phase stays inside. *)
let sevens = String.init (256 + 8) (fun i -> Char.chr ((7 * i) land 0xFF))
let squares = String.init (251 + 8) (fun i -> Char.chr (i * i mod 251))

(** Fill [buf]'s first [len] bytes with the deterministic payload of
    [seed]: identical for the system under test and the oracle,
    distinctive across seeds. Byte [i] is
    [(seed * 131 + i * 7 + i * i mod 251) land 0xFF]. As [7 * 183 = 1]
    mod 256, [seed * 131 + 7i = 7 (i + k)] mod 256 with
    [k = seed * 131 * 183], so byte [i] is [sevens] at [i + k] plus
    [squares] at [i mod 251]: summed eight bytes at a time (the low seven
    bits of each byte add without carrying out of it, the top bit is
    their xor), and a byte at a time for the last [len mod 8]. *)
let payload_into ~seed buf ~len =
  let k = seed * 131 * 183 in
  let sq = ref 0 and i = ref 0 in
  while !i + 8 <= len do
    let x = get64 sevens ((!i + k) land 0xFF) and y = get64 squares !sq in
    let low = 0x7F7F7F7F7F7F7F7FL in
    set64 buf !i
      Int64.(
        logxor
          (add (logand x low) (logand y low))
          (logand (logxor x y) (lognot low)));
    i := !i + 8;
    sq := !sq + 8;
    if !sq >= 251 then sq := !sq - 251
  done;
  for i = !i to len - 1 do
    Bytes.unsafe_set buf i
      (Char.unsafe_chr
         ((Char.code sevens.[(i + k) land 0xFF] + Char.code squares.[!sq])
         land 0xFF));
    incr sq
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
