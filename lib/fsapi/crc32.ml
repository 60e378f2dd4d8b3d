(** CRC-32 (IEEE 802.3 polynomial, reflected: CRC-32/ISO-HDLC).

    The 4-byte transactional checksum embedded in each 64-byte
    operation-log entry (paper §3.3), which lets recovery distinguish valid
    entries from torn ones with a single fence per logged operation. The
    same checksum covers the staged bytes a data entry points to and the
    records of the applications' write-ahead log.

    [update] is slice-by-16: sixteen input bytes per step, read as two
    little-endian 64-bit words, each byte looked up in its own table and
    the sixteen results xor-ed together. CRC-32 is linear over GF(2), so
    this is an exact rewrite of the byte-at-a-time loop: table [k] maps a
    byte to the register contribution it leaves after [k] further bytes,
    and summing those contributions equals stepping the bytes one at a
    time. The checksums are bit-identical (pinned against a byte-at-a-time
    reference in test/test_fsapi.ml); only the host cost changes. *)

let poly = 0xEDB88320

(* Sixteen 256-entry tables in one flat array: entries [k * 256 ..
   k * 256 + 255] are table [k]. Table 0 is the classic byte table; table
   [k] advances table [k - 1]'s entry through one more (zero) byte.
   Built at module initialisation, before any campaign domain spawns:
   campaign domains share it, and a [lazy] forced by two domains at once
   raises [CamlinternalLazy.Undefined] in one of them. *)
let tables =
  let t = Array.make (16 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then poly lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 15 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
    done
  done;
  t

(* The stdlib's own unchecked native-endian load and byte swap, as in
   [Bytes.get_int64_le] without its per-load bounds check: [update]
   checks its whole range once. *)
external unsafe_get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external swap64 : int64 -> int64 = "%bswap_int64"

(** [update crc buf ~off ~len] extends [crc] (the checksum of the bytes
    before) over [len] bytes of [buf] at [off]: [update (update 0 a) b]
    is the checksum of [a] followed by [b]. Raises [Invalid_argument] if
    the range is not inside [buf]. *)
let update crc buf ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length buf - len then
    invalid_arg "Crc32.update";
  let t = tables in
  let c = ref (crc lxor 0xFFFFFFFF) in
  let i = ref off in
  let stop = off + (len land lnot 15) in
  while !i < stop do
    let w0 =
      if Sys.big_endian then swap64 (unsafe_get64 buf !i)
      else unsafe_get64 buf !i
    in
    let w1 =
      if Sys.big_endian then swap64 (unsafe_get64 buf (!i + 8))
      else unsafe_get64 buf (!i + 8)
    in
    (* byte j of the sixteen (j = 0 first) is followed by 15 - j more *)
    let a = Int64.to_int w0 land 0xFFFFFFFF lxor !c in
    let b = Int64.to_int (Int64.shift_right_logical w0 32) in
    let d = Int64.to_int w1 land 0xFFFFFFFF in
    let e = Int64.to_int (Int64.shift_right_logical w1 32) in
    c :=
      Array.unsafe_get t ((15 * 256) + (a land 0xFF))
      lxor Array.unsafe_get t ((14 * 256) + ((a lsr 8) land 0xFF))
      lxor Array.unsafe_get t ((13 * 256) + ((a lsr 16) land 0xFF))
      lxor Array.unsafe_get t ((12 * 256) + (a lsr 24))
      lxor Array.unsafe_get t ((11 * 256) + (b land 0xFF))
      lxor Array.unsafe_get t ((10 * 256) + ((b lsr 8) land 0xFF))
      lxor Array.unsafe_get t ((9 * 256) + ((b lsr 16) land 0xFF))
      lxor Array.unsafe_get t ((8 * 256) + (b lsr 24))
      lxor Array.unsafe_get t ((7 * 256) + (d land 0xFF))
      lxor Array.unsafe_get t ((6 * 256) + ((d lsr 8) land 0xFF))
      lxor Array.unsafe_get t ((5 * 256) + ((d lsr 16) land 0xFF))
      lxor Array.unsafe_get t ((4 * 256) + (d lsr 24))
      lxor Array.unsafe_get t ((3 * 256) + (e land 0xFF))
      lxor Array.unsafe_get t ((2 * 256) + ((e lsr 8) land 0xFF))
      lxor Array.unsafe_get t (256 + ((e lsr 16) land 0xFF))
      lxor Array.unsafe_get t (e lsr 24);
    i := !i + 16
  done;
  for j = stop to off + len - 1 do
    let x = (!c lxor Char.code (Bytes.unsafe_get buf j)) land 0xFF in
    c := Array.unsafe_get t x lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let bytes buf = update 0 buf ~off:0 ~len:(Bytes.length buf)

let string s = bytes (Bytes.unsafe_of_string s)
