(** Small Bloom filter used by SSTables to skip files that cannot contain a
    key, at 10 bits per key as LevelDB's default. *)

type t = { bits : Bytes.t; nbits : int; hashes : int }

let bits_per_key = 10

let create ~expected =
  let nbits = max 64 (expected * bits_per_key) in
  let nbytes = (nbits + 7) / 8 in
  { bits = Bytes.make nbytes '\000'; nbits; hashes = 7 }

let hash i key = Hashtbl.hash (i * 0x9E3779B9, key)

let set_bit t b =
  let b = b mod t.nbits in
  let byte = b / 8 and bit = b mod 8 in
  Bytes.set t.bits byte
    (Char.chr (Char.code (Bytes.get t.bits byte) lor (1 lsl bit)))

let get_bit t b =
  let b = b mod t.nbits in
  let byte = b / 8 and bit = b mod 8 in
  Char.code (Bytes.get t.bits byte) land (1 lsl bit) <> 0

let add t key =
  for i = 1 to t.hashes do
    set_bit t (hash i key)
  done

let may_contain t key =
  let rec go i = i > t.hashes || (get_bit t (hash i key) && go (i + 1)) in
  go 1

(* --- serialization --- *)

let to_string t =
  let b = Buffer.create (Bytes.length t.bits + 12) in
  Buffer.add_int32_le b (Int32.of_int t.nbits);
  Buffer.add_int32_le b (Int32.of_int t.hashes);
  Buffer.add_bytes b t.bits;
  Buffer.contents b

let of_string s =
  let nbits = Int32.to_int (String.get_int32_le s 0) in
  let hashes = Int32.to_int (String.get_int32_le s 4) in
  let bits = Bytes.of_string (String.sub s 8 (String.length s - 8)) in
  { bits; nbits; hashes }
