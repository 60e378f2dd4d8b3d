(** CRC-32 (IEEE 802.3 polynomial), table-driven.

    Used as the 4-byte transactional checksum embedded in each 64-byte
    operation-log entry (paper §3.3), which lets recovery distinguish valid
    entries from torn ones with a single fence per logged operation. *)

(* Built at module initialisation, before any campaign domain spawns:
   campaign domains share it, and a [lazy] forced by two domains at once
   raises [CamlinternalLazy.Undefined] in one of them. *)
let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        if !c land 1 = 1 then c := 0xEDB88320 lxor (!c lsr 1)
        else c := !c lsr 1
      done;
      !c)

let update crc buf ~off ~len =
  let c = ref (crc lxor 0xFFFFFFFF) in
  for i = off to off + len - 1 do
    c := table.((!c lxor Char.code (Bytes.get buf i)) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let bytes ?(off = 0) ?len buf =
  let len = match len with Some l -> l | None -> Bytes.length buf - off in
  update 0 buf ~off ~len

let string s = bytes (Bytes.unsafe_of_string s)
