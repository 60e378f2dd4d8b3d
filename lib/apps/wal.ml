(** Write-ahead log for the LSM store: length-prefixed, checksummed records
    appended to a log file. Fsync policy is the caller's (LevelDB syncs
    only when the application asks). Recovery replays the valid prefix and
    stops at the first torn record. *)

type op = Put of string * string | Delete of string

type t = { path : string; fd : Fsapi.Fs.fd; mutable bytes : int }

let encode op =
  let payload =
    let b = Buffer.create 64 in
    (match op with
    | Put (k, v) ->
        Buffer.add_char b 'P';
        Buffer.add_int32_le b (Int32.of_int (String.length k));
        Buffer.add_int32_le b (Int32.of_int (String.length v));
        Buffer.add_string b k;
        Buffer.add_string b v
    | Delete k ->
        Buffer.add_char b 'D';
        Buffer.add_int32_le b (Int32.of_int (String.length k));
        Buffer.add_string b k);
    Buffer.contents b
  in
  let b = Buffer.create (String.length payload + 8) in
  Buffer.add_int32_le b (Int32.of_int (String.length payload));
  Buffer.add_int32_le b (Int32.of_int (Fsapi.Crc32.string payload));
  Buffer.add_string b payload;
  Buffer.contents b

let open_ (fs : Fsapi.Fs.t) path =
  let fd = fs.open_ path Fsapi.Flags.(append (creat wronly)) in
  { path; fd; bytes = (fs.fstat fd).Fsapi.Fs.st_size }

let append (fs : Fsapi.Fs.t) t op ~sync =
  let s = encode op in
  Fsapi.Fs.write_string fs t.fd s;
  t.bytes <- t.bytes + String.length s;
  if sync then fs.fsync t.fd

let close (fs : Fsapi.Fs.t) t = fs.close t.fd

(** Replay a log file; invalid/torn suffix is ignored. *)
let replay (fs : Fsapi.Fs.t) path f =
  match fs.open_ path Fsapi.Flags.rdonly with
  | exception Fsapi.Errno.Error (Fsapi.Errno.ENOENT, _) -> 0
  | fd ->
      Fun.protect
        ~finally:(fun () -> fs.close fd)
        (fun () ->
          let size = (fs.fstat fd).Fsapi.Fs.st_size in
          let data = if size = 0 then "" else Fsapi.Fs.pread_exact fs fd ~len:size ~at:0 in
          let pos = ref 0 and replayed = ref 0 in
          (try
             while !pos + 8 <= size do
               let plen = Int32.to_int (String.get_int32_le data !pos) in
               let stored = Int32.to_int (String.get_int32_le data (!pos + 4)) land 0xFFFFFFFF in
               if plen <= 0 || !pos + 8 + plen > size then raise Exit;
               let payload = String.sub data (!pos + 8) plen in
               if Fsapi.Crc32.string payload <> stored then raise Exit;
               (match payload.[0] with
               | 'P' ->
                   let klen = Int32.to_int (String.get_int32_le payload 1) in
                   let vlen = Int32.to_int (String.get_int32_le payload 5) in
                   f (Put (String.sub payload 9 klen, String.sub payload (9 + klen) vlen))
               | 'D' ->
                   let klen = Int32.to_int (String.get_int32_le payload 1) in
                   f (Delete (String.sub payload 5 klen))
               | _ -> raise Exit);
               incr replayed;
               pos := !pos + 8 + plen
             done
           with Exit -> ());
          !replayed)
