(** Sorted string table: the immutable on-disk file format of the LSM
    key-value store.

    Layout: data records, sparse index, Bloom filter, fixed-size footer.
    Records are (klen, vlen, key, value); vlen = -1 encodes a tombstone.
    The sparse index holds every [index_interval]-th key with its file
    offset, so a lookup reads the footer + index once (cached at open) and
    then a single bounded data scan — the same shape as LevelDB's block
    index. *)

type record = { key : string; value : string option }

type t = {
  path : string;
  fd : Fsapi.Fs.fd;
  index : (string * int) array;  (** sparse: key -> record offset *)
  bloom : Bloom.t;
  data_len : int;
  mutable smallest : string;
  mutable largest : string;
}

let index_interval = 16
let tombstone_len = -1

let add_record buf r =
  Buffer.add_int32_le buf (Int32.of_int (String.length r.key));
  (match r.value with
  | Some v -> Buffer.add_int32_le buf (Int32.of_int (String.length v))
  | None -> Buffer.add_int32_le buf (Int32.of_int tombstone_len));
  Buffer.add_string buf r.key;
  match r.value with Some v -> Buffer.add_string buf v | None -> ()

(** Write a new SSTable from records sorted by key. The file is written
    sequentially (appends) and fsynced before use. *)
let write (fs : Fsapi.Fs.t) path records =
  assert (records <> []);
  let data = Buffer.create 65536 in
  let index = ref [] in
  let bloom = Bloom.create ~expected:(List.length records) in
  List.iteri
    (fun i r ->
      if i mod index_interval = 0 then index := (r.key, Buffer.length data) :: !index;
      Bloom.add bloom r.key;
      add_record data r)
    records;
  let data_len = Buffer.length data in
  let index_buf = Buffer.create 4096 in
  let index_list = List.rev !index in
  Buffer.add_int32_le index_buf (Int32.of_int (List.length index_list));
  List.iter
    (fun (k, off) ->
      Buffer.add_int32_le index_buf (Int32.of_int (String.length k));
      Buffer.add_int32_le index_buf (Int32.of_int off);
      Buffer.add_string index_buf k)
    index_list;
  let bloom_s = Bloom.to_string bloom in
  let footer = Buffer.create 16 in
  Buffer.add_int32_le footer (Int32.of_int data_len);
  Buffer.add_int32_le footer (Int32.of_int (Buffer.length index_buf));
  Buffer.add_int32_le footer (Int32.of_int (String.length bloom_s));
  Buffer.add_int32_le footer 0xFEEDl;
  let fd = fs.open_ path Fsapi.Flags.create_trunc in
  Fsapi.Fs.write_string fs fd (Buffer.contents data);
  Fsapi.Fs.write_string fs fd (Buffer.contents index_buf);
  Fsapi.Fs.write_string fs fd bloom_s;
  Fsapi.Fs.write_string fs fd (Buffer.contents footer);
  fs.fsync fd;
  fs.close fd

let parse_record s pos =
  let klen = Int32.to_int (String.get_int32_le s pos) in
  let vlen = Int32.to_int (String.get_int32_le s (pos + 4)) in
  let key = String.sub s (pos + 8) klen in
  if vlen = tombstone_len then ({ key; value = None }, pos + 8 + klen)
  else ({ key; value = Some (String.sub s (pos + 8 + klen) vlen) }, pos + 8 + klen + vlen)

(** Open an SSTable: reads footer, index and Bloom filter; data stays on
    the file system and is read per lookup. *)
let open_ (fs : Fsapi.Fs.t) path =
  let fd = fs.open_ path Fsapi.Flags.rdonly in
  let size = (fs.fstat fd).Fsapi.Fs.st_size in
  let footer = Fsapi.Fs.pread_exact fs fd ~len:16 ~at:(size - 16) in
  let data_len = Int32.to_int (String.get_int32_le footer 0) in
  let index_len = Int32.to_int (String.get_int32_le footer 4) in
  let bloom_len = Int32.to_int (String.get_int32_le footer 8) in
  if Int32.to_int (String.get_int32_le footer 12) <> 0xFEED then
    Fsapi.Errno.(error EINVAL (path ^ ": bad sstable footer"));
  let index_s = Fsapi.Fs.pread_exact fs fd ~len:index_len ~at:data_len in
  let nindex = Int32.to_int (String.get_int32_le index_s 0) in
  let index = Array.make nindex ("", 0) in
  let pos = ref 4 in
  for i = 0 to nindex - 1 do
    let klen = Int32.to_int (String.get_int32_le index_s !pos) in
    let off = Int32.to_int (String.get_int32_le index_s (!pos + 4)) in
    index.(i) <- (String.sub index_s (!pos + 8) klen, off);
    pos := !pos + 8 + klen
  done;
  let bloom_s = Fsapi.Fs.pread_exact fs fd ~len:bloom_len ~at:(data_len + index_len) in
  let t =
    {
      path;
      fd;
      index;
      bloom = Bloom.of_string bloom_s;
      data_len;
      smallest = (if nindex > 0 then fst index.(0) else "");
      largest = "";
    }
  in
  (* the largest key: scan the last index segment *)
  (if nindex > 0 then
     let start = snd index.(nindex - 1) in
     let seg = Fsapi.Fs.pread_exact fs fd ~len:(data_len - start) ~at:start in
     let pos = ref 0 in
     while !pos < String.length seg do
       let r, next = parse_record seg !pos in
       t.largest <- r.key;
       pos := next
     done);
  t

let close (fs : Fsapi.Fs.t) t = fs.close t.fd

(** Binary search the sparse index for the segment that may hold [key]. *)
let segment_for t key =
  let n = Array.length t.index in
  if n = 0 || key < fst t.index.(0) then None
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if fst t.index.(mid) <= key then lo := mid else hi := mid - 1
    done;
    let start = snd t.index.(!lo) in
    let stop = if !lo + 1 < n then snd t.index.(!lo + 1) else t.data_len in
    Some (start, stop)
  end

(** [find fs t key] returns [Some (Some v)] for a live record, [Some None]
    for a tombstone, [None] when the table does not contain the key. *)
let find (fs : Fsapi.Fs.t) t key =
  if not (Bloom.may_contain t.bloom key) then None
  else
    match segment_for t key with
    | None -> None
    | Some (start, stop) ->
        let seg = Fsapi.Fs.pread_exact fs t.fd ~len:(stop - start) ~at:start in
        let pos = ref 0 and result = ref None in
        (try
           while !pos < String.length seg do
             let r, next = parse_record seg !pos in
             if r.key = key then begin
               result := Some r.value;
               raise Exit
             end
             else if r.key > key then raise Exit;
             pos := next
           done
         with Exit -> ());
        !result

(** All records, in key order (used by compaction). *)
let records (fs : Fsapi.Fs.t) t =
  let data = Fsapi.Fs.pread_exact fs t.fd ~len:t.data_len ~at:0 in
  let acc = ref [] and pos = ref 0 in
  while !pos < t.data_len do
    let r, next = parse_record data !pos in
    acc := r :: !acc;
    pos := next
  done;
  List.rev !acc

let overlaps t ~smallest ~largest = not (t.largest < smallest || largest < t.smallest)

(** Bounded range read: up to [limit] records with key >= [start], reading
    only the data segments that can contain them. *)
let records_from (fs : Fsapi.Fs.t) t ~start ~limit =
  let n = Array.length t.index in
  if n = 0 || limit <= 0 then []
  else begin
    (* first index segment whose successor starts after [start] *)
    let seg = ref 0 in
    while !seg + 1 < n && fst t.index.(!seg + 1) <= start do
      incr seg
    done;
    let acc = ref [] and count = ref 0 in
    (try
       while !seg < n do
         let seg_start = snd t.index.(!seg) in
         let seg_stop = if !seg + 1 < n then snd t.index.(!seg + 1) else t.data_len in
         let data = Fsapi.Fs.pread_exact fs t.fd ~len:(seg_stop - seg_start) ~at:seg_start in
         let pos = ref 0 in
         while !pos < String.length data do
           let r, next = parse_record data !pos in
           if r.key >= start then begin
             if !count >= limit then raise Exit;
             acc := r :: !acc;
             incr count
           end;
           pos := next
         done;
         incr seg
       done
     with Exit -> ());
    List.rev !acc
  end
