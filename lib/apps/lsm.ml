(** LSM-tree key-value store in the style of LevelDB — the application the
    paper uses for its YCSB experiments (§5.2).

    Structure: a DRAM memtable backed by a write-ahead log; when the
    memtable exceeds its budget it is flushed as a level-0 SSTable. When
    level 0 collects enough tables they are merge-compacted with the
    overlapping part of level 1 into fresh level-1 tables. A MANIFEST file,
    replaced atomically via rename, records the live tables.

    The file-system traffic is therefore exactly the mix the paper cares
    about: small WAL appends (unsynced, as LevelDB's default), large
    sequential SSTable writes, point reads, renames and unlinks. *)

module Smap = Map.Make (String)

type config = {
  memtable_budget : int;  (** bytes of memtable before flush *)
  l0_limit : int;  (** level-0 tables before compaction *)
}

let default_config = { memtable_budget = 256 * 1024; l0_limit = 4 }

type t = {
  fs : Fsapi.Fs.t;
  dir : string;
  cfg : config;
  mutable memtable : string option Smap.t;  (** None = tombstone *)
  mutable mem_bytes : int;
  mutable wal : Wal.t;
  mutable l0 : Sstable.t list;  (** newest first *)
  mutable l1 : Sstable.t list;  (** sorted by smallest key, disjoint *)
  mutable next_file : int;
  mutable compactions : int;
  mutable flushes : int;
}

let wal_path t = t.dir ^ "/wal.log"
let manifest_path t = t.dir ^ "/MANIFEST"

let table_path t n = Printf.sprintf "%s/sst-%06d.ldb" t.dir n

let write_manifest t =
  let listing =
    String.concat "\n"
      (List.map (fun (s : Sstable.t) -> "0 " ^ s.Sstable.path) t.l0
      @ List.map (fun (s : Sstable.t) -> "1 " ^ s.Sstable.path) t.l1)
  in
  let tmp = t.dir ^ "/MANIFEST.tmp" in
  let fd = t.fs.open_ tmp Fsapi.Flags.create_trunc in
  Fsapi.Fs.write_string t.fs fd listing;
  t.fs.fsync fd;
  t.fs.close fd;
  t.fs.rename tmp (manifest_path t)

let load_manifest t =
  match Fsapi.Fs.read_file t.fs (manifest_path t) with
  | exception Fsapi.Errno.Error (Fsapi.Errno.ENOENT, _) -> ()
  | listing ->
      String.split_on_char '\n' listing
      |> List.iter (fun line ->
             if line <> "" then begin
               let level = line.[0] in
               let path = String.sub line 2 (String.length line - 2) in
               let table = Sstable.open_ t.fs path in
               match level with
               | '0' -> t.l0 <- t.l0 @ [ table ]
               | _ -> t.l1 <- t.l1 @ [ table ]
             end)

(** Open (or recover) a store rooted at [dir]. *)
let open_ (fs : Fsapi.Fs.t) ?(cfg = default_config) dir =
  Fsapi.Fs.mkdir_p fs dir;
  let t =
    {
      fs;
      dir;
      cfg;
      memtable = Smap.empty;
      mem_bytes = 0;
      wal = Wal.open_ fs (dir ^ "/wal.log");
      l0 = [];
      l1 = [];
      next_file = 0;
      compactions = 0;
      flushes = 0;
    }
  in
  load_manifest t;
  (* pick the next file number above everything the manifest mentions *)
  List.iter
    (fun (s : Sstable.t) ->
      Scanf.sscanf (Filename.basename s.Sstable.path) "sst-%d.ldb" (fun n ->
          if n >= t.next_file then t.next_file <- n + 1))
    (t.l0 @ t.l1);
  (* WAL recovery: replay into the memtable (the WAL fd was opened in
     append mode, so replaying the same file first is safe) *)
  let replayed =
    Wal.replay fs (wal_path t) (function
      | Wal.Put (k, v) ->
          t.memtable <- Smap.add k (Some v) t.memtable;
          t.mem_bytes <- t.mem_bytes + String.length k + String.length v
      | Wal.Delete k ->
          t.memtable <- Smap.add k None t.memtable;
          t.mem_bytes <- t.mem_bytes + String.length k)
  in
  ignore replayed;
  t

(* --- flush & compaction --- *)

let records_of_memtable mem =
  Smap.fold
    (fun key value acc -> { Sstable.key; value } :: acc)
    mem []
  |> List.rev

let fresh_table_path t =
  let p = table_path t t.next_file in
  t.next_file <- t.next_file + 1;
  p

let flush_memtable t =
  if not (Smap.is_empty t.memtable) then begin
    let path = fresh_table_path t in
    Sstable.write t.fs path (records_of_memtable t.memtable);
    t.l0 <- Sstable.open_ t.fs path :: t.l0;
    t.memtable <- Smap.empty;
    t.mem_bytes <- 0;
    write_manifest t;
    (* the WAL is fully covered by the flushed table: start a fresh one *)
    Wal.close t.fs t.wal;
    t.fs.unlink (wal_path t);
    t.wal <- Wal.open_ t.fs (wal_path t);
    t.flushes <- t.flushes + 1
  end

(** Merge level 0 (newest wins) and overlapping level-1 tables into fresh
    level-1 tables of bounded size. *)
let compact t =
  t.compactions <- t.compactions + 1;
  let l0 = t.l0 in
  let smallest =
    List.fold_left (fun acc (s : Sstable.t) -> min acc s.Sstable.smallest)
      (match l0 with s :: _ -> s.Sstable.smallest | [] -> "") l0
  in
  let largest =
    List.fold_left (fun acc (s : Sstable.t) -> max acc s.Sstable.largest) "" l0
  in
  let overlapping, disjoint =
    List.partition (fun s -> Sstable.overlaps s ~smallest ~largest) t.l1
  in
  (* newest-first merge: L0 tables (already newest first), then L1 *)
  let merged =
    List.fold_left
      (fun acc table ->
        List.fold_left
          (fun acc (r : Sstable.record) ->
            if Smap.mem r.Sstable.key acc then acc
            else Smap.add r.Sstable.key r.Sstable.value acc)
          acc
          (Sstable.records t.fs table))
      Smap.empty (l0 @ overlapping)
  in
  (* write out in bounded chunks, dropping tombstones (bottom level) *)
  let live =
    Smap.fold
      (fun key value acc ->
        match value with Some _ -> { Sstable.key; value } :: acc | None -> acc)
      merged []
    |> List.rev
  in
  let rec chunk acc current n = function
    | [] -> List.rev (if current = [] then acc else List.rev current :: acc)
    | r :: rest ->
        if n >= 2048 then chunk (List.rev current :: acc) [ r ] 1 rest
        else chunk acc (r :: current) (n + 1) rest
  in
  let new_tables =
    List.filter_map
      (fun records ->
        if records = [] then None
        else begin
          let path = fresh_table_path t in
          Sstable.write t.fs path records;
          Some (Sstable.open_ t.fs path)
        end)
      (chunk [] [] 0 live)
  in
  let dead = l0 @ overlapping in
  t.l0 <- [];
  t.l1 <-
    List.sort
      (fun (a : Sstable.t) b -> compare a.Sstable.smallest b.Sstable.smallest)
      (new_tables @ disjoint);
  write_manifest t;
  List.iter
    (fun (s : Sstable.t) ->
      Sstable.close t.fs s;
      t.fs.unlink s.Sstable.path)
    dead

let maybe_roll t =
  if t.mem_bytes >= t.cfg.memtable_budget then begin
    flush_memtable t;
    if List.length t.l0 >= t.cfg.l0_limit then compact t
  end

(* --- public API --- *)

let put t key value =
  Wal.append t.fs t.wal (Wal.Put (key, value)) ~sync:false;
  t.memtable <- Smap.add key (Some value) t.memtable;
  t.mem_bytes <- t.mem_bytes + String.length key + String.length value;
  maybe_roll t

let delete t key =
  Wal.append t.fs t.wal (Wal.Delete key) ~sync:false;
  t.memtable <- Smap.add key None t.memtable;
  t.mem_bytes <- t.mem_bytes + String.length key;
  maybe_roll t

let rec find_l0 t key = function
  | [] -> None
  | table :: rest -> (
      match Sstable.find t.fs table key with
      | Some hit -> Some hit
      | None -> find_l0 t key rest)

let get t key =
  match Smap.find_opt key t.memtable with
  | Some v -> v
  | None -> (
      match find_l0 t key t.l0 with
      | Some v -> v
      | None ->
          let rec in_l1 = function
            | [] -> None
            | (table : Sstable.t) :: rest ->
                if key < table.Sstable.smallest then None
                else if key > table.Sstable.largest then in_l1 rest
                else (
                  match Sstable.find t.fs table key with
                  | Some hit -> hit
                  | None -> None)
          in
          (match in_l1 t.l1 with Some v -> Some v | None -> None))

(** Range scan: collect up to [count] live records with key >= [start].
    Used by YCSB workload E. *)
let rec scan ?(fetch = 0) t ~start ~count =
  (* bounded merge: each source contributes at most [fetch] candidates
     (newest source wins on duplicates). Tombstones can eat window slots,
     so if the merged live set comes up short while some source was
     truncated, re-fetch with a doubled window. *)
  let fetch = if fetch <= 0 then count else fetch in
  (* smallest "last contributed key" among truncated sources: results at or
     beyond it might be wrong, because that source may hide smaller keys *)
  let horizon = ref None in
  let truncate_at k =
    match !horizon with
    | Some h when h <= k -> ()
    | _ -> horizon := Some k
  in
  let add map (r : Sstable.record) =
    if not (Smap.mem r.Sstable.key map) then
      Smap.add r.Sstable.key r.Sstable.value map
    else map
  in
  let map = ref Smap.empty in
  let taken = ref 0 in
  (try
     Smap.iter
       (fun k v ->
         if k >= start then begin
           if !taken >= fetch then begin
             truncate_at k;
             raise Exit
           end;
           map := Smap.add k v !map;
           incr taken
         end)
       t.memtable
   with Exit -> ());
  let map =
    List.fold_left
      (fun acc table ->
        let records = Sstable.records_from t.fs table ~start ~limit:fetch in
        (match (List.length records = fetch, List.rev records) with
        | true, last :: _ -> truncate_at last.Sstable.key
        | _ -> ());
        List.fold_left add acc records)
      !map (t.l0 @ t.l1)
  in
  let results = ref [] and n = ref 0 in
  (try
     Smap.iter
       (fun k v ->
         match v with
         | Some value ->
             if !n >= count then raise Exit;
             results := (k, value) :: !results;
             incr n
         | None -> ())
       map
   with Exit -> ());
  let unreliable =
    match !horizon with
    | None -> false
    | Some h -> (
        (* short results, or results reaching past a truncated source *)
        !n < count
        || match !results with last :: _ -> fst last >= h | [] -> false)
  in
  if unreliable && fetch < count * 64 then scan ~fetch:(fetch * 2) t ~start ~count
  else List.rev !results

let close t =
  flush_memtable t;
  Wal.close t.fs t.wal;
  List.iter (Sstable.close t.fs) (t.l0 @ t.l1)

let stats t = (t.flushes, t.compactions, List.length t.l0, List.length t.l1)
