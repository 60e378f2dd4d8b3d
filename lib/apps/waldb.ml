(** Minimal embedded relational-ish database over {!Btree} — the SQLite
    stand-in for the TPC-C experiments.

    Tables are name-spaced key ranges inside one B+tree ("table/key"),
    like SQLite keeps every table in one file. A transaction accumulates
    B+tree changes and commits them as one WAL append + fsync. *)

type t = { bt : Btree.t; mutable txs : int }

let open_ (fs : Fsapi.Fs.t) path ?(checkpoint_frames = 512) () =
  { bt = Btree.open_ fs path ~checkpoint_frames; txs = 0 }

let key ~table k = table ^ "/" ^ k

let put t ~table k row = Btree.put t.bt (key ~table k) row
let get t ~table k = Btree.get t.bt (key ~table k)
let delete t ~table k = ignore (Btree.delete t.bt (key ~table k))

(** Scan up to [count] rows of [table] starting at key [start]. *)
let scan t ~table ~start ~count =
  Btree.scan t.bt ~start:(key ~table start) ~count
  |> List.filter_map (fun (k, v) ->
         let prefix = table ^ "/" in
         if String.length k > String.length prefix
            && String.sub k 0 (String.length prefix) = prefix
         then Some (String.sub k (String.length prefix) (String.length k - String.length prefix), v)
         else None)

(** Run [f] as one transaction; its B+tree updates become durable
    atomically on return. *)
let transaction t f =
  let x = f () in
  Btree.commit t.bt;
  t.txs <- t.txs + 1;
  x

let close t = Btree.close t.bt
