(** TPC-C online-transaction-processing mix over the {!Apps.Waldb} embedded
    database — the paper's "TPC-C on SQLite" experiment (§5.2).

    The five transaction types run at the standard mix (new-order 45%,
    payment 43%, order-status 4%, delivery 4%, stock-level 4%) against the
    standard tables, with row payloads sized like the spec's (hundreds of
    bytes) but without the full column semantics: what matters to a file
    system is the transaction's read/write page footprint and its
    commit+fsync, which this preserves. *)

(* One warehouse of ten districts, populated and run from seed 11. *)
let warehouses = 1
let districts_per_wh = 10
let seed = 11

type config = { customers_per_district : int; items : int; transactions : int }

type result = {
  new_orders : int;
  payments : int;
  order_statuses : int;
  deliveries : int;
  stock_levels : int;
}

let total r =
  r.new_orders + r.payments + r.order_statuses + r.deliveries + r.stock_levels

let wkey w = Printf.sprintf "%03d" w
let dkey w d = Printf.sprintf "%03d-%02d" w d
let ckey w d c = Printf.sprintf "%03d-%02d-%04d" w d c
let ikey i = Printf.sprintf "%06d" i
let skey w i = Printf.sprintf "%03d-%06d" w i
let okey w d o = Printf.sprintf "%03d-%02d-%08d" w d o

let row rng n = Rng.payload rng n

(** Populate the standard tables. *)
let load db cfg =
  let rng = Rng.create seed in
  Apps.Waldb.transaction db (fun () ->
      for i = 0 to cfg.items - 1 do
        Apps.Waldb.put db ~table:"item" (ikey i) (row rng 80)
      done);
  for w = 0 to warehouses - 1 do
    Apps.Waldb.transaction db (fun () ->
        Apps.Waldb.put db ~table:"warehouse" (wkey w) (row rng 90);
        for d = 0 to districts_per_wh - 1 do
          Apps.Waldb.put db ~table:"district" (dkey w d) (row rng 95)
        done);
    Apps.Waldb.transaction db (fun () ->
        for d = 0 to districts_per_wh - 1 do
          for c = 0 to cfg.customers_per_district - 1 do
            Apps.Waldb.put db ~table:"customer" (ckey w d c) (row rng 250)
          done
        done);
    Apps.Waldb.transaction db (fun () ->
        for i = 0 to cfg.items - 1 do
          Apps.Waldb.put db ~table:"stock" (skey w i) (row rng 150)
        done)
  done

let new_order db cfg rng next_oid =
  let w = Rng.int rng warehouses in
  let d = Rng.int rng districts_per_wh in
  let c = Rng.int rng cfg.customers_per_district in
  Apps.Waldb.transaction db (fun () ->
      ignore (Apps.Waldb.get db ~table:"warehouse" (wkey w));
      ignore (Apps.Waldb.get db ~table:"district" (dkey w d));
      ignore (Apps.Waldb.get db ~table:"customer" (ckey w d c));
      (* district next-order-id update *)
      Apps.Waldb.put db ~table:"district" (dkey w d) (row rng 95);
      let oid = !next_oid in
      next_oid := oid + 1;
      Apps.Waldb.put db ~table:"orders" (okey w d oid) (row rng 30);
      Apps.Waldb.put db ~table:"new_order" (okey w d oid) "1";
      let lines = 5 + Rng.int rng 11 in
      for l = 0 to lines - 1 do
        let item = Rng.int rng cfg.items in
        ignore (Apps.Waldb.get db ~table:"item" (ikey item));
        ignore (Apps.Waldb.get db ~table:"stock" (skey w item));
        Apps.Waldb.put db ~table:"stock" (skey w item) (row rng 150);
        Apps.Waldb.put db ~table:"order_line"
          (okey w d oid ^ Printf.sprintf "-%02d" l)
          (row rng 55)
      done)

let payment db cfg rng =
  let w = Rng.int rng warehouses in
  let d = Rng.int rng districts_per_wh in
  let c = Rng.int rng cfg.customers_per_district in
  Apps.Waldb.transaction db (fun () ->
      Apps.Waldb.put db ~table:"warehouse" (wkey w) (row rng 90);
      Apps.Waldb.put db ~table:"district" (dkey w d) (row rng 95);
      ignore (Apps.Waldb.get db ~table:"customer" (ckey w d c));
      Apps.Waldb.put db ~table:"customer" (ckey w d c) (row rng 250);
      Apps.Waldb.put db ~table:"history"
        (Printf.sprintf "%s-%d" (ckey w d c) (Rng.int rng 1_000_000))
        (row rng 46))

let order_status db cfg rng =
  let w = Rng.int rng warehouses in
  let d = Rng.int rng districts_per_wh in
  let c = Rng.int rng cfg.customers_per_district in
  Apps.Waldb.transaction db (fun () ->
      ignore (Apps.Waldb.get db ~table:"customer" (ckey w d c));
      ignore (Apps.Waldb.scan db ~table:"orders" ~start:(okey w d 0) ~count:5))

let delivery db rng next_delivered =
  let w = Rng.int rng warehouses in
  Apps.Waldb.transaction db (fun () ->
      for d = 0 to districts_per_wh - 1 do
        let pending =
          Apps.Waldb.scan db ~table:"new_order" ~start:(okey w d !next_delivered)
            ~count:1
        in
        List.iter
          (fun (k, _) ->
            Apps.Waldb.delete db ~table:"new_order" k;
            Apps.Waldb.put db ~table:"orders" k (row rng 30))
          pending
      done;
      incr next_delivered)

let stock_level db rng =
  let w = Rng.int rng warehouses in
  Apps.Waldb.transaction db (fun () ->
      ignore
        (Apps.Waldb.get db ~table:"district"
           (dkey w (Rng.int rng districts_per_wh)));
      ignore (Apps.Waldb.scan db ~table:"stock" ~start:(skey w 0) ~count:20))

(** Run the standard transaction mix. *)
let run ?(think = fun () -> ()) db cfg =
  let rng = Rng.create (seed + 1) in
  let next_oid = ref 1 and next_delivered = ref 1 in
  let r =
    ref
      {
        new_orders = 0;
        payments = 0;
        order_statuses = 0;
        deliveries = 0;
        stock_levels = 0;
      }
  in
  for _ = 1 to cfg.transactions do
    (* SQL parsing, query planning, row (de)serialisation *)
    think ();
    let die = Rng.int rng 100 in
    if die < 45 then begin
      new_order db cfg rng next_oid;
      r := { !r with new_orders = !r.new_orders + 1 }
    end
    else if die < 88 then begin
      payment db cfg rng;
      r := { !r with payments = !r.payments + 1 }
    end
    else if die < 92 then begin
      order_status db cfg rng;
      r := { !r with order_statuses = !r.order_statuses + 1 }
    end
    else if die < 96 then begin
      delivery db rng next_delivered;
      r := { !r with deliveries = !r.deliveries + 1 }
    end
    else begin
      stock_level db rng;
      r := { !r with stock_levels = !r.stock_levels + 1 }
    end
  done;
  !r
