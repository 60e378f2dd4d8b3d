(** Copies that keep sharing. When a deep copy reaches one object
    through several holders (a kernel mapping held by the kernel's
    table, a file's mapping list and a staging handle), every holder of
    the copy must reach one copy too. [get m x] is [x]'s copy: made by
    [m]'s copy function on the first request, the same object on every
    later one. Objects are matched by physical identity, so a memo costs
    a list walk per request and suits the few shared objects of a
    crash-trial stack. *)

type ('a, 'b) t = { copy : 'a -> 'b; mutable pairs : ('a * 'b) list }

let create copy = { copy; pairs = [] }

let get m x =
  match List.assq_opt x m.pairs with
  | Some y -> y
  | None ->
      let y = m.copy x in
      m.pairs <- (x, y) :: m.pairs;
      y

(** [h]'s bindings, read without writing [h]: [Hashtbl.iter] and
    [Hashtbl.fold] flag the table while they walk it, so two domains
    copying one table at once would race on the flag. *)
let bindings h = Hashtbl.to_seq h

(** A copy of table [h], every value mapped through [f], that iterates
    in [h]'s order: [Hashtbl.copy] keeps the buckets and their chains,
    and [Hashtbl.replace] rebinds a key where it stands. Keys are bound
    once. *)
let table h f =
  let c = Hashtbl.copy h in
  Seq.iter (fun (k, v) -> Hashtbl.replace c k (f v)) (bindings h);
  c

(** The bindings of [h], every value mapped through [f], in a table
    sized to them: cheaper than {!table} for a large sparse table, but
    iterating in another order, so only for a table that is looked up,
    or iterated into a sorted or order-free result. Keys are bound
    once. *)
let rebuild h f =
  let c = Hashtbl.create (Hashtbl.length h) in
  Seq.iter (fun (k, v) -> Hashtbl.replace c k (f v)) (bindings h);
  c
