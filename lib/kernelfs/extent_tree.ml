module Imap = Map.Make (Int)

type extent = { logical : int; physical : int; len : int }

type t = { mutable map : extent Imap.t }  (** keyed by [logical] *)

let create () = { map = Imap.empty }

let copy t = { map = t.map }
let is_empty t = Imap.is_empty t.map
let count t = Imap.cardinal t.map
let blocks t = Imap.fold (fun _ e acc -> acc + e.len) t.map 0

(** Extent covering [lblk], if any. *)
let covering t lblk =
  match Imap.find_last_opt (fun l -> l <= lblk) t.map with
  | Some (_, e) when lblk < e.logical + e.len -> Some e
  | _ -> None

let find t lblk =
  match covering t lblk with
  | Some e ->
      let off = lblk - e.logical in
      Some (e.physical + off, e.len - off)
  | None -> None

let overlaps t ~logical ~len =
  match covering t logical with
  | Some _ -> true
  | None -> (
      match Imap.find_first_opt (fun l -> l > logical) t.map with
      | Some (l, _) -> l < logical + len
      | None -> false)

let insert t ~logical ~physical ~len =
  if len <= 0 then invalid_arg "Extent_tree.insert: len";
  if overlaps t ~logical ~len then invalid_arg "Extent_tree.insert: overlap";
  (* Merge with physically-adjacent neighbours. *)
  let logical, physical, len =
    match Imap.find_last_opt (fun l -> l < logical) t.map with
    | Some (_, p)
      when p.logical + p.len = logical && p.physical + p.len = physical ->
        t.map <- Imap.remove p.logical t.map;
        (p.logical, p.physical, p.len + len)
    | _ -> (logical, physical, len)
  in
  let len =
    match Imap.find_first_opt (fun l -> l >= logical + len) t.map with
    | Some (l, n)
      when l = logical + len && n.physical = physical + len ->
        t.map <- Imap.remove l t.map;
        len + n.len
    | _ -> len
  in
  t.map <- Imap.add logical { logical; physical; len } t.map

let remove_range t ~logical ~len =
  if len <= 0 then invalid_arg "Extent_tree.remove_range: len";
  let last = logical + len in
  let removed = ref [] in
  let relevant =
    Imap.filter
      (fun _ e -> e.logical < last && e.logical + e.len > logical)
      t.map
  in
  Imap.iter
    (fun _ e ->
      t.map <- Imap.remove e.logical t.map;
      (* Left remainder stays mapped. *)
      if e.logical < logical then begin
        let keep = logical - e.logical in
        t.map <-
          Imap.add e.logical { e with len = keep } t.map
      end;
      (* Right remainder stays mapped. *)
      if e.logical + e.len > last then begin
        let keep = e.logical + e.len - last in
        t.map <-
          Imap.add last
            { logical = last; physical = e.physical + (last - e.logical); len = keep }
            t.map
      end;
      let cut_lo = max e.logical logical and cut_hi = min (e.logical + e.len) last in
      removed :=
        {
          logical = cut_lo;
          physical = e.physical + (cut_lo - e.logical);
          len = cut_hi - cut_lo;
        }
        :: !removed)
    relevant;
  List.sort (fun a b -> compare a.logical b.logical) !removed

let next_mapped t lblk =
  match covering t lblk with
  | Some _ -> Some lblk
  | None -> (
      match Imap.find_first_opt (fun l -> l >= lblk) t.map with
      | Some (l, _) -> Some l
      | None -> None)

let clear t = t.map <- Imap.empty

let to_list t = List.map snd (Imap.bindings t.map)
let iter f t = Imap.iter (fun _ e -> f e) t.map

let check_invariants t =
  let rec ok = function
    | [] | [ _ ] -> true
    | a :: (b :: _ as rest) ->
        a.len > 0
        && a.logical + a.len <= b.logical
        (* adjacent extents must not be mergeable *)
        && not (a.logical + a.len = b.logical && a.physical + a.len = b.physical)
        && ok rest
  in
  List.for_all (fun e -> e.len > 0) (to_list t) && ok (to_list t)
