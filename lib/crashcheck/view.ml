(** What the differential oracle knows about one file at one instant. *)

type t = {
  cur : Bytes.t;  (** current (volatile) content *)
  stable : Bytes.t;  (** content as of the last fsync *)
  stable_ow : Bytes.t;
      (** [stable] with post-fsync in-place overwrites applied *)
}

let empty = { cur = Bytes.empty; stable = Bytes.empty; stable_ow = Bytes.empty }

(** The oracle's view of [path]; [None] when the oracle has no such
    file. *)
let of_oracle (oracle : Fsapi.Ref_fs.oracle) path =
  match
    (oracle.Fsapi.Ref_fs.dump path, oracle.Fsapi.Ref_fs.dump_stable path)
  with
  | Some cur, Some (stable, stable_ow) -> Some { cur; stable; stable_ow }
  | _ -> None
