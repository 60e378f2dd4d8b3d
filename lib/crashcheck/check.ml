(** Per-mode differential check of a recovered file against the oracle's
    pre-/post-op views (DESIGN.md §5d), and the contracts the campaigns
    hold each stack to. *)

(** What a recovered file may legally look like.

    [Sync_dax] is the kernel-file-system contract: sizes are pre- or
    post-op (metadata ops are journalled and the simulator's DRAM
    metadata survives the crash), bytes the pre-op state already covered
    must be explained by the pre- or post-op content, and bytes beyond
    the pre-op size are unconstrained — a freshly allocated block whose
    data stores were lost reads back as zeros (or stale freed content),
    which is exactly the non-atomic ext4-DAX behaviour the paper's
    strict mode exists to fix. *)
type contract = Atomic | Syncd | Posixd | Sync_dax | Fams

(** The strongest contract a stack claims (paper Table 3): SplitFS
    strict is atomic, sync is synchronous, POSIX promises only fsync'd
    data, fams exactly the pre- or post-msync image; every other file
    system is held to the kernel contract. *)
let contract_of spec =
  match Stacks.Fs_config.mode spec with
  | Some Splitfs.Config.Strict -> Atomic
  | Some Splitfs.Config.Sync -> Syncd
  | Some Splitfs.Config.Posix -> Posixd
  | Some Splitfs.Config.Fams -> Fams
  | None -> Sync_dax

let contract_name = function
  | Atomic -> "atomic"
  | Syncd -> "sync"
  | Posixd -> "posix"
  | Sync_dax -> "sync-dax"
  | Fams -> "fams"

let check_size recovered allowed =
  if List.mem (Bytes.length recovered) allowed then None
  else
    Some
      (Fmt.str "recovered size %d not in {%a}" (Bytes.length recovered)
         Fmt.(list ~sep:comma int)
         allowed)

(** Every recovered byte (up to [upto]) covered by at least one view
    must be explained by a covering view. *)
let check_bytes ?(upto = max_int) recovered views =
  let views = Array.of_list views in
  let limit = min (Bytes.length recovered) upto in
  (* byte [i] is bad when some view covers it and none that does holds it *)
  let bad i =
    let b = Bytes.get recovered i in
    let covered = ref false and ok = ref false and k = ref 0 in
    while (not !ok) && !k < Array.length views do
      let v = views.(!k) in
      if i < Bytes.length v then begin
        covered := true;
        if Bytes.get v i = b then ok := true
      end;
      incr k
    done;
    !covered && not !ok
  in
  let i = ref 0 in
  while !i < limit && not (bad !i) do incr i done;
  if !i < limit then
    Some
      (Fmt.str "byte %d (%#02x) matches no legal view" !i
         (Char.code (Bytes.get recovered !i)))
  else None

(** [check mode ~pre ~post recovered] — [pre]/[post] are the oracle
    views immediately before and after the operation in flight at the
    crash (equal when the crash fell between operations). *)
let check mode ~(pre : View.t) ~(post : View.t) recovered =
  match mode with
  | Splitfs.Config.Strict ->
      (* atomic data ops: exactly the old or the new state, no mixing *)
      if Bytes.equal recovered pre.View.cur
         || Bytes.equal recovered post.View.cur
      then None
      else
        Some
          (Fmt.str
             "content is neither the pre- nor the post-op state (pre=%dB \
              post=%dB got=%dB)"
             (Bytes.length pre.View.cur)
             (Bytes.length post.View.cur)
             (Bytes.length recovered))
  | Splitfs.Config.Fams ->
      (* failure-atomic msync: exactly the pre- or the post-msync image —
         unpublished stores must be invisible (no [stable_ow]: fams never
         writes in place), published ones complete; truncate is a
         metadata operation, durable immediately, and the oracle's stable
         views resize with it *)
      if Bytes.equal recovered pre.View.stable
         || Bytes.equal recovered post.View.stable
      then None
      else
        Some
          (Fmt.str
             "content is neither the pre- nor the post-msync image \
              (pre=%dB post=%dB got=%dB)"
             (Bytes.length pre.View.stable)
             (Bytes.length post.View.stable)
             (Bytes.length recovered))
  | Splitfs.Config.Sync -> (
      match
        check_size recovered
          [ Bytes.length pre.View.cur; Bytes.length post.View.cur ]
      with
      | Some e -> Some e
      | None -> check_bytes recovered [ pre.View.cur; post.View.cur ])
  | Splitfs.Config.Posix -> (
      match
        check_size recovered
          [ Bytes.length pre.View.stable; Bytes.length post.View.stable ]
      with
      | Some e -> Some e
      | None ->
          let views =
            [
              pre.View.stable;
              pre.View.stable_ow;
              post.View.stable;
              post.View.stable_ow;
            ]
          in
          (* beyond the smallest stable size nothing is promised *)
          let upto =
            List.fold_left (fun a v -> min a (Bytes.length v)) max_int views
          in
          check_bytes ~upto recovered views)

(** [check_contract contract ~pre ~post recovered] is {!check} for the
    SplitFS contracts, plus the kernel contract. *)
let check_contract contract ~pre ~post recovered =
  match contract with
  | Atomic -> check Splitfs.Config.Strict ~pre ~post recovered
  | Fams -> check Splitfs.Config.Fams ~pre ~post recovered
  | Syncd -> check Splitfs.Config.Sync ~pre ~post recovered
  | Posixd -> check Splitfs.Config.Posix ~pre ~post recovered
  | Sync_dax -> (
      match
        check_size recovered
          [ Bytes.length pre.View.cur; Bytes.length post.View.cur ]
      with
      | Some e -> Some e
      | None ->
          (* bytes the pre state covered must be explained; bytes the
             in-flight op newly exposed are unconstrained (fresh-block
             zeros or stale freed content — non-atomic kernel FS) *)
          check_bytes ~upto:(Bytes.length pre.View.cur) recovered
            [ pre.View.cur; post.View.cur ])

(** Existence plus content: a path may only appear or disappear if the
    operation in flight could have done it. *)
let check_file contract ~pre ~post recovered =
  match recovered with
  | None ->
      if Option.is_none pre || Option.is_none post then None
      else Some "file lost: present in both the pre- and post-op state"
  | Some b ->
      if Option.is_none pre && Option.is_none post then
        Some "file resurrected: absent in both oracle states"
      else
        check_contract contract
          ~pre:(Option.value pre ~default:View.empty)
          ~post:(Option.value post ~default:View.empty)
          b
