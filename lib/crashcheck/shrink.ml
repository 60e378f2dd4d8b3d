(** The greedy shrinker behind every campaign's counterexamples
    (DESIGN.md §5d). *)

(** [greedy ~budget ~violates ~simpler xs] visits the elements of the
    current candidate in order; [simpler x current] proposes a smaller
    candidate for element [x] ([None] = nothing to try), which replaces
    the current one when it still [violates]. Passes repeat while one
    makes progress, bounded by [budget] calls to [violates]. *)
let greedy ~budget ~violates ~simpler xs =
  let budget = ref budget in
  let current = ref xs in
  let progress = ref true in
  while !progress && !budget > 0 do
    progress := false;
    List.iter
      (fun x ->
        if !budget > 0 then
          match simpler x !current with
          | None -> ()
          | Some cand ->
              decr budget;
              if violates cand then begin
                current := cand;
                progress := true
              end)
      !current
  done;
  !current

(** Minimise a violating survivor vector at [point]: restore deviating
    lines (those not keeping every pending version, or torn) to the
    fully-persisted default one at a time, keeping each restoration that
    still violates. What remains is a minimal set of lost/torn lines
    that still breaks recovery — the culprit, not the noise drawn
    alongside it. *)
let survivors ~budget ~violates (point : Explore.point) svs =
  let full_keep line =
    match
      Array.to_list point.Explore.pending
      |> List.find_opt (fun (p : Pmem.Device.pending_line) -> p.p_line = line)
    with
    | Some p -> p.Pmem.Device.p_versions
    | None -> 0
  in
  let deviates (s : Pmem.Device.survivor) =
    s.s_keep <> full_keep s.s_line || s.s_tear <> 0
  in
  let restore (s : Pmem.Device.survivor) current =
    if not (deviates s) then None
    else
      Some
        (List.map
           (fun (s' : Pmem.Device.survivor) ->
             if s'.s_line = s.s_line then
               { s' with Pmem.Device.s_keep = full_keep s.s_line; s_tear = 0 }
             else s')
           current)
  in
  List.filter deviates (greedy ~budget ~violates ~simpler:restore svs)
