(** Fence minimization over the litmus corpus (DESIGN.md §5i).

    Every [Device.fence]/[flush] call site in the SplitFS user-space
    library, the oplog, and the kernel journal is registered with a
    site id. This module asks, for each site: is that fence load-bearing
    for crash consistency, or is it covered by a later fence on every
    path that matters?

    The method is elision, not reasoning: a site is switched off at the
    device (the fence's persist-order commit, its simulated-time charge
    and its stats all vanish — a faithful model of deleting the call),
    and the entire litmus corpus is re-explored *exhaustively* on every
    configuration where the site fires inside a crash window. A site is

    - REQUIRED if some crash state of some pattern then violates its
      stack's contract — the verdict carries the violating state, shrunk
      to a minimal set of lost lines;
    - REDUNDANT if every crash state of every combination where the
      site fires still recovers correctly. Because the exploration is
      exhaustive (the litmus corpus is built to stay enumerable), this
      is a proof relative to the corpus and the simulator's persist
      semantics, not a sampled impression;
    - UNEXERCISED if the site never fires inside any corpus crash
      window (e.g. mount-time initialisation) — no verdict, the fence
      stays.

    Only REDUNDANT sites are candidates for physical removal; the
    corresponding source deletions and their simulated-time effect are
    recorded in EXPERIMENTS.md. *)

(** One un-elided profiling pass per combo, returning the set of sites
    that fire inside its crash window. Profiling is deterministic, so a
    single pass serves every site's classification — the alternative
    (re-profiling all combos for each of the registered sites) multiplies
    the costliest loop of the suite by the site count for no information
    gain. *)
let profile_combos ?jobs combos =
  Par.map ?jobs (fun _ c -> (c, snd (Litmus.profile (Litmus.start c) c))) combos

(* ------------------------------------------------------------------ *)
(* Per-site classification                                              *)
(* ------------------------------------------------------------------ *)

type verdict =
  | Required of {
      q_combo : string;  (** where the counterexample lives *)
      q_violation : Trial.violation;
          (** the combo's first violation, shrunk with the elision still
              active *)
    }
  | Redundant of {
      q_combos : int;  (** combinations the site fires in *)
      q_states : int;  (** crash states exhaustively re-checked *)
    }
  | Unexercised  (** never fires inside a corpus crash window *)

type site_report = { s_site : int; s_name : string; s_verdict : verdict }

(** [elided c site] is [c] with the stack it mounts carrying the elision
    of [site] on its own device, from before its files are set up: the
    combo's start, and so every clone a trial runs on. Elision is
    per-device state, so concurrent classifications of different sites
    never observe each other; setting it after the mount is faithful
    because the persist-order journal only opens afterwards — mount-time
    fences are outside every crash window. *)
let elided (c : Litmus.combo) site =
  let build () =
    let st = c.Litmus.c_build () in
    Pmem.Device.elide_fence_site st.Stacks.Fs_config.env.Pmem.Env.dev site;
    st
  in
  { c with Litmus.c_build = build }

(** Classify one site against [profiled] (from {!profile_combos}). *)
let classify profiled site =
  match List.filter (fun (_, sites) -> List.mem site sites) profiled with
  | [] -> Unexercised
  | firing ->
      let states = ref 0 in
      let rec go = function
        | [] ->
            Redundant { q_combos = List.length firing; q_states = !states }
        | (c, _) :: rest -> (
            let r = Litmus.run_combo (elided c site) in
            states := !states + r.Trial.r_states;
            match r.Trial.r_violations with
            | [] -> go rest
            | v :: _ ->
                Required { q_combo = Litmus.combo_name c; q_violation = v })
      in
      go firing

(** Classify every registered site. Sites are independent — each holds
    its elision on the devices its own combos mount — so the costliest
    loop of the whole verification suite fans over the {!Par} domain
    pool, one task per site, reports merged in registration order. *)
let run ?jobs () =
  let profiled = profile_combos ?jobs Litmus.combos in
  Par.map ?jobs
    (fun _ (site, name) ->
      { s_site = site; s_name = name; s_verdict = classify profiled site })
    (Pmem.Device.fence_sites ())

let verdict_name = function
  | Required _ -> "REQUIRED"
  | Redundant _ -> "REDUNDANT"
  | Unexercised -> "unexercised"
