(** Bounded domain-pool campaign runner (DESIGN.md §5j).

    Verification campaigns (crashcheck, faultcheck, litmus, minimize) are
    embarrassingly parallel across trials, and after the PR-8 global-state
    purge every trial builds its own [Pmem.Env] — no two trials share any
    mutable state. [map] fans an indexed list of independent trials over a
    bounded pool of OCaml 5 domains and returns results in input order, so
    a merge over the result list is identical at any job count: the *work*
    is parallel, the *report* is sequential.

    Determinism contract:
    - work items are claimed from an [Atomic] counter (dynamic
      load-balancing), but the result slot is the item's index — which
      domain ran a trial is unobservable in the output;
    - trials must derive any randomness from their own index
      ([Workloads.Rng.derive (campaign_seed, index)]), never from shared
      RNG state;
    - the first exception (by item index, not by wall-clock) is re-raised
      after every domain joins, so failure reporting is deterministic too.

    This lives in its own leaf library (referenced from the harness as
    [Harness.Par]'s implementation) because the campaign libraries sit
    *below* harness in the dependency graph. *)

let env_jobs = "SPLITFS_JOBS"

(** Job count resolution: explicit [jobs] argument, else [SPLITFS_JOBS],
    else [Domain.recommended_domain_count ()]. Clamped to [1, 64]. *)
let resolve_jobs ?jobs () =
  let requested =
    match jobs with
    | Some j -> j
    | None -> (
        match Sys.getenv_opt env_jobs with
        | Some s -> ( match int_of_string_opt (String.trim s) with
                      | Some j -> j
                      | None -> Domain.recommended_domain_count ())
        | None -> Domain.recommended_domain_count ())
  in
  max 1 (min 64 requested)

type 'b slot = Pending | Done of 'b | Failed of exn

(** [map ~jobs f items] = [List.map f items], fanned over up to [jobs]
    domains ([resolve_jobs] defaults). Results are in input order; the
    lowest-index exception is re-raised after all domains join. With one
    job (or one item) everything runs on the calling domain — no spawn,
    bit-identical to a plain [List.map]. *)
let map ?jobs f items =
  let items = Array.of_list items in
  let n = Array.length items in
  let jobs = min (resolve_jobs ?jobs ()) n in
  if jobs <= 1 then
    Array.to_list
      (Array.mapi (fun i x -> f i x) items)
  else begin
    let results = Array.make n Pending in
    let next = Atomic.make 0 in
    let worker () =
      let continue = ref true in
      while !continue do
        let i = Atomic.fetch_and_add next 1 in
        if i >= n then continue := false
        else
          results.(i) <-
            (match f i items.(i) with x -> Done x | exception e -> Failed e)
      done
    in
    let domains =
      Array.init (jobs - 1) (fun _ -> Domain.spawn worker)
    in
    worker ();
    Array.iter Domain.join domains;
    Array.to_list
      (Array.map
         (function
           | Done x -> x
           | Failed e -> raise e
           | Pending -> assert false)
         results)
  end
