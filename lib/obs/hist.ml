(** Log-bucketed latency histograms.

    256 quarter-log2 buckets cover [1 ns, 2^63.75 ns) with a worst-case
    relative error of 2^0.25 ~ 19% per bucket — enough resolution for
    p50/p90/p99/p999 reporting while keeping [record] a couple of float
    ops and one array increment. Exact [min]/[max]/[sum] are tracked on
    the side so the tails quoted in reports are never off by more than a
    bucket width. *)

let nbuckets = 256
let inv_log2 = 1. /. log 2.

type t = {
  buckets : int array;
  mutable n : int;
  mutable sum : float;
  mutable vmin : float;
  mutable vmax : float;
}

let create () =
  {
    buckets = Array.make nbuckets 0;
    n = 0;
    sum = 0.;
    vmin = infinity;
    vmax = neg_infinity;
  }

let copy t = { t with buckets = Array.copy t.buckets }

let bucket_of ns =
  if ns < 1. then 0
  else min (nbuckets - 1) (int_of_float (4. *. log ns *. inv_log2))

(** Geometric midpoint of bucket [i]. *)
let value_of i = 2. ** ((float_of_int i +. 0.5) /. 4.)

let record t ns =
  let i = bucket_of ns in
  t.buckets.(i) <- t.buckets.(i) + 1;
  t.n <- t.n + 1;
  t.sum <- t.sum +. ns;
  if ns < t.vmin then t.vmin <- ns;
  if ns > t.vmax then t.vmax <- ns

let n t = t.n
let sum t = t.sum
let min_v t = if t.n = 0 then 0. else t.vmin
let max_v t = if t.n = 0 then 0. else t.vmax
let mean t = if t.n = 0 then 0. else t.sum /. float_of_int t.n

(** [percentile t p] for [p] in [0,100]: the bucket-midpoint estimate of
    the p-th percentile, clamped to the exact observed [min, max]. *)
let percentile t p =
  if t.n = 0 then 0.
  else begin
    let rank =
      let r = int_of_float (ceil (p /. 100. *. float_of_int t.n)) in
      if r < 1 then 1 else if r > t.n then t.n else r
    in
    let i = ref 0 and cum = ref 0 in
    while !cum < rank && !i < nbuckets do
      cum := !cum + t.buckets.(!i);
      incr i
    done;
    let v = value_of (!i - 1) in
    if v < t.vmin then t.vmin else if v > t.vmax then t.vmax else v
  end

(** [frac_below t ns]: fraction of recorded values at or below [ns] — the
    SLO-attainment number for a latency objective of [ns]. Bucketed like
    [percentile] (whole buckets count as below when their upper edge is),
    so it inherits the same ~19% worst-case bucket error. 1 when empty:
    no recorded op violated the objective. *)
let frac_below t ns =
  if t.n = 0 then 1.
  else begin
    let cut = bucket_of ns in
    let c = ref 0 in
    for i = 0 to cut do
      c := !c + t.buckets.(i)
    done;
    float_of_int !c /. float_of_int t.n
  end

let merge ~into src =
  Array.iteri (fun i c -> into.buckets.(i) <- into.buckets.(i) + c) src.buckets;
  into.n <- into.n + src.n;
  into.sum <- into.sum +. src.sum;
  if src.vmin < into.vmin then into.vmin <- src.vmin;
  if src.vmax > into.vmax then into.vmax <- src.vmax
