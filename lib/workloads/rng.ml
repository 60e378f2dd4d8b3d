(** Deterministic splitmix64 PRNG so every workload is reproducible
    independent of global [Random] state. *)

type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }

let next t =
  t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(** Uniform integer in [0, bound). *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int";
  Int64.to_int (Int64.rem (Int64.logand (next t) Int64.max_int) (Int64.of_int bound))

let float t =
  Int64.to_float (Int64.logand (next t) 0xFFFFFFFFFFFFFL) /. 4503599627370496.0

let bool t = Int64.logand (next t) 1L = 1L

(** Deterministic printable payload of [len] bytes. *)
let payload t len = String.init len (fun _ -> Char.chr (33 + int t 94))

(** [derive seed index] is a fresh seed for trial [index] of a campaign
    keyed by [seed] — splitmix64's finalizer over the campaign seed XOR a
    golden-ratio-scrambled trial index. It depends only on the pair, not
    on any shared RNG state or partition shape, so a trial draws the same
    stream no matter which domain (or how many) runs it. Kept
    non-negative so derived seeds can be re-derived. *)
let derive seed index =
  let t =
    {
      state =
        Int64.logxor (Int64.of_int seed)
          (Int64.mul (Int64.of_int (index + 1)) 0x9E3779B97F4A7C15L);
    }
  in
  (* mask after the 63-bit truncation, not before: [Int64.to_int] keeps
     only 63 bits, so an [Int64]-side mask could still go negative *)
  Int64.to_int (next t) land max_int

(** PRNG for trial [index] of campaign [seed]; see {!derive}. *)
let create_derived seed index = create (derive seed index)
