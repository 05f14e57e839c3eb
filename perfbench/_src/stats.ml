(* The benchmark's own statistics. Quartiles use the same definition as
   Python's [statistics.quantiles(values, n=4)] (the "exclusive" method),
   so a spread printed here reads the same as one computed over the
   printed values by any Python script. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.median: no samples";
  let a = sorted xs in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Python's exclusive method: the cut point for quartile i is at rank
   i*(n+1)/4 (1-based), linearly interpolated and clamped to the ends. *)
let quartiles xs =
  let n = Array.length xs in
  if n < 2 then invalid_arg "Stats.quartiles: need at least two samples";
  let a = sorted xs in
  let cut i =
    let m = n + 1 in
    let j = max 1 (min (n - 1) (i * m / 4)) in
    let delta = float_of_int ((i * m) - (j * 4)) in
    (a.(j - 1) *. (4.0 -. delta) +. (a.(j) *. delta)) /. 4.0
  in
  (cut 1, cut 2, cut 3)

(* A percentile is worth reporting only when at least ten samples lie
   beyond it; otherwise it is the maximum of a handful of draws. This is
   the highest rung of [ladder] that [n] samples support. *)
let ladder = [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]

(* The epsilon keeps 99.9% of 10000 at rank 9990 despite rounding. *)
let rank ~n p = int_of_float (ceil ((p *. float_of_int n /. 100.0) -. 1e-9))

let beyond ~n p = n - rank ~n p

let tail_percentile n = List.find_opt (fun p -> beyond ~n p >= 10) ladder

(* Whether [n] samples support reporting percentile [p]. *)
let supports n p = match tail_percentile n with Some q -> q >= p | None -> false

(* Nearest-rank percentile of an ascending array: the smallest sample
   with at least p% of the samples at or below it. *)
let percentile_sorted a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile_sorted: no samples";
  a.(max 0 (min (n - 1) (rank ~n p - 1)))

let percentile xs p = percentile_sorted (sorted xs) p
