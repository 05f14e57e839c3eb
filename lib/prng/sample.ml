(* Discrete samplers built on Rng. All tables are immutable once built so a
   single table can be shared by many generators/threads. *)

type cdf = { cumulative : float array }

let cdf_of_weights weights =
  let n = Array.length weights in
  if n = 0 then invalid_arg "Sample.cdf_of_weights: empty weights";
  let cumulative = Array.make n 0.0 in
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    let w = weights.(i) in
    if w < 0.0 || Float.is_nan w then
      invalid_arg "Sample.cdf_of_weights: negative or NaN weight";
    total := !total +. w;
    cumulative.(i) <- !total
  done;
  if !total <= 0.0 then invalid_arg "Sample.cdf_of_weights: zero total weight";
  for i = 0 to n - 1 do
    cumulative.(i) <- cumulative.(i) /. !total
  done;
  cumulative.(n - 1) <- 1.0;
  { cumulative }

let cdf_size { cumulative } = Array.length cumulative

(* First index i with cumulative.(i) > u; u in [0,1). *)
let cdf_draw { cumulative } rng =
  let u = Rng.float rng in
  let n = Array.length cumulative in
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if cumulative.(mid) > u then search lo mid else search (mid + 1) hi
  in
  search 0 (n - 1)

let cdf_probability { cumulative } i =
  if i < 0 || i >= Array.length cumulative then
    invalid_arg "Sample.cdf_probability: index out of range";
  if i = 0 then cumulative.(0) else cumulative.(i) -. cumulative.(i - 1)

type alias = { prob : float array; alias_of : int array }

(* Vose's alias method: O(n) construction, O(1) draws. *)
let alias_of_weights weights =
  let n = Array.length weights in
  if n = 0 then invalid_arg "Sample.alias_of_weights: empty weights";
  let total = Array.fold_left ( +. ) 0.0 weights in
  if total <= 0.0 || Float.is_nan total then
    invalid_arg "Sample.alias_of_weights: non-positive total weight";
  let scaled = Array.map (fun w -> w *. float_of_int n /. total) weights in
  let prob = Array.make n 0.0 in
  let alias_of = Array.make n 0 in
  let small = Queue.create () in
  let large = Queue.create () in
  Array.iteri (fun i p -> if p < 1.0 then Queue.add i small else Queue.add i large) scaled;
  while (not (Queue.is_empty small)) && not (Queue.is_empty large) do
    let s = Queue.pop small in
    let l = Queue.pop large in
    prob.(s) <- scaled.(s);
    alias_of.(s) <- l;
    scaled.(l) <- scaled.(l) +. scaled.(s) -. 1.0;
    if scaled.(l) < 1.0 then Queue.add l small else Queue.add l large
  done;
  Queue.iter (fun i -> prob.(i) <- 1.0) small;
  Queue.iter (fun i -> prob.(i) <- 1.0) large;
  { prob; alias_of }

let alias_draw { prob; alias_of } rng =
  let i = Rng.int rng (Array.length prob) in
  if Rng.float rng < prob.(i) then i else alias_of.(i)

let exponential rng ~rate =
  if rate <= 0.0 then invalid_arg "Sample.exponential: rate must be positive";
  (* 1 - u avoids log 0. *)
  -.log (1.0 -. Rng.float rng) /. rate

let geometric rng ~p =
  if p <= 0.0 || p > 1.0 then invalid_arg "Sample.geometric: p must be in (0,1]";
  if Float.equal p 1.0 then 1
  else
    (* Number of Bernoulli(p) trials up to and including the first success. *)
    let u = 1.0 -. Rng.float rng in
    1 + int_of_float (floor (log u /. log (1.0 -. p)))

let poisson rng ~lambda =
  if lambda < 0.0 then invalid_arg "Sample.poisson: lambda must be non-negative";
  if Float.equal lambda 0.0 then 0
  else if lambda < 30.0 then begin
    (* Knuth's product-of-uniforms method. *)
    let limit = exp (-.lambda) in
    let rec go k prod =
      let prod = prod *. Rng.float rng in
      if prod <= limit then k else go (k + 1) prod
    in
    go 0 1.0
  end
  else begin
    (* Split: Poisson(a+b) = Poisson(a) + Poisson(b). Keeps each chunk in
       the numerically safe range of the product method. *)
    let chunk = 20.0 in
    let rec go remaining acc =
      if remaining > chunk then go (remaining -. chunk) (acc + poisson_chunk rng chunk)
      else acc + poisson_chunk rng remaining
    and poisson_chunk rng lambda =
      let limit = exp (-.lambda) in
      let rec inner k prod =
        let prod = prod *. Rng.float rng in
        if prod <= limit then k else inner (k + 1) prod
      in
      inner 0 1.0
    in
    go lambda 0
  end

let binomial rng ~n ~p =
  if n < 0 then invalid_arg "Sample.binomial: n must be non-negative";
  if p < 0.0 || p > 1.0 then invalid_arg "Sample.binomial: p must be in [0,1]";
  (* Direct Bernoulli sum; n in our workloads is small (node degrees). *)
  let count = ref 0 in
  for _ = 1 to n do
    if Rng.float rng < p then incr count
  done;
  !count

type power_law = {
  max_length : int;
  prefix : float array; (* prefix.(i) = sum_{d=1..i+1} d^-exponent *)
  guide : int array;
      (* guide.(j) = first i with prefix.(i) > j * total / m, where m is the
         guide's length and total is the last prefix entry *)
  guide_scale : float; (* m / total *)
}

(* Chen & Asau's guide table: m buckets of equal mass, each pointing at the
   first prefix entry past its lower edge, so a draw starts next to its
   answer instead of bisecting the whole table. m is capped at a quarter of
   max_length so the guide never outweighs the prefix table it indexes. *)
let power_law ~exponent ~max_length =
  if max_length < 1 then invalid_arg "Sample.power_law: max_length must be >= 1";
  let prefix = Array.make max_length 0.0 in
  let acc = ref 0.0 in
  for d = 1 to max_length do
    acc := !acc +. (1.0 /. Float.pow (float_of_int d) exponent);
    prefix.(d - 1) <- !acc
  done;
  let total = prefix.(max_length - 1) in
  let m = max 1 (max_length / 4) in
  let guide = Array.make m 0 in
  let i = ref 0 in
  for j = 0 to m - 1 do
    let edge = float_of_int j *. total /. float_of_int m in
    while !i < max_length - 1 && prefix.(!i) <= edge do
      incr i
    done;
    guide.(j) <- !i
  done;
  { max_length; prefix; guide; guide_scale = float_of_int m /. total }

let power_law_total t ~upto =
  if upto < 0 || upto > t.max_length then
    invalid_arg "Sample.power_law_total: out of range";
  if upto = 0 then 0.0 else t.prefix.(upto - 1)

(* Inverse-CDF draw of a length d in [1, upto] with Pr[d] proportional to
   d^-exponent: the first i with prefix.(i) > target, capped at upto-1,
   plus one. The guide gives a start index; the two scans then move it to
   that first index whatever the start, so the result is exactly what a
   bisection over prefix.(0 .. upto-2) returns. Clamping the start keeps
   the result in [1, upto] whatever rounding does to target and j. *)
let power_law_draw t rng ~upto =
  if upto < 1 || upto > t.max_length then
    invalid_arg "Sample.power_law_draw: upto out of range";
  let prefix = t.prefix in
  let target = Rng.float rng *. prefix.(upto - 1) in
  let j = min (Array.length t.guide - 1) (int_of_float (target *. t.guide_scale)) in
  let i = ref (min (upto - 1) t.guide.(j)) in
  while !i > 0 && prefix.(!i - 1) > target do
    decr i
  done;
  while !i < upto - 1 && prefix.(!i) <= target do
    incr i
  done;
  !i + 1

let power_law_max_length t = t.max_length
