(* ftr-lint: disable-file R2 test assertions compare small concrete values *)
module Splitmix64 = Ftr_prng.Splitmix64
module Xoshiro = Ftr_prng.Xoshiro
module Rng = Ftr_prng.Rng
module Sample = Ftr_prng.Sample

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* SplitMix64                                                          *)
(* ------------------------------------------------------------------ *)

(* Published reference outputs for seed 0 (Steele/Lea/Flood; also used as
   the test vector set of the xoshiro distribution). *)
let splitmix_seed0_vectors () =
  let sm = Splitmix64.create 0L in
  List.iter
    (fun expected ->
      Alcotest.(check int64) "seed-0 stream" expected (Splitmix64.next_int64 sm))
    [ 0xE220A8397B1DCDAFL; 0x6E789E6AA1B965F4L; 0x06C45D188009454FL; 0xF88BB8A8724C81ECL ]

let splitmix_determinism () =
  let a = Splitmix64.of_int 99 and b = Splitmix64.of_int 99 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same seed same stream" (Splitmix64.next_int64 a)
      (Splitmix64.next_int64 b)
  done

let splitmix_copy_independent () =
  let a = Splitmix64.of_int 5 in
  ignore (Splitmix64.next_int64 a);
  let b = Splitmix64.copy a in
  let va = Splitmix64.next_int64 a in
  let vb = Splitmix64.next_int64 b in
  Alcotest.(check int64) "copy continues identically" va vb;
  ignore (Splitmix64.next_int64 a);
  Alcotest.(check bool) "states advanced separately" true
    (Splitmix64.state a <> Splitmix64.state b)

let splitmix_distinct_seeds () =
  let a = Splitmix64.of_int 1 and b = Splitmix64.of_int 2 in
  Alcotest.(check bool) "different seeds differ" true
    (Splitmix64.next_int64 a <> Splitmix64.next_int64 b)

(* ------------------------------------------------------------------ *)
(* xoshiro256**                                                        *)
(* ------------------------------------------------------------------ *)

let xoshiro_rejects_zero_state () =
  Alcotest.check_raises "all-zero state" (Invalid_argument "Xoshiro.of_state: all-zero state")
    (fun () -> ignore (Xoshiro.of_state 0L 0L 0L 0L))

let xoshiro_determinism () =
  let a = Xoshiro.of_int 7 and b = Xoshiro.of_int 7 in
  for _ = 1 to 1000 do
    Alcotest.(check int64) "same stream" (Xoshiro.next_int64 a) (Xoshiro.next_int64 b)
  done

let xoshiro_split_decorrelates () =
  let parent = Xoshiro.of_int 7 in
  let child = Xoshiro.split parent in
  let matches = ref 0 in
  for _ = 1 to 64 do
    if Xoshiro.next_int64 parent = Xoshiro.next_int64 child then incr matches
  done;
  Alcotest.(check int) "no matching outputs in 64 draws" 0 !matches

let xoshiro_copy () =
  let a = Xoshiro.of_int 3 in
  ignore (Xoshiro.next_int64 a);
  let b = Xoshiro.copy a in
  Alcotest.(check int64) "copy replays" (Xoshiro.next_int64 a) (Xoshiro.next_int64 b)

(* xoshiro256** from the raw state (1, 2, 3, 4): the first two outputs
   follow by hand (s1 = 2: rotl(10, 7) * 9 = 11520; then s1 = 0), the rest
   pin the stream against any change to the state layout or the step. *)
let xoshiro_state_vectors () =
  let x = Xoshiro.of_state 1L 2L 3L 4L in
  List.iter
    (fun expected -> Alcotest.(check int64) "of_state 1 2 3 4" expected (Xoshiro.next_int64 x))
    [
      11520L;
      0L;
      1509978240L;
      1215971899390074240L;
      1216172134540287360L;
      607988272756665600L;
      -2273821095074991991L;
      8476171486693032832L;
    ]

let xoshiro_next_bits_is_top_62 () =
  let a = Xoshiro.of_int 21 and b = Xoshiro.of_int 21 in
  for _ = 1 to 1000 do
    Alcotest.(check int) "next_bits = next_int64 >>> 2"
      (Int64.to_int (Int64.shift_right_logical (Xoshiro.next_int64 a) 2))
      (Xoshiro.next_bits b)
  done

(* ------------------------------------------------------------------ *)
(* Rng helpers                                                         *)
(* ------------------------------------------------------------------ *)

(* The first outputs of [Rng.of_int 42], pinned so that a rewrite of the
   generator or of the float/int reductions cannot move any stream. *)
let rng_float_stream () =
  let rng = Rng.of_int 42 in
  List.iter
    (fun expected -> Alcotest.(check (float 0.0)) "Rng.float stream" expected (Rng.float rng))
    [
      0x1.5780b2e0c2ecp-4;
      0x1.84136619b444ep-2;
      0x1.5c2ea66473c93p-1;
      0x1.d9715a8e0766cp-1;
      0x1.fbcdb8ffc5d8bp-1;
      0x1.8a1b4a6202f2ap-1;
      0x1.7042a90ab4cbbp-1;
      0x1.b3344e87d7ccp-1;
      0x1.85d2dce4dd2ecp-1;
      0x1.2aacc2beeebf7p-1;
      0x1.5d6a766818207p-1;
      0x1.29a76e61cebe2p-2;
      0x1.9a1fdb52600d8p-1;
      0x1.4920219692d08p-2;
      0x1.6c1bd877e5b1p-1;
      0x1.c16ab4d172ccep-1;
    ]

let rng_int_stream () =
  let check bound expected =
    let rng = Rng.of_int 42 in
    Alcotest.(check (list int))
      (Printf.sprintf "Rng.int %d stream" bound)
      expected
      (List.init 16 (fun _ -> Rng.int rng bound))
  in
  check 1000 [ 685; 775; 752; 48; 369; 646; 188; 601; 239; 271; 412; 473; 277; 760; 323; 342 ];
  check 1024 [ 453; 671; 616; 40; 921; 142; 876; 33; 287; 783; 604; 601; 429; 464; 499; 510 ]

let rng_int_bounds () =
  let rng = Rng.of_int 11 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 7 in
    Alcotest.(check bool) "in [0,7)" true (v >= 0 && v < 7)
  done

let rng_int_rejects_nonpositive () =
  let rng = Rng.of_int 1 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int rng 0))

let rng_int_uniformity () =
  (* Chi-square against uniform over 8 cells; threshold is the 99.9%
     quantile of chi2 with 7 dof (24.3) with margin. *)
  let rng = Rng.of_int 5 in
  let cells = Array.make 8 0 in
  let trials = 80_000 in
  for _ = 1 to trials do
    let v = Rng.int rng 8 in
    cells.(v) <- cells.(v) + 1
  done;
  let expected = Array.make 8 (float_of_int trials /. 8.0) in
  let chi2 = Ftr_stats.Gof.chi_square ~observed:cells ~expected in
  Alcotest.(check bool) (Printf.sprintf "chi2 %.1f < 30" chi2) true (chi2 < 30.0)

let rng_int_power_of_two_path () =
  let rng = Rng.of_int 6 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 16 in
    Alcotest.(check bool) "in [0,16)" true (v >= 0 && v < 16)
  done

let rng_int_in_range () =
  let rng = Rng.of_int 2 in
  for _ = 1 to 1000 do
    let v = Rng.int_in_range rng ~lo:(-5) ~hi:5 in
    Alcotest.(check bool) "in [-5,5]" true (v >= -5 && v <= 5)
  done;
  Alcotest.(check int) "degenerate range" 3 (Rng.int_in_range rng ~lo:3 ~hi:3)

let rng_float_range () =
  let rng = Rng.of_int 13 in
  for _ = 1 to 10_000 do
    let v = Rng.float rng in
    Alcotest.(check bool) "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let rng_float_mean () =
  let rng = Rng.of_int 17 in
  let s = Ftr_stats.Summary.create () in
  for _ = 1 to 50_000 do
    Ftr_stats.Summary.add s (Rng.float rng)
  done;
  Alcotest.(check bool) "mean near 0.5" true (abs_float (Ftr_stats.Summary.mean s -. 0.5) < 0.01)

let rng_bernoulli_edges () =
  let rng = Rng.of_int 19 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=0 never" false (Rng.bernoulli rng 0.0);
    Alcotest.(check bool) "p=1 always" true (Rng.bernoulli rng 1.0)
  done

let rng_bernoulli_rate () =
  let rng = Rng.of_int 23 in
  let hits = ref 0 in
  let trials = 50_000 in
  for _ = 1 to trials do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int trials in
  Alcotest.(check bool) "rate near 0.3" true (abs_float (rate -. 0.3) < 0.01)

let rng_pick () =
  let rng = Rng.of_int 29 in
  let arr = [| 10; 20; 30 |] in
  for _ = 1 to 100 do
    Alcotest.(check bool) "picked element" true (Array.mem (Rng.pick rng arr) arr)
  done;
  Alcotest.check_raises "empty" (Invalid_argument "Rng.pick: empty array") (fun () ->
      ignore (Rng.pick rng [||]))

let rng_permutation_valid () =
  let rng = Rng.of_int 31 in
  let p = Rng.permutation rng 100 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 100 (fun i -> i)) sorted

let rng_permutation_uniform_small () =
  (* All 6 permutations of 3 elements appear with roughly equal rates. *)
  let rng = Rng.of_int 37 in
  let counts = Hashtbl.create 6 in
  let trials = 12_000 in
  for _ = 1 to trials do
    let p = Rng.permutation rng 3 in
    let key = (p.(0) * 100) + (p.(1) * 10) + p.(2) in
    Hashtbl.replace counts key (1 + Option.value ~default:0 (Hashtbl.find_opt counts key))
  done;
  Alcotest.(check int) "six permutations" 6 (Hashtbl.length counts);
  Hashtbl.iter
    (fun _ c ->
      Alcotest.(check bool) "each near trials/6" true
        (abs (c - (trials / 6)) < trials / 12))
    counts

let rng_float_range_bounds () =
  let rng = Rng.of_int 44 in
  for _ = 1 to 1000 do
    let v = Rng.float_range rng ~lo:(-2.5) ~hi:7.5 in
    Alcotest.(check bool) "in range" true (v >= -2.5 && v < 7.5)
  done

let rng_copy_replays () =
  let a = Rng.of_int 45 in
  ignore (Rng.int a 100);
  let b = Rng.copy a in
  for _ = 1 to 50 do
    Alcotest.(check int) "copy replays" (Rng.int a 1000) (Rng.int b 1000)
  done

let cdf_probability_bounds () =
  let cdf = Sample.cdf_of_weights [| 1.0; 1.0 |] in
  Alcotest.check_raises "out of range"
    (Invalid_argument "Sample.cdf_probability: index out of range") (fun () ->
      ignore (Sample.cdf_probability cdf 2))

let alias_with_zero_weights () =
  (* Zero-weight categories must never be drawn. *)
  let alias = Sample.alias_of_weights [| 0.0; 5.0; 0.0; 5.0 |] in
  let rng = Rng.of_int 46 in
  for _ = 1 to 2000 do
    let i = Sample.alias_draw alias rng in
    Alcotest.(check bool) "only positive cells" true (i = 1 || i = 3)
  done

let rng_split_streams_differ () =
  let parent = Rng.of_int 41 in
  let child = Rng.split parent in
  let equal = ref 0 in
  for _ = 1 to 100 do
    if Rng.int parent 1_000_000 = Rng.int child 1_000_000 then incr equal
  done;
  Alcotest.(check bool) "at most coincidences" true (!equal <= 2)

(* ------------------------------------------------------------------ *)
(* Samplers                                                            *)
(* ------------------------------------------------------------------ *)

let cdf_respects_weights () =
  let cdf = Sample.cdf_of_weights [| 1.0; 3.0; 6.0 |] in
  check_float "p0" 0.1 (Sample.cdf_probability cdf 0);
  check_float "p1" 0.3 (Sample.cdf_probability cdf 1);
  check_float "p2" 0.6 (Sample.cdf_probability cdf 2);
  Alcotest.(check int) "size" 3 (Sample.cdf_size cdf)

let cdf_draw_frequencies () =
  let cdf = Sample.cdf_of_weights [| 1.0; 3.0; 6.0 |] in
  let rng = Rng.of_int 43 in
  let counts = Array.make 3 0 in
  let trials = 60_000 in
  for _ = 1 to trials do
    let i = Sample.cdf_draw cdf rng in
    counts.(i) <- counts.(i) + 1
  done;
  List.iteri
    (fun i p ->
      let rate = float_of_int counts.(i) /. float_of_int trials in
      Alcotest.(check bool) (Printf.sprintf "cell %d" i) true (abs_float (rate -. p) < 0.01))
    [ 0.1; 0.3; 0.6 ]

let cdf_rejects_bad_weights () =
  Alcotest.check_raises "empty" (Invalid_argument "Sample.cdf_of_weights: empty weights")
    (fun () -> ignore (Sample.cdf_of_weights [||]));
  Alcotest.check_raises "zero total"
    (Invalid_argument "Sample.cdf_of_weights: zero total weight") (fun () ->
      ignore (Sample.cdf_of_weights [| 0.0; 0.0 |]));
  Alcotest.check_raises "negative"
    (Invalid_argument "Sample.cdf_of_weights: negative or NaN weight") (fun () ->
      ignore (Sample.cdf_of_weights [| 1.0; -1.0 |]))

let alias_matches_cdf () =
  let weights = [| 0.5; 2.5; 4.0; 1.0; 2.0 |] in
  let alias = Sample.alias_of_weights weights in
  let rng = Rng.of_int 47 in
  let counts = Array.make 5 0 in
  let trials = 100_000 in
  for _ = 1 to trials do
    let i = Sample.alias_draw alias rng in
    counts.(i) <- counts.(i) + 1
  done;
  let total = Array.fold_left ( +. ) 0.0 weights in
  Array.iteri
    (fun i w ->
      let rate = float_of_int counts.(i) /. float_of_int trials in
      Alcotest.(check bool) (Printf.sprintf "alias cell %d" i) true
        (abs_float (rate -. (w /. total)) < 0.01))
    weights

let alias_single_category () =
  let alias = Sample.alias_of_weights [| 42.0 |] in
  let rng = Rng.of_int 53 in
  for _ = 1 to 100 do
    Alcotest.(check int) "only index" 0 (Sample.alias_draw alias rng)
  done

let exponential_mean () =
  let rng = Rng.of_int 59 in
  let s = Ftr_stats.Summary.create () in
  for _ = 1 to 50_000 do
    Ftr_stats.Summary.add s (Sample.exponential rng ~rate:2.0)
  done;
  Alcotest.(check bool) "mean near 1/rate" true
    (abs_float (Ftr_stats.Summary.mean s -. 0.5) < 0.02)

let exponential_positive () =
  let rng = Rng.of_int 61 in
  for _ = 1 to 1000 do
    Alcotest.(check bool) "positive" true (Sample.exponential rng ~rate:0.5 >= 0.0)
  done

let geometric_mean () =
  let rng = Rng.of_int 67 in
  let s = Ftr_stats.Summary.create () in
  for _ = 1 to 50_000 do
    Ftr_stats.Summary.add_int s (Sample.geometric rng ~p:0.25)
  done;
  Alcotest.(check bool) "mean near 1/p" true (abs_float (Ftr_stats.Summary.mean s -. 4.0) < 0.1)

let geometric_p1 () =
  let rng = Rng.of_int 71 in
  for _ = 1 to 100 do
    Alcotest.(check int) "p=1 is always 1" 1 (Sample.geometric rng ~p:1.0)
  done

let poisson_moments lambda seed =
  let rng = Rng.of_int seed in
  let s = Ftr_stats.Summary.create () in
  for _ = 1 to 50_000 do
    Ftr_stats.Summary.add_int s (Sample.poisson rng ~lambda)
  done;
  let tolerance = 4.0 *. sqrt lambda /. sqrt 50_000.0 +. 0.02 in
  Alcotest.(check bool)
    (Printf.sprintf "mean near %.1f" lambda)
    true
    (abs_float (Ftr_stats.Summary.mean s -. lambda) < tolerance);
  Alcotest.(check bool)
    (Printf.sprintf "variance near %.1f" lambda)
    true
    (abs_float (Ftr_stats.Summary.variance s -. lambda) < (0.1 *. lambda) +. 0.05)

let poisson_small () = poisson_moments 3.0 73

let poisson_moderate () = poisson_moments 14.0 79

let poisson_large () = poisson_moments 60.0 83

let poisson_zero () =
  let rng = Rng.of_int 89 in
  for _ = 1 to 100 do
    Alcotest.(check int) "lambda 0" 0 (Sample.poisson rng ~lambda:0.0)
  done

let binomial_moments () =
  let rng = Rng.of_int 97 in
  let s = Ftr_stats.Summary.create () in
  for _ = 1 to 30_000 do
    Ftr_stats.Summary.add_int s (Sample.binomial rng ~n:20 ~p:0.3)
  done;
  Alcotest.(check bool) "mean near np" true (abs_float (Ftr_stats.Summary.mean s -. 6.0) < 0.1);
  Alcotest.(check bool) "var near np(1-p)" true
    (abs_float (Ftr_stats.Summary.variance s -. 4.2) < 0.2)

let binomial_edges () =
  let rng = Rng.of_int 101 in
  Alcotest.(check int) "n=0" 0 (Sample.binomial rng ~n:0 ~p:0.5);
  Alcotest.(check int) "p=0" 0 (Sample.binomial rng ~n:50 ~p:0.0);
  Alcotest.(check int) "p=1" 50 (Sample.binomial rng ~n:50 ~p:1.0)

let power_law_range () =
  let pl = Sample.power_law ~exponent:1.0 ~max_length:1000 in
  let rng = Rng.of_int 103 in
  for _ = 1 to 10_000 do
    let d = Sample.power_law_draw pl rng ~upto:1000 in
    Alcotest.(check bool) "in [1,1000]" true (d >= 1 && d <= 1000)
  done;
  for _ = 1 to 1000 do
    let d = Sample.power_law_draw pl rng ~upto:10 in
    Alcotest.(check bool) "restricted upto" true (d >= 1 && d <= 10)
  done

let power_law_harmonic_frequencies () =
  (* With exponent 1, Pr[d] = (1/d)/H_m: check the head of the pmf. *)
  let m = 64 in
  let pl = Sample.power_law ~exponent:1.0 ~max_length:m in
  let rng = Rng.of_int 107 in
  let counts = Array.make (m + 1) 0 in
  let trials = 200_000 in
  for _ = 1 to trials do
    let d = Sample.power_law_draw pl rng ~upto:m in
    counts.(d) <- counts.(d) + 1
  done;
  let h = Ftr_stats.Harmonic.number m in
  List.iter
    (fun d ->
      let expected = 1.0 /. (float_of_int d *. h) in
      let rate = float_of_int counts.(d) /. float_of_int trials in
      Alcotest.(check bool) (Printf.sprintf "d=%d" d) true (abs_float (rate -. expected) < 0.005))
    [ 1; 2; 3; 4; 8; 16 ]

let power_law_total_matches_harmonic () =
  let pl = Sample.power_law ~exponent:1.0 ~max_length:500 in
  check_float "total = H_500" (Ftr_stats.Harmonic.number 500) (Sample.power_law_total pl ~upto:500);
  check_float "partial = H_10" (Ftr_stats.Harmonic.number 10) (Sample.power_law_total pl ~upto:10);
  check_float "upto 0" 0.0 (Sample.power_law_total pl ~upto:0)

let power_law_exponent2 () =
  (* Exponent 2 concentrates mass at short lengths much more strongly. *)
  let m = 128 in
  let pl = Sample.power_law ~exponent:2.0 ~max_length:m in
  let rng = Rng.of_int 109 in
  let short = ref 0 in
  let trials = 20_000 in
  for _ = 1 to trials do
    if Sample.power_law_draw pl rng ~upto:m <= 2 then incr short
  done;
  (* Pr[d<=2] = (1 + 1/4)/sum ~ 0.777 for m=128 (sum ~ pi^2/6). *)
  let rate = float_of_int !short /. float_of_int trials in
  Alcotest.(check bool) "short fraction near 0.78" true (abs_float (rate -. 0.777) < 0.02)

(* ------------------------------------------------------------------ *)
(* Allocation budgets                                                  *)
(* ------------------------------------------------------------------ *)

(* Mean minor words per call over [calls] calls, after a warmup. *)
let words_per_call ?(calls = 100_000) f =
  for _ = 1 to 1000 do
    f ()
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to calls do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int calls

let check_budget name ~words per_call =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.3f minor words per call (budget %d)" name per_call words)
    true
    (per_call < float_of_int words +. 0.01)

let alloc_rng_draws () =
  let rng = Rng.of_int 3 in
  let sink = ref 0 in
  check_budget "Rng.bits" ~words:0 (words_per_call (fun () -> sink := !sink lxor Rng.bits rng));
  check_budget "Rng.int 1000" ~words:0
    (words_per_call (fun () -> sink := !sink + Rng.int rng 1000));
  check_budget "Rng.int 1024" ~words:0
    (words_per_call (fun () -> sink := !sink + Rng.int rng 1024));
  (* The boxed float result is the only allocation. *)
  check_budget "Rng.float" ~words:2
    (words_per_call (fun () -> if Rng.float rng < 0.5 then incr sink));
  ignore (Sys.opaque_identity !sink)

let alloc_power_law_draw () =
  let pl = Sample.power_law ~exponent:1.0 ~max_length:16383 in
  let rng = Rng.of_int 4 in
  let sink = ref 0 in
  check_budget "power_law_draw" ~words:2
    (words_per_call (fun () -> sink := !sink + Sample.power_law_draw pl rng ~upto:9000));
  ignore (Sys.opaque_identity !sink)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_int_in_bound =
  QCheck.Test.make ~name:"Rng.int stays in bound" ~count:500
    QCheck.(pair small_int (int_range 1 10_000))
    (fun (seed, bound) ->
      let rng = Rng.of_int seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let prop_permutation =
  QCheck.Test.make ~name:"Rng.permutation is a permutation" ~count:200
    QCheck.(pair small_int (int_range 1 200))
    (fun (seed, n) ->
      let p = Rng.permutation (Rng.of_int seed) n in
      let sorted = Array.copy p in
      Array.sort compare sorted;
      sorted = Array.init n (fun i -> i))

let prop_power_law_in_range =
  QCheck.Test.make ~name:"power_law_draw within upto" ~count:300
    QCheck.(pair small_int (int_range 1 512))
    (fun (seed, upto) ->
      let pl = Sample.power_law ~exponent:1.0 ~max_length:512 in
      let d = Sample.power_law_draw pl (Rng.of_int seed) ~upto in
      d >= 1 && d <= upto)

(* The reference sampler: inverse CDF by bisection over the normalising
   constants, the first d in [1, upto) whose prefix mass exceeds the target,
   else upto. [power_law_draw] must agree on every draw, since the network
   builders' streams depend on it. *)
let bisect_power_law pl rng ~upto =
  let target = Rng.float rng *. Sample.power_law_total pl ~upto in
  let rec search lo hi =
    if lo >= hi then lo + 1
    else
      let mid = (lo + hi) / 2 in
      if Sample.power_law_total pl ~upto:(mid + 1) > target then search lo mid
      else search (mid + 1) hi
  in
  search 0 (upto - 1)

let prop_power_law_matches_bisection =
  QCheck.Test.make ~name:"power_law_draw equals bisection" ~count:300
    QCheck.(
      quad small_int (oneofl [ 0.5; 1.0; 2.0; 3.0 ]) (int_range 1 5000)
        (oneof [ always `One; always `Max; map (fun f -> `Frac f) (float_range 0.0 1.0) ]))
    (fun (seed, exponent, max_length, upto) ->
      let pl = Sample.power_law ~exponent ~max_length in
      let upto =
        match upto with
        | `One -> 1
        | `Max -> max_length
        | `Frac f -> max 1 (min max_length (int_of_float (f *. float_of_int max_length)))
      in
      let rng = Rng.of_int seed in
      List.for_all
        (fun _ ->
          let reference = bisect_power_law pl (Rng.copy rng) ~upto in
          Sample.power_law_draw pl rng ~upto = reference)
        (List.init 200 Fun.id))

let prop_cdf_draw_in_range =
  QCheck.Test.make ~name:"cdf_draw returns a valid index" ~count:300
    QCheck.(pair small_int (list_of_size (Gen.int_range 1 20) (float_range 0.01 5.0)))
    (fun (seed, weights) ->
      let weights = Array.of_list weights in
      let cdf = Sample.cdf_of_weights weights in
      let i = Sample.cdf_draw cdf (Rng.of_int seed) in
      i >= 0 && i < Array.length weights)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "prng"
    [
      ( "splitmix64",
        [
          quick "seed-0 published vectors" splitmix_seed0_vectors;
          quick "determinism" splitmix_determinism;
          quick "copy is independent" splitmix_copy_independent;
          quick "distinct seeds" splitmix_distinct_seeds;
        ] );
      ( "xoshiro",
        [
          quick "rejects all-zero state" xoshiro_rejects_zero_state;
          quick "determinism" xoshiro_determinism;
          quick "split decorrelates" xoshiro_split_decorrelates;
          quick "copy replays" xoshiro_copy;
          quick "of_state 1 2 3 4 vectors" xoshiro_state_vectors;
          quick "next_bits is the top 62 bits" xoshiro_next_bits_is_top_62;
        ] );
      ( "rng",
        [
          quick "int bounds" rng_int_bounds;
          quick "int rejects non-positive bound" rng_int_rejects_nonpositive;
          quick "int uniformity (chi-square)" rng_int_uniformity;
          quick "int power-of-two fast path" rng_int_power_of_two_path;
          quick "int_in_range" rng_int_in_range;
          quick "float in [0,1)" rng_float_range;
          quick "float mean" rng_float_mean;
          quick "bernoulli edges" rng_bernoulli_edges;
          quick "bernoulli rate" rng_bernoulli_rate;
          quick "pick" rng_pick;
          quick "permutation valid" rng_permutation_valid;
          quick "permutation uniform (n=3)" rng_permutation_uniform_small;
          quick "split streams differ" rng_split_streams_differ;
          quick "float_range bounds" rng_float_range_bounds;
          quick "copy replays" rng_copy_replays;
          quick "float stream pinned" rng_float_stream;
          quick "int stream pinned" rng_int_stream;
        ] );
      ( "samplers",
        [
          quick "cdf probabilities" cdf_respects_weights;
          quick "cdf draw frequencies" cdf_draw_frequencies;
          quick "cdf rejects bad weights" cdf_rejects_bad_weights;
          quick "cdf probability bounds" cdf_probability_bounds;
          quick "alias never draws zero-weight cells" alias_with_zero_weights;
          quick "alias frequencies" alias_matches_cdf;
          quick "alias single category" alias_single_category;
          quick "exponential mean" exponential_mean;
          quick "exponential positive" exponential_positive;
          quick "geometric mean" geometric_mean;
          quick "geometric p=1" geometric_p1;
          quick "poisson lambda=3" poisson_small;
          quick "poisson lambda=14" poisson_moderate;
          quick "poisson lambda=60 (split path)" poisson_large;
          quick "poisson lambda=0" poisson_zero;
          quick "binomial moments" binomial_moments;
          quick "binomial edges" binomial_edges;
          quick "power-law range" power_law_range;
          quick "power-law harmonic frequencies" power_law_harmonic_frequencies;
          quick "power-law totals are harmonic numbers" power_law_total_matches_harmonic;
          quick "power-law exponent 2" power_law_exponent2;
        ] );
      ( "allocation",
        [
          quick "rng draws within budget" alloc_rng_draws;
          quick "power-law draw within budget" alloc_power_law_draw;
        ] );
      ( "properties",
        List.map (fun p -> QCheck_alcotest.to_alcotest p)
          [
            prop_int_in_bound;
            prop_permutation;
            prop_power_law_in_range;
            prop_power_law_matches_bisection;
            prop_cdf_draw_in_range;
          ]
      );
    ]
