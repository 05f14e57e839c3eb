module Network = Ftr_core.Network
module Heuristic = Ftr_core.Heuristic
module Route = Ftr_core.Route
module Gof = Ftr_stats.Gof
module Rng = Ftr_prng.Rng

let build ?(n = 1024) ?(links = 8) ?replacement ?arrival seed =
  Heuristic.build ?replacement ?arrival ~n ~links (Rng.of_int seed)

(* ------------------------------------------------------------------ *)
(* Structure                                                           *)
(* ------------------------------------------------------------------ *)

let constructed_network_shape () =
  let n = 512 and links = 6 in
  let net = build ~n ~links 1 in
  Alcotest.(check int) "size" n (Network.size net);
  Alcotest.(check bool) "full" true (Network.is_full net);
  for u = 0 to n - 1 do
    let expected = links + (if u = 0 || u = n - 1 then 1 else 2) in
    Alcotest.(check int) "degree" expected (Array.length (Network.neighbors net u))
  done

let constructed_network_no_self_loops () =
  let net = build 2 in
  for u = 0 to Network.size net - 1 do
    Array.iter
      (fun v -> Alcotest.(check bool) "no self loop" true (v <> u))
      (Network.neighbors net u)
  done

let constructed_network_connected () =
  let net = build ~n:256 ~links:4 3 in
  Alcotest.(check bool) "strongly connected" true
    (Ftr_graph.Bfs.is_strongly_connected (Network.to_adjacency net))

let constructed_network_routable () =
  let n = 1024 in
  let net = build ~n 4 in
  let r = Rng.of_int 99 in
  for _ = 1 to 200 do
    let src = Rng.int r n and dst = Rng.int r n in
    Alcotest.(check bool) "delivers" true (Route.delivered (Route.route net ~src ~dst))
  done

let deterministic_by_seed () =
  let a = build ~n:128 ~links:3 7 and b = build ~n:128 ~links:3 7 in
  for u = 0 to 127 do
    Alcotest.(check (array int)) "same construction" (Network.neighbors a u)
      (Network.neighbors b u)
  done

let rejects_bad_parameters () =
  Alcotest.check_raises "n too small"
    (Invalid_argument "Heuristic.build: need at least two nodes") (fun () ->
      ignore (build ~n:1 8));
  Alcotest.check_raises "no links"
    (Invalid_argument "Heuristic.build: need at least one long link") (fun () ->
      ignore (build ~links:0 8))

(* ------------------------------------------------------------------ *)
(* Distribution quality (Figure 5)                                     *)
(* ------------------------------------------------------------------ *)

let averaged_distribution n links networks seed =
  let sum = Array.make n 0.0 in
  for i = 0 to networks - 1 do
    let pmf = Heuristic.length_distribution (build ~n ~links (seed + i)) in
    Array.iteri (fun d p -> sum.(d) <- sum.(d) +. p) pmf
  done;
  Array.map (fun s -> s /. float_of_int networks) sum

let derived_tracks_ideal () =
  let n = 2048 and links = 11 in
  let derived = averaged_distribution n links 3 10 in
  let ideal = Heuristic.ideal_distribution ~n () in
  let err, at = Gof.max_abs_error ~empirical:derived ~model:ideal in
  (* The paper reports a maximum absolute error of about 0.022 (at length
     2) at n = 2^14; allow headroom for the smaller test size. *)
  Alcotest.(check bool) (Printf.sprintf "max error %.4f at %d" err at) true (err < 0.05);
  Alcotest.(check bool) "worst error at a short length" true (at <= 4)

let derived_distribution_is_pmf () =
  let pmf = Heuristic.length_distribution (build ~n:512 ~links:6 20) in
  let total = Array.fold_left ( +. ) 0.0 pmf in
  Alcotest.(check (float 1e-9)) "sums to one" 1.0 total;
  Array.iter (fun p -> Alcotest.(check bool) "non-negative" true (p >= 0.0)) pmf

let ideal_distribution_is_pmf () =
  let pmf = Heuristic.ideal_distribution ~n:512 () in
  let total = Array.fold_left ( +. ) 0.0 pmf in
  Alcotest.(check (float 1e-9)) "sums to one" 1.0 total;
  Alcotest.(check (float 1e-12)) "index 0 unused" 0.0 pmf.(0);
  (* Strictly decreasing in d for exponent 1. *)
  for d = 2 to 511 do
    Alcotest.(check bool) "decreasing" true (pmf.(d) < pmf.(d - 1))
  done

let ideal_distribution_harmonic_head () =
  let n = 1000 in
  let pmf = Heuristic.ideal_distribution ~n () in
  let h = Ftr_stats.Harmonic.number (n - 1) in
  Alcotest.(check (float 1e-9)) "d=1" (1.0 /. h) pmf.(1);
  Alcotest.(check (float 1e-9)) "d=10" (1.0 /. (10.0 *. h)) pmf.(10)

let oldest_strategy_also_tracks () =
  let n = 2048 and links = 11 in
  let sum = Array.make n 0.0 in
  for i = 0 to 2 do
    let pmf =
      Heuristic.length_distribution (build ~replacement:Heuristic.Oldest ~n ~links (30 + i))
    in
    Array.iteri (fun d p -> sum.(d) <- sum.(d) +. p) pmf
  done;
  let derived = Array.map (fun s -> s /. 3.0) sum in
  let ideal = Heuristic.ideal_distribution ~n () in
  let err, _ = Gof.max_abs_error ~empirical:derived ~model:ideal in
  (* Paper: "almost as good" as the proportional strategy. *)
  Alcotest.(check bool) (Printf.sprintf "oldest max error %.4f" err) true (err < 0.07)

let sequential_arrival_works () =
  let net = build ~arrival:Heuristic.Sequential ~n:512 ~links:6 40 in
  Alcotest.(check int) "size" 512 (Network.size net);
  let r = Rng.of_int 41 in
  for _ = 1 to 100 do
    let src = Rng.int r 512 and dst = Rng.int r 512 in
    Alcotest.(check bool) "routable" true (Route.delivered (Route.route net ~src ~dst))
  done

let total_variation_reasonable () =
  let n = 2048 and links = 11 in
  let derived = averaged_distribution n links 3 50 in
  let ideal = Heuristic.ideal_distribution ~n () in
  let tv = Gof.total_variation ~empirical:derived ~model:ideal in
  Alcotest.(check bool) (Printf.sprintf "tv %.4f" tv) true (tv < 0.25)

let exponent_two_heuristic_skews_short () =
  (* The construction generalises to other exponents; with exponent 2 the
     short lengths dominate far more heavily. *)
  let n = 1024 and links = 8 in
  let steep = Heuristic.build ~exponent:2.0 ~n ~links (Rng.of_int 70) in
  let flat = Heuristic.build ~exponent:1.0 ~n ~links (Rng.of_int 71) in
  let short_mass net =
    let pmf = Heuristic.length_distribution net in
    pmf.(1) +. pmf.(2) +. pmf.(3) +. pmf.(4)
  in
  let s = short_mass steep and f = short_mass flat in
  Alcotest.(check bool) (Printf.sprintf "exponent 2 head %.2f > exponent 1 head %.2f" s f) true
    (s > f +. 0.1)

let constructed_routes_about_as_fast_as_ideal () =
  let n = 4096 and links = 12 in
  let ideal_net = Network.build_ideal ~n ~links (Rng.of_int 60) in
  let constructed = build ~n ~links 61 in
  let mean net =
    let r = Rng.of_int 62 in
    let total = ref 0 in
    for _ = 1 to 300 do
      let src = Rng.int r n and dst = Rng.int r n in
      total := !total + Route.hops (Route.route net ~src ~dst)
    done;
    float_of_int !total /. 300.0
  in
  let mi = mean ideal_net and mc = mean constructed in
  Alcotest.(check bool)
    (Printf.sprintf "constructed %.2f within 2x of ideal %.2f" mc mi)
    true (mc < 2.0 *. mi)

(* ------------------------------------------------------------------ *)
(* Repair (Section 5 regeneration)                                     *)
(* ------------------------------------------------------------------ *)

let repair_restores_full_delivery () =
  (* Before repair, terminate-strategy searches fail under node failures;
     after repair, the survivors form a complete random graph again and
     every search succeeds. *)
  let n = 4096 and links = 12 in
  let net = Network.build_ideal ~n ~links (Rng.of_int 80) in
  let mask = Ftr_core.Failure.random_node_fraction (Rng.of_int 81) ~n ~fraction:0.4 in
  let alive = Ftr_graph.Bitset.get mask in
  let failures = Ftr_core.Failure.of_node_mask mask in
  let r = Rng.of_int 82 in
  let before_failed = ref 0 in
  for _ = 1 to 200 do
    let live () =
      let rec go () =
        let v = Rng.int r n in
        if alive v then v else go ()
      in
      go ()
    in
    let src = live () and dst = live () in
    if not (Route.delivered (Route.route ~failures net ~src ~dst)) then incr before_failed
  done;
  Alcotest.(check bool)
    (Printf.sprintf "failures before repair (%d/200)" !before_failed)
    true (!before_failed > 40);
  let repaired = Heuristic.repair ~alive net (Rng.of_int 83) in
  let m = Network.size repaired in
  Alcotest.(check int) "survivor count" (Ftr_graph.Bitset.count mask) m;
  for _ = 1 to 200 do
    let src = Rng.int r m and dst = Rng.int r m in
    Alcotest.(check bool) "all delivered after repair" true
      (Route.delivered (Route.route repaired ~src ~dst))
  done

let repair_keeps_surviving_links () =
  let n = 256 in
  let net = Network.build_ideal ~n ~links:4 (Rng.of_int 84) in
  (* Kill only one node. *)
  let victim = 100 in
  let alive v = v <> victim in
  let repaired = Heuristic.repair ~alive net (Rng.of_int 85) in
  Alcotest.(check int) "one fewer node" (n - 1) (Network.size repaired);
  (* Positions of survivors preserved. *)
  for i = 0 to Network.size repaired - 1 do
    Alcotest.(check bool) "victim gone" true (Network.position repaired i <> victim)
  done;
  (* Degree restored: every node has its full complement of links. *)
  for i = 0 to Network.size repaired - 1 do
    let expected = 4 + (if i = 0 || i = Network.size repaired - 1 then 1 else 2) in
    Alcotest.(check int) "degree" expected (Array.length (Network.neighbors repaired i))
  done

let repair_rejects_extinction () =
  let net = Network.build_ideal ~n:16 ~links:1 (Rng.of_int 86) in
  Alcotest.check_raises "everyone dead"
    (Invalid_argument "Heuristic.repair: fewer than two survivors") (fun () ->
      ignore (Heuristic.repair ~alive:(fun v -> v = 3) net (Rng.of_int 87)))

(* ------------------------------------------------------------------ *)
(* Pinned output                                                       *)
(* ------------------------------------------------------------------ *)

let digest = Net_digest.of_network

(* The statistical tests above would not notice a changed RNG draw order;
   these digests would. Each line: seed, then build (proportional), build
   (oldest) and repair of the proportional network. *)
let output_pinned () =
  List.iter
    (fun (seed, proportional, oldest, repaired) ->
      let net = Heuristic.build ~n:512 ~links:6 (Rng.of_int seed) in
      let label what = Printf.sprintf "%s at seed %d" what seed in
      Alcotest.(check string) (label "proportional build") proportional (digest net);
      Alcotest.(check string) (label "oldest build") oldest
        (digest (Heuristic.build ~replacement:Heuristic.Oldest ~n:512 ~links:6 (Rng.of_int seed)));
      Alcotest.(check string) (label "repair") repaired
        (digest (Heuristic.repair ~alive:(fun v -> v mod 3 <> 1) net (Rng.of_int (seed + 1)))))
    [
      ( 5,
        "4900a3690f8dcb44cdc0b2ff0fc8b557",
        "460c0f3ee6f3ad1e573edcda0eb88452",
        "2ab4f0932f7fe19a0b9d56528f690404" );
      ( 2002,
        "c200d4ba793b426b0397712a99273ae6",
        "6114ba564ede5130a37ae4fdfc2b1161",
        "1d425b92f9de2b8020bdff7a84670774" );
    ]

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_constructed_degrees =
  QCheck.Test.make ~name:"heuristic keeps exactly links long links" ~count:20
    QCheck.(pair (int_range 16 128) (int_range 1 6))
    (fun (n, links) ->
      let net = Heuristic.build ~n ~links (Rng.of_int (n * links)) in
      let ok = ref true in
      for u = 0 to n - 1 do
        let expected = links + (if u = 0 || u = n - 1 then 1 else 2) in
        if Array.length (Network.neighbors net u) <> expected then ok := false
      done;
      !ok)

let prop_constructed_connected =
  QCheck.Test.make ~name:"heuristic networks strongly connected" ~count:15
    QCheck.(pair (int_range 8 96) (int_range 1 4))
    (fun (n, links) ->
      let net = Heuristic.build ~n ~links (Rng.of_int (n + links)) in
      Ftr_graph.Bfs.is_strongly_connected (Network.to_adjacency net))

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "heuristic"
    [
      ( "structure",
        [
          quick "network shape" constructed_network_shape;
          quick "no self loops" constructed_network_no_self_loops;
          quick "connected" constructed_network_connected;
          quick "routable" constructed_network_routable;
          quick "deterministic by seed" deterministic_by_seed;
          quick "rejects bad parameters" rejects_bad_parameters;
        ] );
      ( "distribution",
        [
          quick "derived tracks ideal (fig 5a)" derived_tracks_ideal;
          quick "derived is a pmf" derived_distribution_is_pmf;
          quick "ideal is a pmf" ideal_distribution_is_pmf;
          quick "ideal head values" ideal_distribution_harmonic_head;
          quick "oldest-link strategy tracks too" oldest_strategy_also_tracks;
          quick "sequential arrival" sequential_arrival_works;
          quick "total variation bounded" total_variation_reasonable;
          quick "other exponents skew accordingly" exponent_two_heuristic_skews_short;
          quick "routes about as fast as ideal (fig 7 spirit)"
            constructed_routes_about_as_fast_as_ideal;
        ] );
      ( "repair",
        [
          quick "restores full delivery" repair_restores_full_delivery;
          quick "keeps surviving links" repair_keeps_surviving_links;
          quick "rejects extinction" repair_rejects_extinction;
        ] );
      ("pinned", [ quick "build and repair digests" output_pinned ]);
      ( "properties",
        List.map (fun p -> QCheck_alcotest.to_alcotest p)
          [ prop_constructed_degrees; prop_constructed_connected ] );
    ]
