module E = Ftr_core.Experiment
module Network = Ftr_core.Network
module Failure = Ftr_core.Failure
module Rng = Ftr_prng.Rng

(* All experiments here run at small scale — the point is that the drivers
   produce well-formed rows whose shapes match the paper, not to redo the
   full benchmark. *)

(* ------------------------------------------------------------------ *)
(* Measurement kernel                                                  *)
(* ------------------------------------------------------------------ *)

let measure_failure_free () =
  let net = Network.build_ideal ~n:512 ~links:4 (Rng.of_int 1) in
  let m = E.measure ~messages:200 ~rng:(Rng.of_int 2) net in
  Alcotest.(check (float 1e-9)) "no failures" 0.0 m.E.failed_fraction;
  Alcotest.(check int) "message count" 200 m.E.messages;
  Alcotest.(check bool) "hops positive" true (m.E.mean_hops > 0.0)

let measure_with_pairs () =
  let net = Network.build_ideal ~n:64 ~links:2 (Rng.of_int 3) in
  let pairs = [| (0, 63); (63, 0); (5, 5) |] in
  let m = E.measure ~pairs ~messages:3 ~rng:(Rng.of_int 4) net in
  Alcotest.(check (float 1e-9)) "delivered all" 0.0 m.E.failed_fraction

let random_live_pairs_all_live () =
  let n = 128 in
  let mask = Failure.random_node_fraction (Rng.of_int 5) ~n ~fraction:0.5 in
  let failures = Failure.of_node_mask mask in
  let pairs = E.random_live_pairs (Rng.of_int 6) failures ~n ~messages:100 in
  Array.iter
    (fun (s, d) ->
      Alcotest.(check bool) "src alive" true (Failure.node_alive failures s);
      Alcotest.(check bool) "dst alive" true (Failure.node_alive failures d))
    pairs

(* ------------------------------------------------------------------ *)
(* Figure 5                                                            *)
(* ------------------------------------------------------------------ *)

let figure5_small () =
  let r = E.figure5 ~networks:2 ~n:1024 ~links:8 ~seed:7 () in
  Alcotest.(check int) "networks recorded" 2 r.E.networks;
  Alcotest.(check bool) "points reported" true (List.length r.E.points > 8);
  Alcotest.(check bool)
    (Printf.sprintf "max error %.4f small" r.E.max_abs_error)
    true (r.E.max_abs_error < 0.08);
  Alcotest.(check bool) "worst error at short length" true (r.E.max_abs_error_length <= 8);
  List.iter
    (fun p ->
      Alcotest.(check bool) "derived is a probability" true
        (p.E.derived >= 0.0 && p.E.derived <= 1.0);
      Alcotest.(check (float 1e-9)) "error consistent" (p.E.derived -. p.E.ideal) p.E.error)
    r.E.points

let figure5_oldest_strategy () =
  let r =
    E.figure5 ~replacement:Ftr_core.Heuristic.Oldest ~networks:2 ~n:1024 ~links:8 ~seed:8 ()
  in
  Alcotest.(check bool) "oldest also tracks" true (r.E.max_abs_error < 0.1)

(* ------------------------------------------------------------------ *)
(* Figure 6                                                            *)
(* ------------------------------------------------------------------ *)

let figure6_shapes () =
  let rows =
    E.figure6 ~n:2048 ~links:8 ~networks:2 ~messages:100 ~fractions:[ 0.0; 0.3; 0.6 ] ~seed:9 ()
  in
  Alcotest.(check int) "three rows" 3 (List.length rows);
  let r0 = List.nth rows 0 and r3 = List.nth rows 1 and r6 = List.nth rows 2 in
  (* No failures: every strategy delivers everything. *)
  Alcotest.(check (float 1e-9)) "p=0 terminate" 0.0 r0.E.terminate.E.failed_fraction;
  Alcotest.(check (float 1e-9)) "p=0 backtrack" 0.0 r0.E.backtrack.E.failed_fraction;
  (* Backtracking dominates terminate at every failure level. *)
  List.iter
    (fun r ->
      Alcotest.(check bool) "backtrack <= terminate" true
        (r.E.backtrack.E.failed_fraction <= r.E.terminate.E.failed_fraction +. 1e-9);
      Alcotest.(check bool) "reroute <= terminate" true
        (r.E.reroute.E.failed_fraction <= r.E.terminate.E.failed_fraction +. 1e-9))
    rows;
  (* Failures increase with the failure fraction for terminate. *)
  Alcotest.(check bool) "monotone failures" true
    (r0.E.terminate.E.failed_fraction <= r3.E.terminate.E.failed_fraction
    && r3.E.terminate.E.failed_fraction <= r6.E.terminate.E.failed_fraction)

(* ------------------------------------------------------------------ *)
(* Figure 7                                                            *)
(* ------------------------------------------------------------------ *)

let figure7_shapes () =
  let rows = E.figure7 ~n:1024 ~links:10 ~networks:2 ~messages:100 ~probs:[ 0.0; 0.5 ] ~seed:10 () in
  Alcotest.(check int) "two rows" 2 (List.length rows);
  let r0 = List.hd rows in
  Alcotest.(check (float 1e-9)) "ideal perfect at p=0" 0.0 r0.E.ideal_failed;
  Alcotest.(check (float 1e-9)) "constructed perfect at p=0" 0.0 r0.E.constructed_failed;
  let r5 = List.nth rows 1 in
  Alcotest.(check bool) "failures appear at p=0.5" true
    (r5.E.ideal_failed > 0.0 || r5.E.constructed_failed > 0.0);
  (* The paper: constructed is comparable to ideal (within a few x). *)
  Alcotest.(check bool)
    (Printf.sprintf "constructed %.3f comparable to ideal %.3f" r5.E.constructed_failed
       r5.E.ideal_failed)
    true
    (r5.E.constructed_failed < (4.0 *. r5.E.ideal_failed) +. 0.1)

(* ------------------------------------------------------------------ *)
(* Table 1 sweeps                                                      *)
(* ------------------------------------------------------------------ *)

let all_ratios_below_one rows =
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "%s param %.2f: measured %.2f <= bound %.2f" r.E.label r.E.parameter
           r.E.measured r.E.bound)
        true (r.E.ratio <= 1.0))
    rows

let sweep_single_link_bounded () =
  all_ratios_below_one (E.sweep_single_link ~ns:[ 256; 1024 ] ~networks:2 ~messages:150 ~seed:11 ())

let sweep_multi_link_bounded () =
  all_ratios_below_one
    (E.sweep_multi_link ~n:2048 ~links_list:[ 1; 4; 8 ] ~networks:2 ~messages:150 ~seed:12 ())

let sweep_multi_link_monotone () =
  let rows = E.sweep_multi_link ~n:4096 ~links_list:[ 1; 4; 11 ] ~networks:3 ~messages:200 ~seed:13 () in
  match rows with
  | [ a; b; c ] ->
      Alcotest.(check bool) "more links, fewer hops" true
        (a.E.measured > b.E.measured && b.E.measured > c.E.measured)
  | _ -> Alcotest.fail "expected three rows"

let sweep_deterministic_bounded () =
  all_ratios_below_one (E.sweep_deterministic ~ns:[ 256; 4096 ] ~base:2 ~messages:200 ~seed:14 ())

let sweep_link_failure_bounded () =
  all_ratios_below_one
    (E.sweep_link_failure ~n:2048 ~links:8 ~probs:[ 1.0; 0.5 ] ~networks:2 ~messages:150 ~seed:15 ())

let sweep_link_failure_monotone () =
  let rows =
    E.sweep_link_failure ~n:4096 ~links:8 ~probs:[ 1.0; 0.4 ] ~networks:3 ~messages:200 ~seed:16 ()
  in
  match rows with
  | [ full; degraded ] ->
      Alcotest.(check bool) "fewer live links, more hops" true
        (degraded.E.measured > full.E.measured)
  | _ -> Alcotest.fail "expected two rows"

let sweep_geometric_bounded () =
  all_ratios_below_one
    (E.sweep_geometric_link_failure ~n:2048 ~base:2 ~probs:[ 1.0; 0.6 ] ~networks:2 ~messages:150
       ~seed:17 ())

let sweep_binomial_bounded () =
  all_ratios_below_one
    (E.sweep_binomial_nodes ~n:2048 ~links:1 ~probs:[ 1.0; 0.5 ] ~networks:2 ~messages:150
       ~seed:18 ())

let sweep_node_failure_bounded () =
  all_ratios_below_one
    (E.sweep_node_failure ~n:2048 ~links:8 ~probs:[ 0.0; 0.3 ] ~networks:2 ~messages:150 ~seed:19 ())

let sweep_lower_bound_above_one () =
  let rows = E.sweep_lower_bound ~ns:[ 1024; 8192 ] ~links:3 ~trials:150 ~seed:20 () in
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "measured %.1f >= bound %.1f" r.E.measured r.E.bound)
        true (r.E.ratio >= 1.0))
    rows

let sweep_exponent_one_is_best () =
  let rows =
    E.sweep_exponent ~n:4096 ~links:2 ~exponents:[ 0.0; 1.0; 2.0 ] ~networks:3 ~messages:200
      ~seed:21 ()
  in
  match rows with
  | [ uniform; harmonic; quadratic ] ->
      Alcotest.(check bool)
        (Printf.sprintf "exp 1 (%.1f) beats exp 0 (%.1f)" harmonic.E.measured uniform.E.measured)
        true
        (harmonic.E.measured < uniform.E.measured);
      Alcotest.(check bool)
        (Printf.sprintf "exp 1 (%.1f) beats exp 2 (%.1f)" harmonic.E.measured quadratic.E.measured)
        true
        (harmonic.E.measured < quadratic.E.measured)
  | _ -> Alcotest.fail "expected three rows"

let sweep_sides_ordering () =
  let rows = E.sweep_sides ~n:2048 ~links:4 ~networks:2 ~messages:200 ~seed:22 () in
  match rows with
  | [ one; two ] ->
      Alcotest.(check bool) "two-sided at least as fast" true (two.E.measured <= one.E.measured)
  | _ -> Alcotest.fail "expected two rows"

let sweep_geometry_comparable () =
  let rows = E.sweep_geometry ~n:2048 ~links:6 ~networks:2 ~messages:150 ~seed:24 () in
  match rows with
  | [ line; circle ] ->
      Alcotest.(check string) "labels" "line" line.E.label;
      Alcotest.(check string) "labels" "circle" circle.E.label;
      Alcotest.(check bool) "both bounded" true (line.E.ratio <= 1.0 && circle.E.ratio <= 1.0);
      (* Same asymptotics: within 30% of each other. *)
      Alcotest.(check bool)
        (Printf.sprintf "line %.2f vs circle %.2f" line.E.measured circle.E.measured)
        true
        (abs_float (line.E.measured -. circle.E.measured) < 0.3 *. line.E.measured)
  | _ -> Alcotest.fail "expected two rows"

(* Rows recorded before Multidim.route moved onto the shared greedy
   kernel, as exact %h floats. *)
let sweep_dimensions_pinned () =
  let rows =
    E.sweep_dimensions ~configs:[ (1, 512); (2, 24); (3, 8) ] ~networks:2 ~messages:100 ~seed:77 ()
  in
  Alcotest.(check string) "rows"
    (String.concat ";"
       [
         "1,512,0x1.8c95895895896p+5,0x1.0a3d70a3d70a4p-3";
         "2,576,0x1.eded9fb7d0e78p+3,0x1.1eb851eb851ecp-5";
         "3,512,0x1.edc82f2b11b02p+2,0x1.70a3d70a3d70ap-5";
       ])
    (String.concat ";"
       (List.map
          (fun r -> Printf.sprintf "%d,%d,%h,%h" r.E.dims r.E.nodes r.E.mean_hops_nd r.E.failed_nd)
          rows))

let sweep_dimensions_improves () =
  let rows =
    E.sweep_dimensions
      ~configs:[ (1, 1024); (2, 32) ]
      ~links:4 ~death_p:0.3 ~networks:2 ~messages:150 ~seed:25 ()
  in
  match rows with
  | [ one; two ] ->
      Alcotest.(check int) "matched node counts" one.E.nodes two.E.nodes;
      Alcotest.(check bool) "delivery works in both" true
        (one.E.failed_nd < 0.5 && two.E.failed_nd < 0.5);
      Alcotest.(check bool)
        (Printf.sprintf "2d (%.2f hops) at most 1d (%.2f hops)" two.E.mean_hops_nd
           one.E.mean_hops_nd)
        true
        (two.E.mean_hops_nd <= one.E.mean_hops_nd)
  | _ -> Alcotest.fail "expected two rows"

let sweep_stretch_sane () =
  let rows = E.sweep_stretch ~n:1024 ~links_list:[ 2; 8 ] ~pairs:60 ~seed:26 () in
  match rows with
  | [ sparse; dense ] ->
      List.iter
        (fun r ->
          Alcotest.(check bool) "stretch >= 1" true (r.E.mean_stretch >= 1.0);
          Alcotest.(check bool)
            (Printf.sprintf "greedy pays a bounded premium (%.2f)" r.E.mean_stretch)
            true
            (r.E.mean_stretch < 4.0))
        [ sparse; dense ];
      Alcotest.(check bool) "more links, shorter optimal paths" true
        (dense.E.mean_optimal <= sparse.E.mean_optimal)
  | _ -> Alcotest.fail "expected two rows"

let sweep_backtrack_history_helps () =
  let rows =
    E.sweep_backtrack_history ~n:2048 ~links:8 ~fraction:0.5 ~histories:[ 1; 5 ] ~networks:3
      ~messages:150 ~seed:23 ()
  in
  match rows with
  | [ short; long ] ->
      Alcotest.(check int) "labels" 1 short.E.history;
      Alcotest.(check bool)
        (Printf.sprintf "history 5 (%.3f) <= history 1 (%.3f)"
           long.E.result.E.failed_fraction short.E.result.E.failed_fraction)
        true
        (long.E.result.E.failed_fraction <= short.E.result.E.failed_fraction +. 0.02)
  | _ -> Alcotest.fail "expected two rows"

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "experiment"
    [
      ( "kernel",
        [
          quick "failure-free measurement" measure_failure_free;
          quick "explicit pairs" measure_with_pairs;
          quick "random live pairs" random_live_pairs_all_live;
        ] );
      ( "figure5",
        [ slow "small run" figure5_small; slow "oldest replacement" figure5_oldest_strategy ] );
      ("figure6", [ slow "strategy shapes" figure6_shapes ]);
      ("figure7", [ slow "ideal vs constructed" figure7_shapes ]);
      ( "table1",
        [
          slow "single link bounded" sweep_single_link_bounded;
          slow "multi link bounded" sweep_multi_link_bounded;
          slow "multi link monotone" sweep_multi_link_monotone;
          slow "deterministic bounded" sweep_deterministic_bounded;
          slow "link failure bounded" sweep_link_failure_bounded;
          slow "link failure monotone" sweep_link_failure_monotone;
          slow "geometric bounded" sweep_geometric_bounded;
          slow "binomial bounded" sweep_binomial_bounded;
          slow "node failure bounded" sweep_node_failure_bounded;
          slow "lower bound respected" sweep_lower_bound_above_one;
          slow "exponent 1 optimal" sweep_exponent_one_is_best;
          slow "side ordering" sweep_sides_ordering;
          slow "backtrack history ablation" sweep_backtrack_history_helps;
          slow "geometry: line vs circle" sweep_geometry_comparable;
          slow "stretch: greedy vs optimal" sweep_stretch_sane;
          slow "dimensions: 2d beats 1d at matched n" sweep_dimensions_improves;
          quick "dimensions: rows pinned" sweep_dimensions_pinned;
        ] );
    ]
