(* figure6_sweep: Experiment.figure6 at n = 2^14 with lg n links, the
   offline batch job that `p2psim figure6` runs — nine node-failure
   fractions from 0.0 to 0.8, all three Section 6 strategies on the
   same traffic. Network construction dominates it and backtracking at
   high failure fractions dominates its routing, so build gains should
   move it and route-kernel gains should barely show. *)

module E = Ftr_core.Experiment
module N = Ftr_core.Network
module R = Ftr_core.Route
module F = Ftr_core.Failure
module Rng = Ftr_prng.Rng
module Summary = Ftr_stats.Summary
module J = Ftr_obs.Json
module O = Outcome

let n = 1 lsl 14

let links = 14

let networks = 8

let messages = 500

let fractions = [ 0.0; 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8 ]

(* The strategies in the order Experiment.figure6 runs them. *)
let strategies =
  [
    ("terminate", R.Terminate);
    ("reroute", R.Random_reroute { attempts = 1 });
    ("backtrack", R.Backtrack { history = 5 });
  ]

let routed = List.length fractions * networks * messages * List.length strategies

let params =
  J.Obj
    [
      ("n", J.Int n);
      ("links", J.Int links);
      ("networks", J.Int networks);
      ("messages", J.Int messages);
      ("fractions", J.List (List.map (fun f -> J.Float f) fractions));
      ("jobs", J.Int 1);
    ]

let figure6 ~seed = E.figure6 ~n ~links ~networks ~messages ~fractions ~seed ()

let measurements (r : E.figure6_row) = [ r.E.terminate; r.E.reroute; r.E.backtrack ]

let mean_hops rows =
  let ms = List.concat_map measurements rows in
  List.fold_left (fun acc (m : E.measurement) -> acc +. m.E.mean_hops) 0.0 ms
  /. float_of_int (List.length ms)

let failed_frac rows =
  let ms = List.concat_map measurements rows in
  List.fold_left (fun acc (m : E.measurement) -> acc +. m.E.failed_fraction) 0.0 ms
  /. float_of_int (List.length ms)

(* Bit-for-bit row equality: NaN equals NaN, 0.0 differs from -0.0. *)
let same_rows a b =
  let bits x = Int64.bits_of_float x in
  let same_m (x : E.measurement) (y : E.measurement) =
    bits x.E.failed_fraction = bits y.E.failed_fraction
    && bits x.E.mean_hops = bits y.E.mean_hops
    && bits x.E.hops_ci95 = bits y.E.hops_ci95
    && bits x.E.mean_path_hops = bits y.E.mean_path_hops
    && x.E.messages = y.E.messages
  in
  List.length a = List.length b
  && List.for_all2
       (fun (x : E.figure6_row) (y : E.figure6_row) ->
         bits x.E.fail_fraction = bits y.E.fail_fraction
         && List.for_all2 same_m (measurements x) (measurements y))
       a b

let check_rows o rows =
  let bound = Ftr_core.Theory.upper_multi_link ~links n in
  List.iter
    (fun (r : E.figure6_row) ->
      List.iter2
        (fun (label, _) (m : E.measurement) ->
          O.check o (Float.is_finite m.E.mean_hops) "figure6: no delivered message at %.1f %s"
            r.E.fail_fraction label;
          if r.E.fail_fraction = 0.0 then begin
            O.check o (m.E.failed_fraction = 0.0) "figure6: %s lost messages with no failures" label;
            O.check o (m.E.mean_hops <= bound)
              "figure6: %s mean hops %.3f above the Theorem 13 bound %.3f" label m.E.mean_hops bound
          end)
        strategies (measurements r))
    rows

(* The first network's inputs exactly as figure6 prepares them: split
   its generator, build, fail nodes, draw the live pairs. *)
let prepare ~seed =
  let net_rng = Rng.split (Rng.of_int seed) in
  let (_ : N.t) = N.build_ideal ~n ~links net_rng in
  let failures = F.of_node_mask (F.random_node_fraction net_rng ~n ~fraction:(List.hd fractions)) in
  ignore (E.random_live_pairs net_rng failures ~n ~messages)

let untraced o ~seed ~seconds =
  O.note o "params" params;
  let setups = Array.init 9 (fun _ -> snd (O.timed (fun () -> prepare ~seed))) in
  let calls = O.repeat ~seconds ~keep:Fun.id (fun () -> figure6 ~seed) in
  O.set o "peak_rss_mb" (Host.peak_rss_mb ());
  let rows, _ = List.hd calls in
  List.iter
    (fun (r, _) -> O.check o (same_rows r rows) "figure6: a repeated call gave different rows")
    calls;
  check_rows o rows;
  let walls = Array.of_list (List.map snd calls) in
  o.O.attempted <- routed * List.length calls;
  O.set o "setup_s" (Stats.median setups);
  O.set o "lookups_per_s" (Stats.median (Array.map (fun w -> float_of_int routed /. w) walls));
  O.set o "mean_hops" (mean_hops rows);
  O.note_timing o "setup_s" setups;
  O.note_timing o "figure6_s" walls;
  O.note o "failed_frac" (J.Float (failed_frac rows))

(* Experiment.figure6, call for call, with a span around each call into
   a layer; the rows are folded exactly as figure6 folds them. *)
let replay tr ~seed =
  let span name f = Tracer.span tr name f in
  let rng = Rng.of_int seed in
  let hops = Array.make (List.length strategies) 0.0 in
  let rows =
    List.map
      (fun fraction ->
        let accum =
          Array.init 3 (fun _ -> (Summary.create (), Summary.create (), Summary.create ()))
        in
        for _ = 1 to networks do
          let net_rng = Rng.split rng in
          let net = span "network.build" (fun () -> N.build_ideal ~n ~links net_rng) in
          let failures =
            span "failure.view" (fun () ->
                F.of_node_mask (F.random_node_fraction net_rng ~n ~fraction))
          in
          let pairs =
            span "experiment.pairs" (fun () -> E.random_live_pairs net_rng failures ~n ~messages)
          in
          List.iteri
            (fun si (label, strategy) ->
              let m =
                span ("experiment.measure." ^ label) (fun () ->
                    E.measure ~failures ~strategy ~pairs ~messages ~rng:net_rng net)
              in
              let delivered = float_of_int messages *. (1.0 -. m.E.failed_fraction) in
              if delivered > 0.0 then hops.(si) <- hops.(si) +. (m.E.mean_hops *. delivered);
              let failed_s, hops_s, path_s = accum.(si) in
              Summary.add failed_s m.E.failed_fraction;
              if not (Float.is_nan m.E.mean_hops) then begin
                Summary.add hops_s m.E.mean_hops;
                Summary.add path_s m.E.mean_path_hops
              end)
            strategies
        done;
        let result si =
          let failed_s, hops_s, path_s = accum.(si) in
          {
            E.failed_fraction = Summary.mean failed_s;
            mean_hops = Summary.mean hops_s;
            hops_ci95 = Summary.ci95_halfwidth hops_s;
            mean_path_hops = Summary.mean path_s;
            messages = networks * messages;
          }
        in
        { E.fail_fraction = fraction; terminate = result 0; reroute = result 1; backtrack = result 2 })
      fractions
  in
  (rows, hops)

let traced o ~seed =
  O.note o "params" params;
  let reference, untraced_s = O.timed (fun () -> figure6 ~seed) in
  let tr = Tracer.create () in
  let rows, hops = Tracer.span tr "figure6_sweep" (fun () -> replay tr ~seed) in
  O.check o (same_rows rows reference) "figure6: the traced replay's rows differ from Experiment.figure6";
  check_rows o rows;
  let root = Tracer.root_s tr in
  let build_s = Tracer.self_s tr "network.build" in
  let builds = List.length fractions * networks in
  let backtrack_s = Tracer.self_s tr "experiment.measure.backtrack" in
  o.O.attempted <- routed;
  let set = O.set o in
  set "network.build_s" build_s;
  set "network.build_nodes_per_s" (float_of_int (builds * n) /. build_s);
  set "network.builds" (float_of_int builds);
  set "network.build_share" (build_s /. root);
  set "failure.view_s" (Tracer.self_s tr "failure.view");
  set "experiment.pairs_s" (Tracer.self_s tr "experiment.pairs");
  List.iter
    (fun (label, _) ->
      set ("experiment.measure_s." ^ label) (Tracer.self_s tr ("experiment.measure." ^ label)))
    strategies;
  set "experiment.hops_per_s.backtrack" (Float.round hops.(2) /. backtrack_s);
  set "lookup.failed_frac" (failed_frac rows);
  set "trace.coverage" (Tracer.coverage tr);
  set "trace.overhead" (root /. untraced_s);
  O.note o "layers" (Tracer.to_json tr)
