module Rng = Ftr_prng.Rng
module Summary = Ftr_stats.Summary
module Gof = Ftr_stats.Gof

(* Shared measurement kernel: route [messages] messages between uniformly
   random live (src, dst) pairs and summarise failure fraction and the
   delivery time of successful searches, as in Section 6. *)

type measurement = {
  failed_fraction : float;
  mean_hops : float;
  hops_ci95 : float;
  mean_path_hops : float;
  messages : int;
}

let pick_live rng failures ~n =
  let rec attempt tries =
    if tries > 1_000_000 then invalid_arg "Experiment.pick_live: no live node found";
    let v = Rng.int rng n in
    if Failure.node_alive failures v then v else attempt (tries + 1)
  in
  attempt 0

let measure ?(failures = Failure.none) ?(side = Route.Two_sided) ?(strategy = Route.Terminate)
    ?pairs ~messages ~rng net =
  let n = Network.size net in
  let hops = Summary.create () in
  let path_hops = Summary.create () in
  let failed = ref 0 in
  let pair i =
    match pairs with
    | Some p -> p.(i)
    | None ->
        let src = pick_live rng failures ~n in
        let rec dst_loop tries =
          let d = pick_live rng failures ~n in
          if d <> src || tries > 1000 then d else dst_loop (tries + 1)
        in
        (src, dst_loop 0)
  in
  (* One scratch for the whole batch keeps backtracking runs off the
     minor heap (see {!Route.scratch}). *)
  let scratch = Route.scratch net in
  for i = 0 to messages - 1 do
    let src, dst = pair i in
    let path = ref [ src ] in
    let on_hop v = path := v :: !path in
    match Route.route ~failures ~side ~strategy ~rng ~on_hop ~scratch net ~src ~dst with
    | Route.Delivered { hops = h } ->
        Summary.add_int hops h;
        Summary.add_int path_hops (Route.loop_erased_length (List.rev !path))
    | Route.Failed _ -> incr failed
  done;
  {
    failed_fraction = float_of_int !failed /. float_of_int messages;
    mean_hops = Summary.mean hops;
    hops_ci95 = Summary.ci95_halfwidth hops;
    mean_path_hops = Summary.mean path_hops;
    messages;
  }

let random_live_pairs rng failures ~n ~messages =
  Array.init messages (fun _ ->
      let src = pick_live rng failures ~n in
      let rec dst_loop tries =
        let d = pick_live rng failures ~n in
        if d <> src || tries > 1000 then d else dst_loop (tries + 1)
      in
      (src, dst_loop 0))

(* ------------------------------------------------------------------ *)
(* Figure 5: link-length distribution of the Section 5 heuristic.      *)
(* ------------------------------------------------------------------ *)

type figure5_point = { length : int; derived : float; ideal : float; error : float }

type figure5_result = {
  points : figure5_point list;
  max_abs_error : float;
  max_abs_error_length : int;
  total_variation : float;
  networks : int;
}

(* Log-spaced report lengths 1, 2, 4, ..., plus 3 and 6 for detail at the
   head of the curve where the paper's largest error sits. *)
let report_lengths ~n =
  let rec powers acc v = if v >= n then List.rev acc else powers (v :: acc) (v * 2) in
  List.sort_uniq Int.compare (3 :: 6 :: powers [] 1)

(* Shared tail of the sequential and parallel drivers: average the
   accumulated pmf mass and compare with the ideal 1/d law. *)
let figure5_finish ~networks ~n sum =
  let derived = Array.map (fun s -> s /. float_of_int networks) sum in
  let ideal = Heuristic.ideal_distribution ~n () in
  let max_abs_error, max_abs_error_length = Gof.max_abs_error ~empirical:derived ~model:ideal in
  let total_variation = Gof.total_variation ~empirical:derived ~model:ideal in
  let points =
    List.map
      (fun d ->
        { length = d; derived = derived.(d); ideal = ideal.(d); error = derived.(d) -. ideal.(d) })
      (report_lengths ~n)
  in
  { points; max_abs_error; max_abs_error_length; total_variation; networks }

let figure5 ?(replacement = Heuristic.Proportional) ?(networks = 10) ~n ~links ~seed () =
  if networks < 1 then invalid_arg "Experiment.figure5: networks must be >= 1";
  let rng = Rng.of_int seed in
  let sum = Array.make n 0.0 in
  for _ = 1 to networks do
    let net = Heuristic.build ~replacement ~n ~links (Rng.split rng) in
    let pmf = Heuristic.length_distribution net in
    for d = 0 to n - 1 do
      sum.(d) <- sum.(d) +. pmf.(d)
    done
  done;
  figure5_finish ~networks ~n sum

(* ------------------------------------------------------------------ *)
(* Figure 6: the three stuck-message strategies under node failures.   *)
(* ------------------------------------------------------------------ *)

type figure6_row = {
  fail_fraction : float;
  terminate : measurement;
  reroute : measurement;
  backtrack : measurement;
}

(* Mean-of-means over per-network measurements, folded in the given
   (network) order: the [Summary.add] order fixes the rows' bits. *)
let summarize ms =
  let failed_s = Summary.create () and hops_s = Summary.create () and path_s = Summary.create () in
  List.iter
    (fun m ->
      Summary.add failed_s m.failed_fraction;
      if not (Float.is_nan m.mean_hops) then begin
        Summary.add hops_s m.mean_hops;
        Summary.add path_s m.mean_path_hops
      end)
    ms;
  {
    failed_fraction = Summary.mean failed_s;
    mean_hops = Summary.mean hops_s;
    hops_ci95 = Summary.ci95_halfwidth hops_s;
    mean_path_hops = Summary.mean path_s;
    messages = List.fold_left (fun acc m -> acc + m.messages) 0 ms;
  }

(* One figure 6 network: build an overlay, fail [fraction] of its nodes,
   then route the identical traffic under each strategy in turn (the
   paper's variance-reduction pairing). All draws come from [rng]. *)
let figure6_network ~n ~links ~messages ~fraction rng =
  let net = Network.build_ideal ~n ~links rng in
  let mask = Failure.random_node_fraction rng ~n ~fraction in
  let failures = Failure.of_node_mask mask in
  let pairs = random_live_pairs rng failures ~n ~messages in
  List.map
    (fun strategy -> measure ~failures ~strategy ~pairs ~messages ~rng net)
    [ Route.Terminate; Route.Random_reroute { attempts = 1 }; Route.Backtrack { history = 5 } ]

(* [per_network] holds each network's strategy list, in network order. *)
let figure6_row fraction per_network =
  let strategy si = summarize (List.map (fun ms -> List.nth ms si) per_network) in
  { fail_fraction = fraction; terminate = strategy 0; reroute = strategy 1; backtrack = strategy 2 }

let figure6 ?(n = 1 lsl 15) ?links ?(networks = 10) ?(messages = 100)
    ?(fractions = [ 0.0; 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8 ]) ~seed () =
  let links = match links with Some l -> l | None -> int_of_float (Theory.lg n) in
  let rng = Rng.of_int seed in
  List.map
    (fun fraction ->
      figure6_row fraction
        (List.init networks (fun _ ->
             figure6_network ~n ~links ~messages ~fraction (Rng.split rng))))
    fractions

(* ------------------------------------------------------------------ *)
(* Figure 7: ideal vs heuristically constructed network.               *)
(* ------------------------------------------------------------------ *)

type figure7_row = { death_p : float; ideal_failed : float; constructed_failed : float }

let figure7 ?(n = 16384) ?links ?(networks = 10) ?(messages = 1000)
    ?(probs = [ 0.0; 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9 ]) ~seed () =
  let links = match links with Some l -> l | None -> int_of_float (Theory.lg n) in
  let rng = Rng.of_int seed in
  (* Build the networks once and reuse them across failure probabilities,
     as the paper's "10 iterations" does. *)
  let nets =
    List.init networks (fun _ ->
        let r = Rng.split rng in
        (Network.build_ideal ~n ~links r, Heuristic.build ~n ~links r))
  in
  List.map
    (fun death_p ->
      let ideal_s = Summary.create () and constructed_s = Summary.create () in
      List.iter
        (fun (ideal_net, constructed_net) ->
          let r = Rng.split rng in
          let fraction = Float.min death_p 0.99 in
          let mask = Failure.random_node_fraction r ~n ~fraction in
          let failures = Failure.of_node_mask mask in
          let pairs = random_live_pairs r failures ~n ~messages in
          let mi = measure ~failures ~pairs ~messages ~rng:r ideal_net in
          let mc = measure ~failures ~pairs ~messages ~rng:r constructed_net in
          Summary.add ideal_s mi.failed_fraction;
          Summary.add constructed_s mc.failed_fraction)
        nets;
      { death_p; ideal_failed = Summary.mean ideal_s; constructed_failed = Summary.mean constructed_s })
    probs

(* ------------------------------------------------------------------ *)
(* Table 1: scaling sweeps against the closed-form bounds.             *)
(* ------------------------------------------------------------------ *)

type scaling_row = {
  label : string;
  parameter : float; (* the swept quantity: n, links, p, ... *)
  measured : float;
  bound : float;
  ratio : float; (* measured / bound; <= 1 certifies the upper bound *)
}

let row ~label ~parameter ~measured ~bound =
  { label; parameter; measured; bound; ratio = measured /. bound }

let mean_delivery ?failures ?side ?strategy ~messages ~rng net =
  (measure ?failures ?side ?strategy ~messages ~rng net).mean_hops

let sweep_single_link ?(ns = [ 256; 1024; 4096; 16384 ]) ?(networks = 5) ?(messages = 200) ~seed
    () =
  let rng = Rng.of_int seed in
  List.map
    (fun n ->
      let s = Summary.create () in
      for _ = 1 to networks do
        let r = Rng.split rng in
        let net = Network.build_ideal ~n ~links:1 r in
        Summary.add s (mean_delivery ~messages ~rng:r net)
      done;
      row ~label:"single-link" ~parameter:(float_of_int n) ~measured:(Summary.mean s)
        ~bound:(Theory.upper_single_link n))
    ns

let sweep_multi_link ?(n = 16384) ?(links_list = [ 1; 2; 4; 8; 14 ]) ?(networks = 5)
    ?(messages = 200) ~seed () =
  let rng = Rng.of_int seed in
  List.map
    (fun links ->
      let s = Summary.create () in
      for _ = 1 to networks do
        let r = Rng.split rng in
        let net = Network.build_ideal ~n ~links r in
        Summary.add s (mean_delivery ~messages ~rng:r net)
      done;
      row ~label:"multi-link" ~parameter:(float_of_int links) ~measured:(Summary.mean s)
        ~bound:(Theory.upper_multi_link ~links n))
    links_list

let sweep_deterministic ?(ns = [ 256; 1024; 4096; 16384 ]) ?(base = 2) ?(messages = 200) ~seed ()
    =
  let rng = Rng.of_int seed in
  List.map
    (fun n ->
      let net = Network.build_deterministic ~n ~base in
      row ~label:(Printf.sprintf "deterministic-base-%d" base) ~parameter:(float_of_int n)
        ~measured:(mean_delivery ~messages ~rng net)
        ~bound:(Theory.upper_deterministic ~base n))
    ns

let sweep_link_failure ?(n = 16384) ?links ?(probs = [ 1.0; 0.8; 0.6; 0.4; 0.2 ])
    ?(networks = 5) ?(messages = 200) ~seed () =
  let links = match links with Some l -> l | None -> int_of_float (Theory.lg n) in
  let rng = Rng.of_int seed in
  List.map
    (fun present_p ->
      let s = Summary.create () in
      for _ = 1 to networks do
        let r = Rng.split rng in
        let net = Network.build_ideal ~n ~links r in
        let failures = Failure.of_link_mask (Failure.random_link_mask r net ~present_p) in
        Summary.add s (mean_delivery ~failures ~messages ~rng:r net)
      done;
      row ~label:"link-failure" ~parameter:present_p ~measured:(Summary.mean s)
        ~bound:(Theory.upper_link_failure ~links ~present_p n))
    probs

let sweep_geometric_link_failure ?(n = 16384) ?(base = 2) ?(probs = [ 1.0; 0.8; 0.6; 0.4 ])
    ?(networks = 5) ?(messages = 200) ~seed () =
  let rng = Rng.of_int seed in
  List.map
    (fun present_p ->
      let s = Summary.create () in
      for _ = 1 to networks do
        let r = Rng.split rng in
        let net = Network.build_geometric ~n ~base in
        let failures = Failure.of_link_mask (Failure.random_link_mask r net ~present_p) in
        Summary.add s (mean_delivery ~failures ~messages ~rng:r net)
      done;
      row ~label:(Printf.sprintf "geometric-base-%d" base) ~parameter:present_p
        ~measured:(Summary.mean s)
        ~bound:(Theory.upper_geometric_link_failure ~base ~present_p n))
    probs

let sweep_binomial_nodes ?(n = 16384) ?(links = 1) ?(probs = [ 1.0; 0.7; 0.5; 0.3 ])
    ?(networks = 5) ?(messages = 200) ~seed () =
  let rng = Rng.of_int seed in
  List.map
    (fun present_p ->
      let s = Summary.create () in
      for _ = 1 to networks do
        let r = Rng.split rng in
        let net = Network.build_binomial ~n ~links ~present_p r in
        Summary.add s (mean_delivery ~messages ~rng:r net)
      done;
      (* Theorem 17: the bound is the failure-free O(H_n²), independent of
         p — absent nodes just shrink the random graph. *)
      row ~label:"binomial-nodes" ~parameter:present_p ~measured:(Summary.mean s)
        ~bound:(Theory.upper_single_link n))
    probs

let sweep_node_failure ?(n = 16384) ?links ?(probs = [ 0.0; 0.2; 0.4; 0.6 ]) ?(networks = 5)
    ?(messages = 200) ~seed () =
  let links = match links with Some l -> l | None -> int_of_float (Theory.lg n) in
  let rng = Rng.of_int seed in
  List.map
    (fun death_p ->
      let s = Summary.create () in
      for _ = 1 to networks do
        let r = Rng.split rng in
        let net = Network.build_ideal ~n ~links r in
        let mask = Failure.bernoulli_node_mask r ~n ~death_p in
        let failures = Failure.of_node_mask mask in
        (* Theorem 18 concerns delivery time; measure hops of successful
           searches under the backtracking strategy so most messages make
           it through. *)
        Summary.add s
          (mean_delivery ~failures ~strategy:(Route.Backtrack { history = 5 }) ~messages ~rng:r
             net)
      done;
      row ~label:"node-failure" ~parameter:death_p ~measured:(Summary.mean s)
        ~bound:(Theory.upper_node_failure ~links ~death_p n))
    probs

(* Lower-bound row: single-point one-sided simulation vs the Theorem 10
   leading term. ratio >= 1 supports the lower bound. *)
let sweep_lower_bound ?(ns = [ 1024; 4096; 16384; 65536 ]) ?(links = 4) ?(trials = 300) ~seed ()
    =
  let rng = Rng.of_int seed in
  List.map
    (fun n ->
      let dist = Aggregate_chain.harmonic ~links ~max_offset:(n - 1) in
      let steps = ref 0 in
      for _ = 1 to trials do
        steps :=
          !steps + Aggregate_chain.simulate_single_point dist rng ~start:(1 + Rng.int rng n)
      done;
      let measured = float_of_int !steps /. float_of_int trials in
      row ~label:"lower-bound-one-sided" ~parameter:(float_of_int n) ~measured
        ~bound:(Theory.lower_one_sided ~links:(2 * links) n))
    ns

(* Ablation: Kleinberg's brittleness claim — exponents away from 1 hurt. *)
let sweep_exponent ?(n = 16384) ?(links = 2)
    ?(exponents = [ 0.0; 0.5; 0.8; 1.0; 1.2; 1.5; 2.0 ]) ?(networks = 5) ?(messages = 200) ~seed
    () =
  let rng = Rng.of_int seed in
  List.map
    (fun exponent ->
      let s = Summary.create () in
      for _ = 1 to networks do
        let r = Rng.split rng in
        let net = Network.build_ideal ~exponent ~n ~links r in
        Summary.add s (mean_delivery ~messages ~rng:r net)
      done;
      row ~label:"exponent" ~parameter:exponent ~measured:(Summary.mean s)
        ~bound:(Theory.upper_multi_link ~links n))
    exponents

(* Ablation: one-sided vs two-sided greedy on the same networks. *)
let sweep_sides ?(n = 16384) ?(links = 4) ?(networks = 5) ?(messages = 200) ~seed () =
  let rng = Rng.of_int seed in
  let one = Summary.create () and two = Summary.create () in
  for _ = 1 to networks do
    let r = Rng.split rng in
    let net = Network.build_ideal ~n ~links r in
    Summary.add one (mean_delivery ~side:Route.One_sided ~messages ~rng:r net);
    Summary.add two (mean_delivery ~side:Route.Two_sided ~messages ~rng:r net)
  done;
  [
    row ~label:"one-sided" ~parameter:1.0 ~measured:(Summary.mean one)
      ~bound:(Theory.upper_multi_link ~links n);
    row ~label:"two-sided" ~parameter:2.0 ~measured:(Summary.mean two)
      ~bound:(Theory.upper_multi_link ~links n);
  ]

(* Ablation: backtracking history length at a fixed failure fraction. *)
type backtrack_row = { history : int; result : measurement }

let sweep_backtrack_history ?(n = 1 lsl 14) ?links ?(fraction = 0.5)
    ?(histories = [ 1; 2; 5; 10; 20 ]) ?(networks = 5) ?(messages = 200) ~seed () =
  let links = match links with Some l -> l | None -> int_of_float (Theory.lg n) in
  let rng = Rng.of_int seed in
  List.map
    (fun history ->
      let per_network =
        List.init networks (fun _ ->
            let r = Rng.split rng in
            let net = Network.build_ideal ~n ~links r in
            let mask = Failure.random_node_fraction r ~n ~fraction in
            let failures = Failure.of_node_mask mask in
            measure ~failures ~strategy:(Route.Backtrack { history }) ~messages ~rng:r net)
      in
      { history; result = summarize per_network })
    histories

(* Extension: line vs circle at matched parameters (Section 7: "the line
   or a circle"). The circle has no boundary, so its per-node distance
   profile is uniform. *)
let sweep_geometry ?(n = 8192) ?(links = 8) ?(networks = 5) ?(messages = 200) ~seed () =
  let rng = Rng.of_int seed in
  let line = Summary.create () and circle = Summary.create () in
  for _ = 1 to networks do
    let r = Rng.split rng in
    Summary.add line (mean_delivery ~messages ~rng:r (Network.build_ideal ~n ~links r));
    Summary.add circle (mean_delivery ~messages ~rng:r (Network.build_ring ~n ~links r))
  done;
  [
    row ~label:"line" ~parameter:1.0 ~measured:(Summary.mean line)
      ~bound:(Theory.upper_multi_link ~links n);
    row ~label:"circle" ~parameter:2.0 ~measured:(Summary.mean circle)
      ~bound:(Theory.upper_multi_link ~links n);
  ]

(* Extension: higher-dimensional tori at matched node counts (Section 7
   future work), with alpha = dims per Kleinberg. *)
type dimension_row = { dims : int; nodes : int; mean_hops_nd : float; failed_nd : float }

let sweep_dimensions ?(configs = [ (1, 4096); (2, 64); (3, 16) ]) ?(links = 4)
    ?(death_p = 0.3) ?(networks = 3) ?(messages = 200) ~seed () =
  let rng = Rng.of_int seed in
  List.map
    (fun (dims, side) ->
      let hops_s = Summary.create () and failed_s = Summary.create () in
      for _ = 1 to networks do
        let r = Rng.split rng in
        let m = Multidim.build ~dims ~side ~links r in
        let n = Multidim.size m in
        let mask = Failure.bernoulli_node_mask r ~n ~death_p in
        let alive = Ftr_graph.Bitset.get mask in
        let failed = ref 0 and hops = ref 0 and ok = ref 0 in
        for _ = 1 to messages do
          let rec live () =
            let v = Rng.int r n in
            if alive v then v else live ()
          in
          let src = live () and dst = live () in
          match
            Multidim.route ~alive ~strategy:(Multidim.Backtrack { history = 5 }) m ~src ~dst
          with
          | Multidim.Delivered { hops = h } ->
              incr ok;
              hops := !hops + h
          | Multidim.Failed _ -> incr failed
        done;
        Summary.add failed_s (float_of_int !failed /. float_of_int messages);
        if !ok > 0 then Summary.add hops_s (float_of_int !hops /. float_of_int !ok)
      done;
      {
        dims;
        nodes = (let rec pow acc k = if k = 0 then acc else pow (acc * side) (k - 1) in
                 pow 1 dims);
        mean_hops_nd = Summary.mean hops_s;
        failed_nd = Summary.mean failed_s;
      })
    configs

(* Greedy stretch: greedy hop count over the true shortest path on the same
   overlay. Greedy uses only local information; BFS sees the whole graph —
   the gap prices the paper's decentralisation. *)
type stretch_row = {
  stretch_links : int;
  mean_stretch : float;
  max_stretch : float;
  mean_greedy : float;
  mean_optimal : float;
}

let sweep_stretch ?(n = 4096) ?(links_list = [ 1; 4; 12 ]) ?(pairs = 100) ~seed () =
  let rng = Rng.of_int seed in
  List.map
    (fun links ->
      let net = Network.build_ideal ~n ~links (Rng.split rng) in
      let adj = Network.to_adjacency net in
      let stretch = Summary.create () in
      let greedy_s = Summary.create () and optimal_s = Summary.create () in
      for _ = 1 to pairs do
        let src = Rng.int rng n in
        let dst =
          let rec pick () =
            let d = Rng.int rng n in
            if d = src then pick () else d
          in
          pick ()
        in
        let greedy = Route.hops (Route.route net ~src ~dst) in
        let optimal = (Ftr_graph.Bfs.distances adj ~src).(dst) in
        if optimal > 0 then begin
          Summary.add stretch (float_of_int greedy /. float_of_int optimal);
          Summary.add_int greedy_s greedy;
          Summary.add_int optimal_s optimal
        end
      done;
      {
        stretch_links = links;
        mean_stretch = Summary.mean stretch;
        max_stretch = Summary.max_value stretch;
        mean_greedy = Summary.mean greedy_s;
        mean_optimal = Summary.mean optimal_s;
      })
    links_list

(* ------------------------------------------------------------------ *)
(* Parallel variants (Ftr_exec): same row shapes, multicore execution. *)
(* ------------------------------------------------------------------ *)

(* The drivers below never share a generator across jobs: each job gets a
   Seed-derived stream keyed by its index, and results merge in index
   order, so the output is a pure function of the arguments — identical
   for any [?jobs] and for the FTR_EXEC_SEQ=1 fallback. They are siblings
   of the sequential drivers above, not replacements: the sequential ones
   thread one generator through the whole run and therefore produce
   different (equally valid) samples. *)

module Pool = Ftr_exec.Pool
module Sweep = Ftr_exec.Sweep

let measure_par ?(failures = Failure.none) ?(side = Route.Two_sided)
    ?(strategy = Route.Terminate) ?(shards = 16) ?jobs ~pairs ~seed net =
  let messages = Array.length pairs in
  if messages = 0 then invalid_arg "Experiment.measure_par: pairs must be non-empty";
  (* Shard boundaries are fixed by [shards] alone — never by the worker
     count — so the job decomposition is part of the experiment
     definition and the merged summary is scheduling-invariant. *)
  let shards = max 1 (min shards messages) in
  let shard_results =
    Pool.map_seeded ?jobs ~seed ~count:shards (fun ~index ~rng ->
        let lo = index * messages / shards and hi = (index + 1) * messages / shards in
        let failed = ref 0 and hops = ref [] and path_hops = ref [] in
        (* Per-shard scratch: jobs may run on different domains, and
           scratch state must never be shared across them. *)
        let scratch = Route.scratch net in
        for i = lo to hi - 1 do
          let src, dst = pairs.(i) in
          let path = ref [ src ] in
          let on_hop v = path := v :: !path in
          (match Route.route ~failures ~side ~strategy ~rng ~on_hop ~scratch net ~src ~dst with
          | Route.Delivered { hops = h } ->
              hops := h :: !hops;
              path_hops := Route.loop_erased_length (List.rev !path) :: !path_hops
          | Route.Failed _ -> incr failed)
        done;
        (!failed, List.rev !hops, List.rev !path_hops))
  in
  let hops = Summary.create () and path_hops = Summary.create () in
  let failed = ref 0 in
  Array.iter
    (fun (f, hs, ps) ->
      failed := !failed + f;
      List.iter (Summary.add_int hops) hs;
      List.iter (Summary.add_int path_hops) ps)
    shard_results;
  {
    failed_fraction = float_of_int !failed /. float_of_int messages;
    mean_hops = Summary.mean hops;
    hops_ci95 = Summary.ci95_halfwidth hops;
    mean_path_hops = Summary.mean path_hops;
    messages;
  }

let figure5_par ?(replacement = Heuristic.Proportional) ?(networks = 10) ?jobs ~n ~links ~seed ()
    =
  if networks < 1 then invalid_arg "Experiment.figure5_par: networks must be >= 1";
  let pmfs =
    Pool.map_seeded ?jobs ~seed ~count:networks (fun ~index:_ ~rng ->
        Heuristic.length_distribution (Heuristic.build ~replacement ~n ~links rng))
  in
  let sum = Array.make n 0.0 in
  Array.iter
    (fun pmf ->
      for d = 0 to n - 1 do
        sum.(d) <- sum.(d) +. pmf.(d)
      done)
    pmfs;
  figure5_finish ~networks ~n sum

let figure6_par ?(n = 1 lsl 15) ?links ?(networks = 10) ?(messages = 100)
    ?(fractions = [ 0.0; 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8 ]) ?jobs ~seed () =
  let links = match links with Some l -> l | None -> int_of_float (Theory.lg n) in
  (* One job per (fraction, network), each on its own seed stream. *)
  let sweep =
    Sweep.create
      ~run:(fun ~index:_ ~rng (fraction, _net) ->
        figure6_network ~n ~links ~messages ~fraction rng)
      (Sweep.grid2 fractions (List.init networks Fun.id))
  in
  let results = Sweep.run ?jobs ~seed sweep in
  (* grid2 is row-major, so a fraction's [networks] jobs are consecutive;
     folding them in index order keeps the output jobs-invariant. *)
  List.mapi
    (fun fi fraction ->
      figure6_row fraction (List.init networks (fun k -> results.((fi * networks) + k))))
    fractions

let table1_grid ?jobs ?(ns = [ 256; 1024; 4096; 16384 ]) ?(big = 1 lsl 14) ?(networks = 4)
    ?(messages = 200) ?(trials = 300) ~seed () =
  (* Each section is a self-contained closure that derives its own
     generator from [seed] (exactly as the sequential bench harness calls
     it), so running sections on pool workers is byte-identical to running
     them in a loop. *)
  let sections =
    [|
      (fun () ->
        ( "no failures, 1 link: T = O(H_n^2)  [Theorem 12]",
          sweep_single_link ~ns ~networks ~messages ~seed () ));
      (fun () ->
        ( Printf.sprintf "no failures, l links, n=%d: T = O(log^2 n / l)  [Theorem 13]" big,
          sweep_multi_link ~n:big ~links_list:[ 1; 2; 4; 8; 14 ] ~networks ~messages ~seed () ));
      (fun () ->
        ( "deterministic base-2 links: T <= ceil(log2 n)  [Theorem 14]",
          sweep_deterministic ~ns ~base:2 ~messages ~seed () ));
      (fun () ->
        ( "deterministic base-16 links: T <= ceil(log16 n)  [Theorem 14]",
          sweep_deterministic ~ns ~base:16 ~messages ~seed () ));
      (fun () ->
        ( Printf.sprintf "link failures, n=%d: T = O(log^2 n / p l)  [Theorem 15]" big,
          sweep_link_failure ~n:big ~probs:[ 1.0; 0.8; 0.6; 0.4; 0.2 ] ~networks ~messages ~seed
            () ));
      (fun () ->
        ( Printf.sprintf "geometric links + failures, n=%d: T = O(b log n / p)  [Theorem 16]" big,
          sweep_geometric_link_failure ~n:big ~base:2 ~probs:[ 1.0; 0.8; 0.6; 0.4 ] ~networks
            ~messages ~seed () ));
      (fun () ->
        ( Printf.sprintf "binomial node presence, n=%d, 1 link: T = O(log^2 n)  [Theorem 17]" big,
          sweep_binomial_nodes ~n:big ~links:1 ~probs:[ 1.0; 0.7; 0.5; 0.3 ] ~networks ~messages
            ~seed () ));
      (fun () ->
        ( Printf.sprintf "node failures, n=%d: T = O(log^2 n / (1-p) l)  [Theorem 18]" big,
          sweep_node_failure ~n:big ~probs:[ 0.0; 0.2; 0.4; 0.6 ] ~networks ~messages ~seed () ));
      (fun () ->
        ( "one-sided greedy vs Omega(log^2 n / l loglog n)  [Theorem 10]",
          sweep_lower_bound ~ns ~links:3 ~trials ~seed () ));
    |]
  in
  Array.to_list (Pool.map ?jobs ~count:(Array.length sections) (fun i -> sections.(i) ()))
