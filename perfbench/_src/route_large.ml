(* route_large: a closed batch of uniform healthy lookups over an ideal
   1/d network of 2^20 nodes with 8 long links — 46 MB of CSR, many
   times any L2 — built, saved and reloaded through Snapshot, then
   routed by Route_batch on one domain with Terminate. The greedy
   kernel and its cache misses do almost all the work and failure
   handling is bypassed, so this is where cache-conscious routing must
   show its gain. *)

module N = Ftr_core.Network
module R = Ftr_core.Route
module Rng = Ftr_prng.Rng
module J = Ftr_obs.Json
module O = Outcome

let n = 1 lsl 20

let small_n = 1 lsl 16

let links = 8

(* The timed batch runs on one domain: on a host of two vCPUs shared
   with other tenants, two domains ran the same batch 1.75 times as fast
   but varied by 15% within one run, against under 1% on one. The
   traced run also routes the batch on [pool_jobs] domains, for the
   pool's efficiency. *)
let jobs = 1

let pool_jobs = 2

let pair_count = 200_000

(* Routed one at a time, for the equality checks and the single-domain
   kernel figures. *)
let sample_count = 20_000

let params =
  J.Obj
    [
      ("n", J.Int n);
      ("links", J.Int links);
      ("pairs", J.Int pair_count);
      ("sample", J.Int sample_count);
      ("cache_penalty_small_n", J.Int small_n);
      ("strategy", J.String "terminate");
      ("jobs", J.Int jobs);
      ("pool_jobs", J.Int pool_jobs);
    ]

let build ~seed ~n = N.build_ideal ~n ~links (Ftr_exec.Seed.rng_for ~seed ~index:0)

(* Uniform (src, dst) pairs with src <> dst, from their own stream. *)
let draw_pairs ~seed ~n ~count =
  let rng = Ftr_exec.Seed.rng_for ~seed ~index:1 in
  Array.init count (fun _ ->
      let src = Rng.int rng n in
      let rec dst () =
        let d = Rng.int rng n in
        if d = src then dst () else d
      in
      (src, dst ()))

let snapshot_path workdir = Filename.concat workdir "route_large.snap"

(* Build, save and reload: the set-up every run of this workload pays. *)
let setup ~seed ~path =
  let built, build_s = O.timed (fun () -> build ~seed ~n) in
  let (), save_s = O.timed (fun () -> Ftr_core.Snapshot.save built ~path) in
  let loaded, load_s = O.timed (fun () -> Ftr_core.Snapshot.load ~path ()) in
  (built, loaded, (build_s, save_s, load_s))

let batch ?(jobs = jobs) net ~pairs = Ftr_core.Route_batch.run ~jobs ~strategy:R.Terminate net ~pairs

(* Route [count] pairs one at a time on one domain with a caller-held
   scratch; the outcomes and each call's wall time. *)
let single net ~pairs ~count =
  let scratch = R.scratch net in
  let times = Array.make count 0.0 in
  let outcomes =
    Array.init count (fun i ->
        let src, dst = pairs.(i) in
        let t0 = Tracer.now () in
        let out = R.route ~scratch net ~src ~dst in
        times.(i) <- Tracer.now () -. t0;
        out)
  in
  (outcomes, times)

let total_hops outcomes = Array.fold_left (fun acc o -> acc + R.hops o) 0 outcomes

let all_delivered outcomes = Array.for_all R.delivered outcomes

let failed_frac outcomes =
  let undelivered = Array.fold_left (fun acc o -> if R.delivered o then acc else acc + 1) 0 outcomes in
  float_of_int undelivered /. float_of_int (Array.length outcomes)

let check_routing o ~built ~loaded ~pairs outcomes =
  O.check o (all_delivered outcomes) "route_large: a healthy lookup was not delivered";
  let single_loaded, _ = single loaded ~pairs ~count:sample_count in
  let single_built, _ = single built ~pairs ~count:sample_count in
  O.check o
    (single_loaded = Array.sub outcomes 0 sample_count)
    "route_large: Route.route one at a time disagrees with Route_batch";
  O.check o (single_built = single_loaded)
    "route_large: the snapshot-loaded network routes differently from the built one"

let hops_p99 outcomes =
  Stats.percentile (Array.map (fun o -> float_of_int (R.hops o)) outcomes) 99.0

let untraced o ~seed ~seconds ~workdir =
  O.note o "params" params;
  let path = snapshot_path workdir in
  (* Keep only the last set-up's networks, so that peak RSS holds one
     built and one loaded network. *)
  let last = ref None in
  let parts =
    Array.init 3 (fun _ ->
        last := None;
        Gc.full_major ();
        let built, loaded, times = setup ~seed ~path in
        last := Some (built, loaded);
        times)
  in
  let setups = Array.map (fun (b, s, l) -> b +. s +. l) parts in
  Sys.remove path;
  let built, loaded = Option.get !last in
  let pairs = draw_pairs ~seed ~n ~count:pair_count in
  (* Only the first call's outcomes are kept; later ones are compared
     with them and dropped. *)
  let first = ref None in
  let keep out =
    match !first with
    | None -> first := Some out
    | Some f -> O.check o (out = f) "route_large: a repeated batch routed differently"
  in
  let calls = O.repeat ~seconds ~keep (fun () -> batch loaded ~pairs) in
  let outcomes = Option.get !first in
  (* Before the checks, which route on one domain with scratch of their
     own. *)
  O.set o "peak_rss_mb" (Host.peak_rss_mb ());
  check_routing o ~built ~loaded ~pairs outcomes;
  let rates = Array.of_list (List.map (fun (_, dt) -> float_of_int pair_count /. dt) calls) in
  let mean_hops = float_of_int (total_hops outcomes) /. float_of_int pair_count in
  o.O.attempted <- pair_count * List.length calls;
  O.set o "setup_s" (Stats.median setups);
  O.set o "lookups_per_s" (Stats.median rates);
  O.set o "mean_hops" mean_hops;
  O.note_timing o "setup_s" setups;
  O.note_timing o "build_s" (Array.map (fun (b, _, _) -> b) parts);
  O.note_timing o "snapshot_save_s" (Array.map (fun (_, s, _) -> s) parts);
  O.note_timing o "snapshot_load_s" (Array.map (fun (_, _, l) -> l) parts);
  O.note_timing o "routes_per_s" rates;
  O.note o "p99_hops" (J.Float (hops_p99 outcomes));
  O.note o "failed_frac" (J.Float (failed_frac outcomes))

let traced o ~seed ~workdir =
  O.note o "params" params;
  let path = snapshot_path workdir in
  let tr = Tracer.create () in
  let span name f = Tracer.span tr name f in
  let outcomes, pooled, loaded, pairs, single_big, single_small =
    span "route_large" (fun () ->
        let built = span "network.build" (fun () -> build ~seed ~n) in
        span "snapshot.save" (fun () -> Ftr_core.Snapshot.save built ~path);
        let loaded = span "snapshot.load" (fun () -> Ftr_core.Snapshot.load ~path ()) in
        let pairs = span "bench.pairs" (fun () -> draw_pairs ~seed ~n ~count:pair_count) in
        let outcomes = span "route_batch.run" (fun () -> batch loaded ~pairs) in
        let pooled =
          span "route_batch.run_pool" (fun () -> batch ~jobs:pool_jobs loaded ~pairs)
        in
        let single_big = span "route.route" (fun () -> single loaded ~pairs ~count:sample_count) in
        let small = span "network.build" (fun () -> build ~seed ~n:small_n) in
        let small_pairs = span "bench.pairs" (fun () -> draw_pairs ~seed ~n:small_n ~count:sample_count) in
        let single_small =
          span "route.route_small_n" (fun () -> single small ~pairs:small_pairs ~count:sample_count)
        in
        span "bench.check" (fun () -> check_routing o ~built ~loaded ~pairs outcomes);
        (outcomes, pooled, loaded, pairs, single_big, single_small))
  in
  O.check o (pooled = outcomes) "route_large: the batch on %d domains routed differently" pool_jobs;
  (* The same batch untraced, for the tracing overhead. *)
  let _, untraced_batch = O.timed (fun () -> batch loaded ~pairs) in
  let snapshot_bytes = (Unix.stat path).Unix.st_size in
  Sys.remove path;
  let root = Tracer.root_s tr in
  let batch_s = Tracer.self_s tr "route_batch.run" in
  let batch_hops = total_hops outcomes in
  let big_outcomes, big_times = single_big in
  (* Kernel rates from the per-call times, so that allocating the
     scratch is not charged to routing. *)
  let hops_per_s (outcomes, times) =
    float_of_int (total_hops outcomes) /. Array.fold_left ( +. ) 0.0 times
  in
  let route_hops_per_s = hops_per_s single_big and small_hops_per_s = hops_per_s single_small in
  let build_s = Tracer.self_s tr "network.build" in
  let csr = N.csr loaded in
  let csr_bytes = 4 * (n + 1 + Ftr_graph.Adjacency.Csr.edge_count csr) in
  O.check o (Stats.supports (Array.length big_times) 99.0) "route_large: too few calls for p99";
  o.O.attempted <- pair_count;
  let set = O.set o in
  set "network.build_s" build_s;
  set "network.build_nodes_per_s" (float_of_int (n + small_n) /. build_s);
  set "network.builds" 2.0;
  set "network.build_share" (build_s /. root);
  set "network.csr_bytes" (float_of_int csr_bytes);
  set "network.csr_bytes_per_l2" (float_of_int csr_bytes /. float_of_int (max 1 (Host.l2_bytes ())));
  set "snapshot.save_s" (Tracer.self_s tr "snapshot.save");
  set "snapshot.load_s" (Tracer.self_s tr "snapshot.load");
  set "snapshot.bytes" (float_of_int snapshot_bytes);
  set "route_batch.run_s" batch_s;
  set "route_batch.hops_per_s" (float_of_int batch_hops /. batch_s);
  set "route_batch.p99_hops" (hops_p99 outcomes);
  set "route.hops_per_s" route_hops_per_s;
  set "route.call_p50_us" (1e6 *. Stats.percentile big_times 50.0);
  set "route.call_p99_us" (1e6 *. Stats.percentile big_times 99.0);
  set "route.hops_per_route" (float_of_int (total_hops big_outcomes) /. float_of_int sample_count);
  set "route.cache_penalty" (small_hops_per_s /. route_hops_per_s);
  set "pool.batch_efficiency"
    (float_of_int batch_hops
    /. Tracer.self_s tr "route_batch.run_pool"
    /. (float_of_int pool_jobs *. route_hops_per_s));
  set "lookup.failed_frac" (failed_frac outcomes);
  set "trace.coverage" (Tracer.coverage tr);
  set "trace.overhead" (batch_s /. untraced_batch);
  O.note o "layers" (Tracer.to_json tr)
