(* Every metric the benchmark prints, with its unit. BENCHMARK.json at
   the repository root lists the same names and units; run.py refuses a
   result whose metric set differs from it.

   End-to-end metrics are printed by every untraced run and are defined
   on every workload (see README.md for what each one times where).
   Per-layer metrics are printed by every traced run; a layer that a
   workload never calls reports 0 there. *)

let end_to_end =
  [ ("setup_s", "s"); ("lookups_per_s", "1/s"); ("mean_hops", "hops"); ("peak_rss_mb", "MB") ]

let per_layer =
  [
    ("overlay.populate_s", "s");
    ("service.of_overlay_s", "s");
    ("driver.control_s", "s");
    ("driver.control_share", "ratio");
    ("service.step_s", "s");
    ("service.step_p50_us", "us");
    ("service.step_p99_us", "us");
    ("service.rounds", "count");
    ("service.drain_s", "s");
    ("service.drain_rounds", "count");
    ("service.envelopes_handled", "count");
    ("service.envelopes_per_lookup", "ratio");
    ("service.bounces", "count");
    ("service.repairs", "count");
    ("service.redirects", "count");
    ("service.lookup_wall_p50_ms", "ms");
    ("service.lookup_wall_p99_ms", "ms");
    ("service.lookup_p50_ticks", "ticks");
    ("service.lookup_p99_ticks", "ticks");
    ("service.p99_hops", "hops");
    ("mailbox.high_water_max", "count");
    ("mailbox.dropped", "count");
    ("mailbox.dead_letters", "count");
    ("pool.step_jobs2_over_jobs1", "ratio");
    ("pool.batch_efficiency", "ratio");
    ("network.build_s", "s");
    ("network.build_nodes_per_s", "1/s");
    ("network.builds", "count");
    ("network.build_share", "ratio");
    ("network.csr_bytes", "bytes");
    ("network.csr_bytes_per_l2", "ratio");
    ("snapshot.save_s", "s");
    ("snapshot.load_s", "s");
    ("snapshot.bytes", "bytes");
    ("route_batch.run_s", "s");
    ("route_batch.hops_per_s", "1/s");
    ("route_batch.p99_hops", "hops");
    ("route.hops_per_s", "1/s");
    ("route.call_p50_us", "us");
    ("route.call_p99_us", "us");
    ("route.hops_per_route", "hops");
    ("route.cache_penalty", "ratio");
    ("failure.view_s", "s");
    ("experiment.pairs_s", "s");
    ("experiment.measure_s.terminate", "s");
    ("experiment.measure_s.reroute", "s");
    ("experiment.measure_s.backtrack", "s");
    ("experiment.hops_per_s.backtrack", "1/s");
    ("lookup.failed_frac", "ratio");
    ("trace.coverage", "ratio");
    ("trace.overhead", "ratio");
  ]

(* What one run measured: metric name -> value. *)
type sheet = (string, float) Hashtbl.t

let sheet () : sheet = Hashtbl.create 64

let set (s : sheet) name v =
  if not (List.mem_assoc name end_to_end || List.mem_assoc name per_layer) then
    invalid_arg ("Catalogue.set: unknown metric " ^ name);
  Hashtbl.replace s name v

(* The "metrics" object of the result line for one catalogue. *)
let to_json catalogue (s : sheet) =
  let module J = Ftr_obs.Json in
  J.Obj
    (List.map
       (fun (name, unit) ->
         let v = Option.value (Hashtbl.find_opt s name) ~default:0.0 in
         (name, J.Obj [ ("value", J.Float v); ("unit", J.String unit) ]))
       catalogue)
