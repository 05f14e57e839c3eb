(* serve_churn: the actor service under balanced churn, driven as an
   open loop in simulated time — Driver.run issues [rate] lookups every
   tick whatever has completed. Joins (0.75/tick) match crashes plus
   leaves (0.5 + 0.25), so the overlay keeps its size instead of
   shrinking to a handful of nodes. This is the only workload that runs
   the actor service, its mailboxes and the resident pool's rounds; it
   never touches the CSR router. *)

module D = Ftr_svc.Driver
module S = Ftr_svc.Service
module M = Ftr_svc.Message
module J = Ftr_obs.Json
module O = Outcome

(* The timed calls run on one domain, where the resident pool steps
   each round inline. At jobs = 2 it spawns two workers beside the
   driving domain: three domains on a host of two vCPUs shared with
   other tenants, each round waiting at the barrier, and each
   stop-the-world minor collection, for whichever the host has
   descheduled. The same call then varied by half its time within one
   run, against a few percent on one domain. The barrier is still
   measured, by the traced replay at jobs = 2
   ([pool.step_jobs2_over_jobs1]). *)
let jobs = 1

(* Ticks per timed call: many short calls, so that the reported rate is
   a median over about ten of them in a 20-second run. *)
let timed_ticks = 256

(* Ticks of the traced replay: a p99 of the round time needs at least a
   thousand rounds. *)
let traced_ticks = 1024

let config ~seed ~jobs ~ticks =
  {
    D.default_config with
    line_size = 16384;
    initial = 1024;
    links = 8;
    seed;
    ticks;
    rate = 64;
    join_rate = 0.75;
    crash_rate = 0.5;
    leave_rate = 0.25;
    stabilize = 2;
    jobs = Some jobs;
  }

let params cfg =
  J.Obj
    [
      ("line_size", J.Int cfg.D.line_size);
      ("initial", J.Int cfg.D.initial);
      ("links", J.Int cfg.D.links);
      ("ticks", J.Int cfg.D.ticks);
      ("rate", J.Int cfg.D.rate);
      ("join_rate", J.Float cfg.D.join_rate);
      ("crash_rate", J.Float cfg.D.crash_rate);
      ("leave_rate", J.Float cfg.D.leave_rate);
      ("stabilize", J.Int cfg.D.stabilize);
      ("jobs", J.Int (Option.value cfg.D.jobs ~default:0));
    ]

(* What Driver.run does before its tick loop. *)
let of_overlay cfg ov =
  S.of_overlay ?capacity:cfg.D.capacity ~ttl:cfg.D.ttl ~regenerate:cfg.D.regenerate
    ~shards:cfg.D.shards ~record:cfg.D.record ~seed:cfg.D.seed ov

(* Share of lookups not delivered: answered "stuck", timed out at
   shutdown or dropped by a full mailbox. *)
let failed_frac r =
  float_of_int (r.D.rp_failed + r.D.rp_timed_out + r.D.rp_dropped) /. float_of_int r.D.rp_issued

(* Lookups the service lost — never answered, or dropped by a full
   mailbox. A lookup answered "stuck" completed: it counts only in
   [failed_frac]. *)
let lost r = r.D.rp_timed_out + r.D.rp_dropped

(* Simulated lookup latency, issue to completion, in ticks. A lookup
   that was not delivered never completes: it counts as infinitely late,
   so it misses any latency limit. *)
let lookup_ticks svc =
  let acc = ref [] in
  S.iter_requests svc (fun rv ->
      let t =
        match rv.S.rv_outcome with
        | Some (M.Delivered _) -> float_of_int (rv.S.rv_done_at - rv.S.rv_issued)
        | Some (M.Failed _) | None -> infinity
      in
      acc := t :: !acc);
  Stats.sorted (Array.of_list !acc)

let check_run o res =
  List.iter (fun p -> O.check o false "serve invariant: %s" p) (D.invariant_problems res)

let untraced o ~seed ~seconds =
  let cfg = config ~seed ~jobs ~ticks:timed_ticks in
  O.note o "params" (params cfg);
  let setups =
    Array.init 25 (fun _ -> snd (O.timed (fun () -> ignore (of_overlay cfg (D.build_overlay cfg)))))
  in
  let summary res =
    check_run o res;
    (res.D.res_report, lookup_ticks res.D.res_service)
  in
  let calls = O.repeat ~seconds ~keep:summary (fun () -> D.run cfg) in
  O.set o "peak_rss_mb" (Host.peak_rss_mb ());
  let (r, ticks), _ = List.hd calls in
  let lines = D.report_lines ~wall:false r in
  List.iter
    (fun ((rep, _), _) ->
      O.check o
        (D.report_lines ~wall:false rep = lines)
        "serve: a repeated Driver.run with the same seed reported differently")
    calls;
  let rates =
    Array.of_list (List.map (fun ((rep, _), dt) -> float_of_int rep.D.rp_issued /. dt) calls)
  in
  O.check o (Stats.supports (Array.length ticks) 99.0) "serve: too few lookups for p99";
  o.O.attempted <- List.fold_left (fun acc ((rep, _), _) -> acc + rep.D.rp_issued) 0 calls;
  o.O.failed <- List.fold_left (fun acc ((rep, _), _) -> acc + lost rep) 0 calls;
  O.set o "setup_s" (Stats.median setups);
  O.set o "lookups_per_s" (Stats.median rates);
  O.set o "mean_hops" r.D.rp_mean_hops;
  O.note_timing o "setup_s" setups;
  O.note_timing o "lookups_per_s" rates;
  O.note_timing o "driver_run_s" (Array.of_list (List.map snd calls));
  O.note o "lookup_p50_ticks" (J.Float (Stats.percentile_sorted ticks 50.0));
  O.note o "lookup_p99_ticks" (J.Float (Stats.percentile_sorted ticks 99.0));
  O.note o "p99_hops" (J.Int r.D.rp_p99_hops);
  O.note o "failed_frac" (J.Float (failed_frac r));
  O.note o "report" (J.List (List.map (fun l -> J.String l) lines))

(* ------------------------------------------------------------------ *)
(* Traced replay                                                       *)
(* ------------------------------------------------------------------ *)

type replay = {
  result : D.result;
  drain_rounds : int;
  tick_begin : float array; (* wall clock as tick k's control starts *)
  tick_end : float array; (* ... and as its round ends *)
  drain_end : float;
}

(* Driver.run, call for call, with a span around each call into a
   layer. *)
let replay tr cfg =
  let span name f = Tracer.span tr name f in
  span "serve_churn" (fun () ->
      let ov = span "overlay.populate" (fun () -> D.build_overlay cfg) in
      let svc = span "service.of_overlay" (fun () -> of_overlay cfg ov) in
      let rng = Ftr_exec.Seed.rng_for ~seed:cfg.D.seed ~index:cfg.D.line_size in
      let tick_begin = Array.make cfg.D.ticks 0.0 and tick_end = Array.make cfg.D.ticks 0.0 in
      let wall0 = Tracer.now () in
      let drain_rounds =
        span "pool.resident" (fun () ->
            Ftr_exec.Pool.with_resident ?jobs:cfg.D.jobs (fun pool ->
                for k = 0 to cfg.D.ticks - 1 do
                  tick_begin.(k) <- Tracer.now ();
                  span "driver.control" (fun () -> D.control cfg rng svc);
                  span "service.step" (fun () -> S.step svc ~pool);
                  tick_end.(k) <- Tracer.now ()
                done;
                span "service.drain" (fun () -> S.drain svc ~pool)))
      in
      let drain_end = Tracer.now () in
      span "service.force_timeouts" (fun () -> S.force_timeouts svc);
      let wall = Tracer.now () -. wall0 in
      let report = D.report_of svc ~ticks:cfg.D.ticks ~wall in
      {
        result = { D.res_report = report; res_transcript = S.transcript svc; res_service = svc };
        drain_rounds;
        tick_begin;
        tick_end;
        drain_end;
      })

(* Wall latency of each delivered lookup, in ms, from the tick-boundary
   timestamps: from the start of the tick that issued it to the end of
   the round that completed it (the end of the drain for lookups that
   completed there). *)
let lookup_wall_ms rp =
  let acc = ref [] in
  let ticks = Array.length rp.tick_end in
  S.iter_requests rp.result.D.res_service (fun rv ->
      match rv.S.rv_outcome with
      | Some (M.Delivered _) ->
          let stop = if rv.S.rv_done_at < ticks then rp.tick_end.(rv.S.rv_done_at) else rp.drain_end in
          acc := (stop -. rp.tick_begin.(rv.S.rv_issued)) *. 1000.0 :: !acc
      | Some (M.Failed _) | None -> ());
  Stats.sorted (Array.of_list !acc)

let traced o ~seed =
  let cfg = config ~seed ~jobs ~ticks:traced_ticks in
  O.note o "params" (params cfg);
  let reference, untraced_s = O.timed (fun () -> D.run cfg) in
  let lines = D.report_lines ~wall:false reference.D.res_report in
  let tr = Tracer.create () in
  let rp = replay tr cfg in
  let tr2 = Tracer.create () in
  let rp2 = replay tr2 (config ~seed ~jobs:2 ~ticks:traced_ticks) in
  List.iter
    (fun (label, (rp : replay)) ->
      check_run o rp.result;
      O.check o
        (D.report_lines ~wall:false rp.result.D.res_report = lines)
        "serve: the traced replay at %s reports differently from Driver.run" label)
    [ ("jobs=1", rp); ("jobs=2", rp2) ];
  let svc = rp.result.D.res_service in
  let st = S.stats svc in
  let r = rp.result.D.res_report in
  let root = Tracer.root_s tr in
  let steps = Tracer.durations tr "service.step" in
  let wall_ms = lookup_wall_ms rp in
  let ticks = lookup_ticks svc in
  O.check o (Stats.supports (Array.length steps) 99.0) "serve: too few rounds for p99";
  O.check o (Stats.supports (Array.length wall_ms) 99.0) "serve: too few lookups for p99";
  let high_water = ref 0 in
  S.iter_actors svc (fun v -> high_water := max !high_water v.S.av_mail_high_water);
  o.O.attempted <- r.D.rp_issued;
  o.O.failed <- lost r;
  let set = O.set o in
  set "overlay.populate_s" (Tracer.self_s tr "overlay.populate");
  set "service.of_overlay_s" (Tracer.self_s tr "service.of_overlay");
  set "driver.control_s" (Tracer.self_s tr "driver.control");
  set "driver.control_share" (Tracer.self_s tr "driver.control" /. root);
  set "service.step_s" (Tracer.self_s tr "service.step");
  set "service.step_p50_us" (1e6 *. Stats.percentile steps 50.0);
  set "service.step_p99_us" (1e6 *. Stats.percentile steps 99.0);
  set "service.rounds" (float_of_int st.S.rounds);
  set "service.drain_s" (Tracer.self_s tr "service.drain");
  set "service.drain_rounds" (float_of_int rp.drain_rounds);
  set "service.envelopes_handled" (float_of_int st.S.handled);
  set "service.envelopes_per_lookup" (float_of_int st.S.handled /. float_of_int st.S.ok);
  set "service.bounces" (float_of_int st.S.bounces);
  set "service.repairs" (float_of_int st.S.repairs);
  set "service.redirects" (float_of_int st.S.redirects);
  set "service.lookup_wall_p50_ms" (Stats.percentile_sorted wall_ms 50.0);
  set "service.lookup_wall_p99_ms" (Stats.percentile_sorted wall_ms 99.0);
  set "service.lookup_p50_ticks" (Stats.percentile_sorted ticks 50.0);
  set "service.lookup_p99_ticks" (Stats.percentile_sorted ticks 99.0);
  set "service.p99_hops" (float_of_int r.D.rp_p99_hops);
  set "mailbox.high_water_max" (float_of_int !high_water);
  set "mailbox.dropped" (float_of_int st.S.dropped);
  set "mailbox.dead_letters" (float_of_int st.S.dead_letters);
  set "pool.step_jobs2_over_jobs1" (Tracer.self_s tr "service.step" /. Tracer.self_s tr2 "service.step");
  set "lookup.failed_frac" (failed_frac r);
  set "trace.coverage" (Tracer.coverage tr);
  set "trace.overhead" (root /. untraced_s);
  O.note o "layers" (Tracer.to_json tr);
  O.note o "layers_jobs2" (Tracer.to_json tr2)
