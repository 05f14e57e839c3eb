(* ftr-lint: disable-file D1 R2 T3 the suite deliberately drives Tracing/Events with the flag in every state (no-op asserts, with_recorder-gated bodies) and compares small concrete values *)
module Flag = Ftr_obs.Flag
module Json = Ftr_obs.Json
module Metrics = Ftr_obs.Metrics
module Span = Ftr_obs.Span
module Events = Ftr_obs.Events
module Export = Ftr_obs.Export
module Network = Ftr_core.Network
module Route = Ftr_core.Route
module Rng = Ftr_prng.Rng

(* Every test that turns telemetry on runs inside [Flag.with_mode true]
   so the global flag is restored even on failure; the registries are
   global too, so tests reset what they touch. *)

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                    *)
(* ------------------------------------------------------------------ *)

let metrics_counters () =
  let r = Metrics.create () in
  Flag.with_mode true @@ fun () ->
  Metrics.incr ~registry:r "requests";
  Metrics.incr ~registry:r "requests";
  Metrics.incr_by ~registry:r "requests" 3;
  Alcotest.(check int) "accumulates" 5 (Metrics.counter_value ~registry:r "requests");
  Alcotest.(check int) "absent reads zero" 0 (Metrics.counter_value ~registry:r "nope");
  Alcotest.check_raises "negative increment rejected"
    (Invalid_argument "Metrics.incr_by: counters only go up") (fun () ->
      Metrics.incr_by ~registry:r "requests" (-1))

let metrics_labels () =
  let r = Metrics.create () in
  Flag.with_mode true @@ fun () ->
  Metrics.incr ~registry:r ~labels:[ ("reason", "stuck") ] "fail";
  Metrics.incr ~registry:r ~labels:[ ("reason", "stuck") ] "fail";
  Metrics.incr ~registry:r ~labels:[ ("reason", "limit") ] "fail";
  (* Label order must not split a series. *)
  Metrics.incr ~registry:r ~labels:[ ("b", "2"); ("a", "1") ] "pair";
  Metrics.incr ~registry:r ~labels:[ ("a", "1"); ("b", "2") ] "pair";
  Alcotest.(check int) "stuck series" 2
    (Metrics.counter_value ~registry:r ~labels:[ ("reason", "stuck") ] "fail");
  Alcotest.(check int) "limit series" 1
    (Metrics.counter_value ~registry:r ~labels:[ ("reason", "limit") ] "fail");
  Alcotest.(check int) "label order canonicalised" 2
    (Metrics.counter_value ~registry:r ~labels:[ ("b", "2"); ("a", "1") ] "pair")

let metrics_gauges () =
  let r = Metrics.create () in
  Flag.with_mode true @@ fun () ->
  Alcotest.(check bool) "absent gauge is nan" true
    (Float.is_nan (Metrics.gauge_value ~registry:r "depth"));
  Metrics.set_gauge ~registry:r "depth" 4.0;
  Metrics.set_gauge ~registry:r "depth" 7.5;
  Alcotest.(check (float 1e-9)) "last write wins" 7.5 (Metrics.gauge_value ~registry:r "depth")

let metrics_kind_clash () =
  let r = Metrics.create () in
  Flag.with_mode true @@ fun () ->
  Metrics.incr ~registry:r "x";
  (match Metrics.set_gauge ~registry:r "x" 1.0 with
  | () -> Alcotest.fail "expected a kind clash to raise"
  | exception Invalid_argument _ -> ());
  match Metrics.observe ~registry:r "x" 1.0 with
  | () -> Alcotest.fail "expected a kind clash to raise"
  | exception Invalid_argument _ -> ()

let metrics_histogram () =
  let r = Metrics.create () in
  Flag.with_mode true @@ fun () ->
  List.iter (fun v -> Metrics.observe ~registry:r "lat" v) [ 0.5; 1.0; 2.0; 3.0; 100.0 ];
  let items = Metrics.snapshot ~registry:r () in
  Alcotest.(check int) "one item" 1 (List.length items);
  match (List.hd items).Metrics.item_view with
  | Metrics.Histogram_view h ->
      Alcotest.(check int) "count" 5 h.Metrics.h_count;
      Alcotest.(check (float 1e-9)) "sum" 106.5 h.Metrics.h_sum;
      Alcotest.(check (float 1e-9)) "min" 0.5 h.Metrics.h_min;
      Alcotest.(check (float 1e-9)) "max" 100.0 h.Metrics.h_max;
      Alcotest.(check int) "bucket counts cover every observation" 5
        (List.fold_left (fun acc (_, c) -> acc + c) 0 h.Metrics.h_buckets)
  | _ -> Alcotest.fail "expected a histogram view"

let metrics_reset () =
  let r = Metrics.create () in
  Flag.with_mode true @@ fun () ->
  Metrics.incr ~registry:r "a";
  Metrics.set_gauge ~registry:r "b" 1.0;
  Metrics.reset r;
  Alcotest.(check int) "empty after reset" 0 (Metrics.size ~registry:r ())

(* Bucket counts sum to the number of observations, whatever we throw at
   the log-scale bucketing. *)
let histogram_property =
  QCheck.Test.make ~name:"histogram buckets partition the observations" ~count:200
    QCheck.(list (int_range 0 10_000_000))
    (fun values ->
      Flag.with_mode true @@ fun () ->
      let r = Metrics.create () in
      List.iter (fun v -> Metrics.observe_int ~registry:r "h" v) values;
      match Metrics.snapshot ~registry:r () with
      | [] -> values = []
      | [ { Metrics.item_view = Metrics.Histogram_view h; _ } ] ->
          h.Metrics.h_count = List.length values
          && List.fold_left (fun acc (_, c) -> acc + c) 0 h.Metrics.h_buckets
             = List.length values
      | _ -> false)

(* Within-bucket linear interpolation makes histogram quantiles exact
   enough to assert: observations 1,2,3,4 land in log2 buckets
   (1,1),(2,1),(4,2), so p50 sits at the top of the (1,2] bucket and p99
   interpolates 98% into (2,4]. The old log-linear rule would give
   2·2^0.98 ≈ 3.945 for p99 — these checks pin the linear answer. *)
let quantile_exact_values () =
  let r = Metrics.create () in
  Flag.with_mode true @@ fun () ->
  List.iter (fun v -> Metrics.observe ~registry:r "q" v) [ 1.0; 2.0; 3.0; 4.0 ];
  match Metrics.snapshot ~registry:r () with
  | [ { Metrics.item_view = Metrics.Histogram_view h; _ } ] ->
      Alcotest.(check (float 1e-9)) "p50" 2.0 (Metrics.histogram_quantile h 0.5);
      Alcotest.(check (float 1e-9)) "p99" 3.96 (Metrics.histogram_quantile h 0.99);
      Alcotest.(check (float 1e-9)) "p100 is the max" 4.0 (Metrics.histogram_quantile h 1.0);
      Alcotest.(check (float 1e-9)) "p0 clamps to the min" 1.0 (Metrics.histogram_quantile h 0.0)
  | _ -> Alcotest.fail "expected exactly one histogram"

let quantile_single_bucket () =
  let r = Metrics.create () in
  Flag.with_mode true @@ fun () ->
  (* Both observations share the (2,4] bucket: the median interpolates
     halfway up, and low quantiles clamp to the observed minimum. *)
  List.iter (fun v -> Metrics.observe ~registry:r "q" v) [ 3.0; 4.0 ];
  match Metrics.snapshot ~registry:r () with
  | [ { Metrics.item_view = Metrics.Histogram_view h; _ } ] ->
      Alcotest.(check (float 1e-9)) "p50 fills the bucket uniformly" 3.0
        (Metrics.histogram_quantile h 0.5);
      Alcotest.(check (float 1e-9)) "p1 clamps to the min" 3.0
        (Metrics.histogram_quantile h 0.01)
  | _ -> Alcotest.fail "expected exactly one histogram"

(* ------------------------------------------------------------------ *)
(* Span profiler                                                       *)
(* ------------------------------------------------------------------ *)

let with_fake_clock f =
  let fake = ref 0.0 in
  Span.set_clock (fun () -> !fake);
  Span.reset ();
  let finally () =
    Span.reset ();
    Span.set_clock (fun () -> Unix.gettimeofday ())
  in
  Fun.protect ~finally (fun () -> f fake)

let span_nesting () =
  with_fake_clock @@ fun fake ->
  Flag.with_mode true @@ fun () ->
  Span.enter "outer";
  fake := 1.0;
  Span.enter "inner";
  Alcotest.(check int) "two open spans" 2 (Span.depth ());
  fake := 3.0;
  Span.leave "inner";
  fake := 6.0;
  Span.leave "outer";
  Alcotest.(check int) "all closed" 0 (Span.depth ());
  (match Span.find "inner" with
  | Some s ->
      Alcotest.(check int) "inner count" 1 s.Span.count;
      Alcotest.(check (float 1e-9)) "inner total" 2.0 s.Span.total
  | None -> Alcotest.fail "inner span not recorded");
  match Span.find "outer" with
  | Some s -> Alcotest.(check (float 1e-9)) "outer total includes inner" 6.0 s.Span.total
  | None -> Alcotest.fail "outer span not recorded"

let span_mismatch () =
  with_fake_clock @@ fun _fake ->
  Flag.with_mode true @@ fun () ->
  Span.enter "a";
  match Span.leave "b" with
  | () -> Alcotest.fail "mismatched leave must raise"
  | exception Invalid_argument _ -> ()

let span_percentiles () =
  with_fake_clock @@ fun fake ->
  Flag.with_mode true @@ fun () ->
  for i = 1 to 100 do
    let start = !fake in
    Span.time "work" (fun () -> fake := start +. float_of_int i)
  done;
  match Span.find "work" with
  | None -> Alcotest.fail "span not recorded"
  | Some s ->
      Alcotest.(check int) "count" 100 s.Span.count;
      Alcotest.(check (float 1e-6)) "total" 5050.0 s.Span.total;
      Alcotest.(check (float 1e-6)) "min" 1.0 s.Span.min_s;
      Alcotest.(check (float 1e-6)) "max" 100.0 s.Span.max_s;
      Alcotest.(check bool) "p50 in the middle" true (s.Span.p50 >= 45.0 && s.Span.p50 <= 55.0);
      Alcotest.(check bool) "p99 near the top" true (s.Span.p99 >= 95.0 && s.Span.p99 <= 100.0);
      Alcotest.(check bool) "p50 below p99" true (s.Span.p50 < s.Span.p99)

let span_time_propagates () =
  with_fake_clock @@ fun _fake ->
  Flag.with_mode true @@ fun () ->
  Alcotest.(check int) "returns the body's value" 41 (Span.time "ret" (fun () -> 41));
  (match Span.time "boom" (fun () -> failwith "inner") with
  | _ -> Alcotest.fail "exception must propagate"
  | exception Failure m -> Alcotest.(check string) "original exception" "inner" m);
  Alcotest.(check int) "stack unwound after the exception" 0 (Span.depth ())

(* ------------------------------------------------------------------ *)
(* Event sink                                                          *)
(* ------------------------------------------------------------------ *)

let events_jsonl () =
  Flag.with_mode true @@ fun () ->
  Events.reset ();
  Events.set_sampling ~every:1;
  let (), out =
    Events.with_buffer (fun () ->
        Events.emit ~kind:"test"
          [ ("msg", Json.String "quote\" back\\slash\nnewline\ttab \x01 control") ];
        Events.emit ~time:1.25 ~kind:"test"
          [ ("n", Json.Int 42); ("x", Json.Float 0.5); ("flag", Json.Bool true) ])
  in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' out) in
  Alcotest.(check int) "one line per event" 2 (List.length lines);
  List.iter
    (fun line ->
      match Json.parse line with
      | Json.Obj fields ->
          Alcotest.(check bool) "kind field present" true (List.mem_assoc "kind" fields)
      | _ -> Alcotest.fail "event line is not an object"
      | exception Json.Parse_error m -> Alcotest.fail ("malformed JSONL line: " ^ m))
    lines;
  (* The tricky string survives a round trip through the encoder+parser. *)
  match Json.member "msg" (Json.parse (List.hd lines)) with
  | Some (Json.String s) ->
      Alcotest.(check string) "string round trip"
        "quote\" back\\slash\nnewline\ttab \x01 control" s
  | _ -> Alcotest.fail "msg field lost"

let events_sampling () =
  Flag.with_mode true @@ fun () ->
  Events.reset ();
  Events.set_sampling ~every:3;
  let finally () = Events.set_sampling ~every:1 in
  Fun.protect ~finally @@ fun () ->
  let (), out =
    Events.with_buffer (fun () ->
        for i = 1 to 7 do
          Events.emit ~kind:"tick" [ ("i", Json.Int i) ]
        done)
  in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' out) in
  Alcotest.(check int) "1st, 4th and 7th kept" 3 (List.length lines);
  Alcotest.(check int) "emitted counter" 3 (Events.emitted ());
  Alcotest.(check int) "suppressed counter" 4 (Events.suppressed ());
  let kept =
    List.map
      (fun line ->
        match Json.member "i" (Json.parse line) with Some (Json.Int i) -> i | _ -> -1)
      lines
  in
  Alcotest.(check (list int)) "deterministic choice" [ 1; 4; 7 ] kept

(* FTR_OBS_SINK=<path> redirects the JSONL stream to a file when no
   programmatic sink is installed; [with_buffer] (and any [set_sink])
   takes precedence while active. Must run before any test that installs
   a sink via [set_sink], because an explicit installation permanently
   outranks the env redirect. *)
let events_env_sink () =
  Flag.with_mode true @@ fun () ->
  Events.reset ();
  Events.set_sampling ~every:1;
  let path = Filename.temp_file "ftr_obs_sink" ".jsonl" in
  Unix.putenv "FTR_OBS_SINK" path;
  let finally () = Unix.putenv "FTR_OBS_SINK" "" in
  Fun.protect ~finally @@ fun () ->
  Events.emit ~kind:"env_redirect" [ ("n", Json.Int 1) ];
  Events.emit ~kind:"env_redirect" [ ("n", Json.Int 2) ];
  (* A buffer sink installed mid-stream wins over the env redirect... *)
  let (), buffered =
    Events.with_buffer (fun () -> Events.emit ~kind:"env_redirect" [ ("n", Json.Int 3) ])
  in
  (* ...and the env sink takes back over once it is gone. *)
  Events.emit ~kind:"env_redirect" [ ("n", Json.Int 4) ];
  Events.flush_sink ();
  let lines =
    List.filter (fun l -> l <> "") (In_channel.with_open_text path In_channel.input_lines)
  in
  Sys.remove path;
  Alcotest.(check int) "env file got the unbuffered events" 3 (List.length lines);
  let ns =
    List.map
      (fun line ->
        match Json.member "n" (Json.parse line) with Some (Json.Int i) -> i | _ -> -1)
      lines
  in
  Alcotest.(check (list int)) "buffered event bypassed the file" [ 1; 2; 4 ] ns;
  match Json.member "n" (Json.parse (String.trim buffered)) with
  | Some (Json.Int 3) -> ()
  | _ -> Alcotest.fail "with_buffer did not capture the bracketed event"

(* The exit hook entry points install: a programmatic channel sink gets
   its tail flushed by the same [flush_sink] the hook runs, and the hook
   installs exactly once however often it is requested. The at_exit
   behaviour itself can't be observed inside the test process, so the
   test drives [flush_sink] directly — the hook is just [at_exit] around
   it. *)
let events_exit_flush () =
  Flag.with_mode true @@ fun () ->
  Events.reset ();
  Events.set_sampling ~every:1;
  let path = Filename.temp_file "ftr_obs_exitflush" ".jsonl" in
  let oc = open_out path in
  Events.set_sink (Some (Events.To_channel oc));
  let finally () =
    Events.set_sink None;
    close_out_noerr oc;
    Sys.remove path
  in
  Fun.protect ~finally @@ fun () ->
  Events.install_exit_flush ();
  Events.install_exit_flush ();
  (* idempotent: still one hook *)
  Events.emit ~kind:"exit_flush" [ ("n", Json.Int 1) ];
  Events.emit ~kind:"exit_flush" [ ("n", Json.Int 2) ];
  Events.flush_sink ();
  let lines =
    List.filter (fun l -> l <> "") (In_channel.with_open_text path In_channel.input_lines)
  in
  Alcotest.(check int) "both events on disk after the flush" 2 (List.length lines)

let events_off_without_sink () =
  Flag.with_mode true @@ fun () ->
  Events.reset ();
  Events.set_sink None;
  Events.emit ~kind:"void" [];
  Alcotest.(check int) "nothing emitted without a sink" 0 (Events.emitted ())

(* ------------------------------------------------------------------ *)
(* Disabled-overhead smoke check                                       *)
(* ------------------------------------------------------------------ *)

let disabled_overhead () =
  Flag.with_mode false @@ fun () ->
  Metrics.reset Metrics.default;
  Span.reset ();
  (* The guard itself must not allocate: a loop of flag checks moves the
     minor allocation pointer by (about) nothing. *)
  let before = Gc.minor_words () in
  for _ = 1 to 50_000 do
    if Flag.enabled () then Metrics.incr "never";
    Span.enter "never";
    Span.leave "never"
  done;
  let delta = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "guarded loop allocates nothing (%.0f minor words)" delta)
    true (delta < 256.0);
  (* Instrumented hot paths leave no trace in the registries when off. *)
  let rng = Rng.of_int 7 in
  let net = Network.build_ideal ~n:256 ~links:4 rng in
  for _ = 1 to 32 do
    ignore
      (Route.route ~strategy:(Route.Backtrack { history = 5 }) ~rng net ~src:(Rng.int rng 256)
         ~dst:(Rng.int rng 256))
  done;
  Alcotest.(check int) "metrics registry untouched" 0 (Metrics.size ());
  Alcotest.(check (list string)) "no spans recorded" []
    (List.map (fun s -> s.Span.span_name) (Span.stats ()))

(* ------------------------------------------------------------------ *)
(* Instrumentation end to end                                          *)
(* ------------------------------------------------------------------ *)

let route_instrumentation () =
  Flag.with_mode true @@ fun () ->
  Metrics.reset Metrics.default;
  Span.reset ();
  Events.reset ();
  let rng = Rng.of_int 11 in
  let (), out =
    Events.with_buffer (fun () ->
        let net = Network.build_ideal ~n:256 ~links:4 rng in
        for _ = 1 to 20 do
          let src = Rng.int rng 256 and dst = Rng.int rng 256 in
          if src <> dst then ignore (Route.route ~rng net ~src ~dst)
        done)
  in
  let hops_count =
    List.fold_left
      (fun acc it ->
        match it.Metrics.item_view with
        | Metrics.Histogram_view h when it.Metrics.item_name = "route_hops" ->
            acc + h.Metrics.h_count
        | _ -> acc)
      0 (Metrics.snapshot ())
  in
  Alcotest.(check bool) "route_hops recorded" true (hops_count > 0);
  Alcotest.(check bool) "network build span recorded" true
    (Span.find "network.build_ideal" <> None);
  List.iter
    (fun line ->
      match Json.parse line with
      | Json.Obj _ -> ()
      | _ -> Alcotest.fail "event line is not an object")
    (List.filter (fun l -> l <> "") (String.split_on_char '\n' out))

(* Membership changes reach the one event stream: every join, crash and
   leave is an [overlay.*] event carrying the node's position and the
   engine's sim time. *)
let overlay_membership_events () =
  Flag.with_mode true @@ fun () ->
  Events.reset ();
  Events.set_sampling ~every:1;
  let engine = Ftr_sim.Engine.create () in
  let overlay =
    Ftr_p2p.Overlay.create ~line_size:64 ~links:2 ~rng:(Rng.of_int 12) engine
  in
  Ftr_p2p.Overlay.populate overlay ~positions:[ 0; 16; 32; 48 ];
  let (), out =
    Events.with_buffer (fun () ->
        Ftr_p2p.Overlay.join overlay ~pos:8 ~via:0;
        Ftr_p2p.Overlay.crash overlay ~pos:32;
        Ftr_p2p.Overlay.leave overlay ~pos:48)
  in
  let membership =
    List.filter_map
      (fun line ->
        let j = Json.parse line in
        match (Json.member "kind" j, Json.member "pos" j, Json.member "time" j) with
        | Some (Json.String kind), Some (Json.Int pos), Some _
          when String.starts_with ~prefix:"overlay." kind ->
            Some (kind, pos)
        | _ -> None)
      (List.filter (fun l -> l <> "") (String.split_on_char '\n' out))
  in
  Alcotest.(check (list (pair string int)))
    "join, crash, leave in call order"
    [ ("overlay.join", 8); ("overlay.crash", 32); ("overlay.leave", 48) ]
    membership

let export_formats () =
  Flag.with_mode true @@ fun () ->
  let r = Metrics.create () in
  Metrics.incr ~registry:r ~labels:[ ("reason", "stuck") ] "fails";
  Metrics.set_gauge ~registry:r "depth" 3.0;
  Metrics.observe ~registry:r "lat" 2.5;
  let json = Export.json_snapshot ~registry:r () in
  (* The snapshot itself must be parseable by our own parser. *)
  (match Json.parse (Json.to_string json) with
  | Json.Obj fields ->
      List.iter
        (fun k -> Alcotest.(check bool) (k ^ " key present") true (List.mem_assoc k fields))
        [ "counters"; "gauges"; "histograms"; "spans" ]
  | _ -> Alcotest.fail "snapshot is not an object");
  let prom = Export.prometheus ~registry:r () in
  Alcotest.(check bool) "prometheus has type lines" true
    (String.length prom > 0
    && List.exists
         (fun l -> String.length l >= 6 && String.sub l 0 6 = "# TYPE")
         (String.split_on_char '\n' prom));
  let text = Export.text_report ~registry:r () in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) "text report mentions the counter" true
    (contains text "fails{reason=\"stuck\"}")

(* ------------------------------------------------------------------ *)
(* Route flight recorder                                               *)
(* ------------------------------------------------------------------ *)

module Tracing = Ftr_obs.Tracing

(* Recorder state is global; every test restores the defaults on the way
   out so later tests (and the default-on contract) see a clean slate. *)
let with_recorder f =
  Flag.with_mode true @@ fun () ->
  Tracing.reset ();
  Tracing.set_seed 42;
  Tracing.set_recording true;
  let finally () =
    Tracing.set_recording true;
    Tracing.force_full false;
    Tracing.set_sampling ~every:1;
    Tracing.set_capacity ~ring:32 ~pinned:16 ~steps:4096 ();
    Tracing.reset ()
  in
  Fun.protect ~finally f

let tracing_null_noop () =
  Flag.with_mode false @@ fun () ->
  Tracing.reset ();
  let tr = Tracing.begin_route ~src:1 ~dst:2 in
  Alcotest.(check bool) "not live with the flag off" false (Tracing.is_live tr);
  Tracing.hop tr ~node:3;
  Tracing.candidate tr ~cur:1 ~cand:3 ~dist:4 Tracing.Chosen;
  Tracing.backtrack tr ~from_node:3 ~to_node:1;
  Tracing.finish tr ~delivered:false ~hops:1 ~stuck_at:3 ~reason:"no_live_neighbor";
  Alcotest.(check int) "nothing retained" 0 (Tracing.retained_count ());
  Alcotest.(check int) "nothing completed" 0 (Tracing.completed ());
  Alcotest.(check int) "null holds no steps" 0 (Tracing.step_count tr)

let tracing_bounds () =
  with_recorder @@ fun () ->
  Tracing.force_full true;
  Tracing.set_capacity ~ring:4 ~pinned:2 ~steps:8 ();
  for i = 0 to 9 do
    let tr = Tracing.begin_route ~src:i ~dst:(i + 100) in
    Alcotest.(check bool) "live while recording" true (Tracing.is_live tr);
    for h = 1 to 20 do
      Tracing.hop tr ~node:h
    done;
    let delivered = i mod 2 = 0 in
    Tracing.finish tr ~delivered ~hops:20
      ~stuck_at:(if delivered then -1 else i)
      ~reason:(if delivered then "" else "no_live_neighbor")
  done;
  Alcotest.(check int) "ring bounded" 4 (Tracing.retained_count ());
  Alcotest.(check int) "pins bounded" 2 (Tracing.pinned_count ());
  Alcotest.(check int) "all completions counted" 10 (Tracing.completed ());
  Alcotest.(check int) "evictions counted" 6 (Tracing.evicted ());
  List.iter
    (fun tr ->
      Alcotest.(check int) "steps capped" 8 (Tracing.step_count tr);
      Alcotest.(check int) "drops counted" 12 (Tracing.dropped_steps tr))
    (Tracing.retained_traces ());
  (* Pins keep only failed routes; the ring keeps the newest of both. *)
  List.iter
    (fun tr ->
      match Json.member "status" (Tracing.to_json tr) with
      | Some (Json.String "failed") -> ()
      | _ -> Alcotest.fail "a pinned trace was not a failure")
    (Tracing.pinned_traces ())

let tracing_ids_and_sampling_deterministic () =
  with_recorder @@ fun () ->
  Tracing.set_sampling ~every:3;
  let fidelity_run () =
    Tracing.reset ();
    Tracing.set_seed 7;
    List.init 24 (fun i ->
        let tr = Tracing.begin_route ~src:i ~dst:(i + 1) in
        let id = Tracing.id_hex tr in
        Tracing.finish tr ~delivered:true ~hops:1 ~stuck_at:(-1) ~reason:"";
        match Json.member "full" (Tracing.to_json tr) with
        | Some (Json.Bool full) -> (id, full)
        | _ -> Alcotest.fail "trace json lacks a full field")
  in
  let a = fidelity_run () in
  let b = fidelity_run () in
  Alcotest.(check bool) "ids and sampling identical across runs" true (a = b);
  Alcotest.(check bool) "sampling keeps some traces full" true
    (List.exists (fun (_, full) -> full) a);
  Alcotest.(check bool) "sampling thins some traces to hops-only" true
    (List.exists (fun (_, full) -> not full) a)

(* The explain workflow in miniature: warmup routes replay through the
   pool with recording off, then route K records at full fidelity. The
   rendered trace, its Events replay and its Chrome export must be byte-
   identical whatever the worker count — including the sequential
   fallback — because trace identity is (seed, index) and workers
   suppress telemetry. *)
let trace_bytes ~seed ?jobs () =
  Flag.with_mode true @@ fun () ->
  Tracing.reset ();
  Tracing.set_seed seed;
  Tracing.set_recording true;
  Tracing.force_full true;
  let finally () =
    Tracing.set_recording true;
    Tracing.force_full false;
    Tracing.reset ()
  in
  Fun.protect ~finally @@ fun () ->
  let n = 256 in
  let rng = Rng.of_int seed in
  let net = Network.build_ideal ~n ~links:4 rng in
  let mask = Ftr_core.Failure.random_node_fraction rng ~n ~fraction:0.3 in
  let failures = Ftr_core.Failure.of_node_mask mask in
  let alive v = Ftr_graph.Bitset.get mask v in
  let route_one index =
    let rng = Ftr_exec.Seed.rng_for ~seed ~index in
    let rec pick () =
      let src = Rng.int rng n and dst = Rng.int rng n in
      if src <> dst && alive src && alive dst then (src, dst) else pick ()
    in
    let src, dst = pick () in
    ignore (Route.route ~failures ~strategy:(Route.Backtrack { history = 5 }) ~rng net ~src ~dst)
  in
  let (), _ =
    Events.with_buffer @@ fun () ->
    Tracing.set_recording false;
    ignore (Ftr_exec.Pool.map ?jobs ~count:5 (fun i -> route_one i));
    Tracing.set_recording true;
    Tracing.set_next_index 5;
    route_one 5
  in
  match Tracing.latest () with
  | None -> Alcotest.fail "no trace recorded"
  | Some tr ->
      Events.reset ();
      Events.set_sampling ~every:1;
      let (), jsonl = Events.with_buffer (fun () -> Tracing.emit_events tr) in
      Tracing.render tr ^ "\x00" ^ jsonl ^ "\x00" ^ Tracing.chrome_trace_string ~traces:[ tr ] ()

let tracing_jobs_invariant =
  QCheck.Test.make ~name:"trace bytes invariant across jobs and FTR_EXEC_SEQ" ~count:6
    QCheck.(int_range 0 1_000)
    (fun seed ->
      let reference = trace_bytes ~seed ~jobs:1 () in
      let sequential f =
        let saved = Sys.getenv_opt "FTR_EXEC_SEQ" in
        Unix.putenv "FTR_EXEC_SEQ" "1";
        let finally () = Unix.putenv "FTR_EXEC_SEQ" (Option.value saved ~default:"0") in
        Fun.protect ~finally f
      in
      String.equal reference (trace_bytes ~seed ~jobs:2 ())
      && String.equal reference (trace_bytes ~seed ~jobs:4 ())
      && String.equal reference (sequential (fun () -> trace_bytes ~seed ())))

(* With telemetry off entirely, a route across the whole 2^16-node line —
   65535 hops through the tracing-instrumented router — must stay inside
   the same minor-words budget the CSR tests enforce: the recorder costs
   one dead branch per hop, not an allocation. *)
let tracing_off_allocation_free () =
  Flag.with_mode false @@ fun () ->
  let n = 1 lsl 16 in
  let net = Network.build_ideal ~n ~links:0 (Rng.of_int 5) in
  let scratch = Route.scratch net in
  ignore (Route.route ~scratch net ~src:0 ~dst:1);
  let before = Gc.minor_words () in
  ignore (Route.route ~scratch net ~src:0 ~dst:(n - 1));
  let delta = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "a %d-hop route with tracing off allocates nothing (%.0f minor words)"
       (n - 1) delta)
    true (delta < 512.0)

(* ------------------------------------------------------------------ *)
(* JSON parser                                                         *)
(* ------------------------------------------------------------------ *)

let json_round_trip =
  let rec normalise = function
    | Json.List l -> Json.List (List.map normalise l)
    | Json.Obj l -> Json.Obj (List.map (fun (k, v) -> (k, normalise v)) l)
    | v -> v
  in
  QCheck.Test.make ~name:"json int/string round trip" ~count:300
    QCheck.(pair (list small_int) (list printable_string))
    (fun (ints, strings) ->
      let v =
        Json.Obj
          [
            ("ints", Json.List (List.map (fun i -> Json.Int i) ints));
            ("strings", Json.List (List.map (fun s -> Json.String s) strings));
          ]
      in
      normalise (Json.parse (Json.to_string v)) = normalise v)

let json_rejects () =
  List.iter
    (fun s ->
      match Json.parse_opt s with
      | None -> ()
      | Some _ -> Alcotest.fail (Printf.sprintf "parser accepted %S" s))
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated"; "{\"a\" 1}" ]

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          quick "counters" metrics_counters;
          quick "labelled series" metrics_labels;
          quick "gauges" metrics_gauges;
          quick "kind clash rejected" metrics_kind_clash;
          quick "histogram views" metrics_histogram;
          quick "reset" metrics_reset;
          quick "quantile exact values" quantile_exact_values;
          quick "quantile single bucket" quantile_single_bucket;
          QCheck_alcotest.to_alcotest histogram_property;
        ] );
      ( "span",
        [
          quick "nesting" span_nesting;
          quick "mismatched leave" span_mismatch;
          quick "percentiles" span_percentiles;
          quick "time returns and unwinds" span_time_propagates;
        ] );
      ( "events",
        [
          quick "jsonl well-formed" events_jsonl;
          quick "deterministic sampling" events_sampling;
          (* must precede any set_sink: an explicit installation
             permanently outranks the FTR_OBS_SINK redirect *)
          quick "env sink redirect and precedence" events_env_sink;
          quick "exit hook flushes programmatic channel sinks" events_exit_flush;
          quick "silent without sink" events_off_without_sink;
        ] );
      ( "overhead",
        [ quick "disabled paths do not allocate or record" disabled_overhead ] );
      ( "tracing",
        [
          quick "null trace is a no-op" tracing_null_noop;
          quick "ring, pin and step bounds" tracing_bounds;
          quick "ids and sampling deterministic" tracing_ids_and_sampling_deterministic;
          QCheck_alcotest.to_alcotest tracing_jobs_invariant;
          quick "tracing off allocates nothing" tracing_off_allocation_free;
        ] );
      ( "integration",
        [
          quick "route feeds metrics, spans and events" route_instrumentation;
          quick "overlay membership feeds events" overlay_membership_events;
          quick "export formats" export_formats;
        ] );
      ( "json",
        [ json_rejects |> quick "parser rejects malformed"; QCheck_alcotest.to_alcotest json_round_trip ] );
    ]
