module Engine = Ftr_sim.Engine
module Overlay = Ftr_p2p.Overlay
module Protocol = Ftr_p2p.Protocol
module Churn = Ftr_p2p.Churn
module Rng = Ftr_prng.Rng

let make ?(line_size = 256) ?(links = 6) ?(seed = 5) () =
  let engine = Engine.create () in
  let overlay = Overlay.create ~line_size ~links ~rng:(Rng.of_int seed) engine in
  (engine, overlay)

let populate_evenly overlay ~line_size ~count =
  Overlay.populate overlay ~positions:(List.init count (fun i -> i * line_size / count))

(* ------------------------------------------------------------------ *)
(* Static overlay                                                      *)
(* ------------------------------------------------------------------ *)

let populate_counts () =
  let _, overlay = make () in
  populate_evenly overlay ~line_size:256 ~count:32;
  Alcotest.(check int) "node count" 32 (Overlay.node_count overlay);
  Alcotest.(check int) "positions listed" 32 (List.length (Overlay.live_positions overlay));
  Alcotest.(check bool) "alive" true (Overlay.is_alive overlay 0);
  Alcotest.(check bool) "vacant" false (Overlay.is_alive overlay 1)

let lookup_resolves_to_basin_owner () =
  let engine, overlay = make () in
  populate_evenly overlay ~line_size:256 ~count:32;
  (* Nodes at multiples of 8; target 13 is owned by 16 (|16-13| < |8-13|)
     unless greedy stops earlier — ownership means no live node closer. *)
  let result = ref None in
  Overlay.lookup overlay ~from:0 ~target:13
    ~callback:(fun ~owner ~hops:_ -> result := Some owner)
    ();
  Engine.run engine;
  (match !result with
  | Some owner -> Alcotest.(check bool) "owner adjacent to target" true (abs (owner - 13) <= 5)
  | None -> Alcotest.fail "lookup did not resolve");
  let s = Overlay.stats overlay in
  Alcotest.(check int) "one success" 1 s.Overlay.lookups_ok;
  Alcotest.(check int) "no failures" 0 s.Overlay.lookups_failed

let lookup_for_own_position () =
  let engine, overlay = make () in
  populate_evenly overlay ~line_size:256 ~count:32;
  let result = ref None in
  Overlay.lookup overlay ~from:8 ~target:8 ~callback:(fun ~owner ~hops -> result := Some (owner, hops)) ();
  Engine.run engine;
  Alcotest.(check (option (pair int int))) "resolves locally" (Some (8, 0)) !result

let lookups_all_succeed_statically () =
  let engine, overlay = make ~line_size:1024 ~links:8 () in
  populate_evenly overlay ~line_size:1024 ~count:128;
  let r = Rng.of_int 77 in
  for _ = 1 to 100 do
    let positions = Array.of_list (Overlay.live_positions overlay) in
    let from = positions.(Rng.int r (Array.length positions)) in
    Overlay.lookup overlay ~from ~target:(Rng.int r 1024) ()
  done;
  Engine.run engine;
  let s = Overlay.stats overlay in
  Alcotest.(check int) "all resolved" 100 s.Overlay.lookups_ok;
  Alcotest.(check int) "none failed" 0 s.Overlay.lookups_failed

let lookup_ttl_limits () =
  (* A tiny TTL makes distant lookups fail instead of looping. *)
  let engine = Engine.create () in
  let overlay = Overlay.create ~ttl:2 ~line_size:1024 ~links:1 ~rng:(Rng.of_int 60) engine in
  populate_evenly overlay ~line_size:1024 ~count:128;
  for _ = 1 to 40 do
    Overlay.lookup overlay ~from:0 ~target:1000 ()
  done;
  Engine.run engine;
  let s = Overlay.stats overlay in
  Alcotest.(check int) "all resolved one way" 40 (s.Overlay.lookups_ok + s.Overlay.lookups_failed);
  Alcotest.(check bool)
    (Printf.sprintf "ttl killed most (%d failed)" s.Overlay.lookups_failed)
    true
    (s.Overlay.lookups_failed > 30)

let lookup_rejects_dead_source () =
  let _, overlay = make () in
  populate_evenly overlay ~line_size:256 ~count:8;
  Alcotest.check_raises "dead source"
    (Invalid_argument "Overlay.lookup: source is not a live node") (fun () ->
      Overlay.lookup overlay ~from:3 ~target:10 ())

(* ------------------------------------------------------------------ *)
(* Join                                                                *)
(* ------------------------------------------------------------------ *)

let join_inserts_into_ring () =
  let engine, overlay = make () in
  populate_evenly overlay ~line_size:256 ~count:16;
  Overlay.join overlay ~pos:100 ~via:0;
  Engine.run engine;
  Alcotest.(check bool) "joined" true (Overlay.is_alive overlay 100);
  Alcotest.(check int) "population grew" 17 (Overlay.node_count overlay)

let joined_node_is_lookup_target () =
  let engine, overlay = make () in
  populate_evenly overlay ~line_size:256 ~count:16;
  Overlay.join overlay ~pos:101 ~via:0;
  Engine.run engine;
  (* A lookup for the new node's position must now resolve to it. *)
  let result = ref None in
  Overlay.lookup overlay ~from:0 ~target:101 ~callback:(fun ~owner ~hops:_ -> result := Some owner) ();
  Engine.run engine;
  Alcotest.(check (option int)) "new node owns its point" (Some 101) !result

let joined_node_can_look_up () =
  let engine, overlay = make () in
  populate_evenly overlay ~line_size:256 ~count:16;
  Overlay.join overlay ~pos:77 ~via:0;
  Engine.run engine;
  let result = ref None in
  Overlay.lookup overlay ~from:77 ~target:240 ~callback:(fun ~owner ~hops:_ -> result := Some owner) ();
  Engine.run engine;
  Alcotest.(check bool) "resolved" true (Option.is_some !result)

let join_occupied_rejected () =
  let _, overlay = make () in
  populate_evenly overlay ~line_size:256 ~count:16;
  Alcotest.check_raises "occupied" (Invalid_argument "Overlay.join: position occupied")
    (fun () -> Overlay.join overlay ~pos:0 ~via:16)

let many_joins_build_network () =
  let engine, overlay = make ~line_size:512 ~links:4 ~seed:8 () in
  ignore (Overlay.bootstrap_node overlay ~pos:0);
  ignore (Overlay.bootstrap_node overlay ~pos:256);
  (* Wire the two seeds by hand via populate-like ring: joining does it. *)
  let r = Rng.of_int 9 in
  let joined = ref 2 in
  for _ = 1 to 60 do
    let pos = Rng.int r 512 in
    if not (Overlay.is_alive overlay pos) then begin
      Overlay.join overlay ~pos ~via:0;
      incr joined;
      Engine.run engine
    end
  done;
  Alcotest.(check int) "all joins survived" !joined (Overlay.node_count overlay);
  (* The grown network routes. *)
  let ok = ref 0 in
  let positions = Array.of_list (Overlay.live_positions overlay) in
  for _ = 1 to 50 do
    let from = positions.(Rng.int r (Array.length positions)) in
    Overlay.lookup overlay ~from ~target:(Rng.int r 512)
      ~callback:(fun ~owner:_ ~hops:_ -> incr ok)
      ()
  done;
  Engine.run engine;
  Alcotest.(check int) "all post-join lookups succeed" 50 !ok

(* ------------------------------------------------------------------ *)
(* Failures and self-healing                                           *)
(* ------------------------------------------------------------------ *)

let crash_then_lookup_self_heals () =
  let engine, overlay = make ~line_size:1024 ~links:8 () in
  populate_evenly overlay ~line_size:1024 ~count:128;
  (* Crash a band of nodes. *)
  let r = Rng.of_int 13 in
  let victims = ref 0 in
  List.iter
    (fun pos ->
      if Rng.bernoulli r 0.25 && Overlay.node_count overlay > 8 then begin
        Overlay.crash overlay ~pos;
        incr victims
      end)
    (Overlay.live_positions overlay);
  Alcotest.(check bool) "some victims" true (!victims > 0);
  (* Lookups still resolve (possibly after repairs). *)
  let positions = Array.of_list (Overlay.live_positions overlay) in
  for _ = 1 to 80 do
    let from = positions.(Rng.int r (Array.length positions)) in
    Overlay.lookup overlay ~from ~target:(Rng.int r 1024) ()
  done;
  Engine.run engine;
  let s = Overlay.stats overlay in
  Alcotest.(check int) "all resolved" 80 (s.Overlay.lookups_ok + s.Overlay.lookups_failed);
  Alcotest.(check bool)
    (Printf.sprintf "most lookups survive (%d ok)" s.Overlay.lookups_ok)
    true
    (s.Overlay.lookups_ok >= 72);
  Alcotest.(check bool) "repairs happened" true (s.Overlay.repairs > 0)

let leave_splices_ring () =
  let engine, overlay = make () in
  populate_evenly overlay ~line_size:256 ~count:16;
  Overlay.leave overlay ~pos:16;
  Alcotest.(check bool) "gone" false (Overlay.is_alive overlay 16);
  (* Routing across the gap still works without probes. *)
  Overlay.lookup overlay ~from:0 ~target:32 ();
  Engine.run engine;
  let s = Overlay.stats overlay in
  Alcotest.(check int) "resolved" 1 s.Overlay.lookups_ok

let crash_is_idempotent () =
  let _, overlay = make () in
  populate_evenly overlay ~line_size:256 ~count:8;
  Overlay.crash overlay ~pos:0;
  Overlay.crash overlay ~pos:0;
  let s = Overlay.stats overlay in
  Alcotest.(check int) "one crash" 1 s.Overlay.crashes

(* ------------------------------------------------------------------ *)
(* Asynchrony                                                          *)
(* ------------------------------------------------------------------ *)

let jittered_latency_still_resolves () =
  (* The protocol's conclusions must not depend on synchrony: under
     heavy-tailed per-message delays, lookups still all resolve. *)
  let engine = Engine.create () in
  let overlay =
    Overlay.create
      ~latency_model:(Ftr_sim.Latency.exponential ~mean:1.0)
      ~line_size:1024 ~links:8 ~rng:(Rng.of_int 90) engine
  in
  populate_evenly overlay ~line_size:1024 ~count:128;
  let r = Rng.of_int 91 in
  for _ = 1 to 100 do
    let positions = Array.of_list (Overlay.live_positions overlay) in
    let from = positions.(Rng.int r (Array.length positions)) in
    Overlay.lookup overlay ~from ~target:(Rng.int r 1024) ()
  done;
  Engine.run engine;
  let s = Overlay.stats overlay in
  Alcotest.(check int) "all resolved under jitter" 100 s.Overlay.lookups_ok;
  Alcotest.(check bool) "virtual time advanced irregularly" true (Engine.now engine > 0.0)

let jittered_join_works () =
  let engine = Engine.create () in
  let overlay =
    Overlay.create
      ~latency_model:(Ftr_sim.Latency.uniform ~lo:0.5 ~hi:2.0)
      ~line_size:512 ~links:6 ~rng:(Rng.of_int 92) engine
  in
  populate_evenly overlay ~line_size:512 ~count:32;
  Overlay.join overlay ~pos:101 ~via:0;
  Engine.run engine;
  Alcotest.(check bool) "joined under jitter" true (Overlay.is_alive overlay 101);
  let found = ref None in
  Overlay.lookup overlay ~from:0 ~target:101 ~callback:(fun ~owner ~hops:_ -> found := Some owner) ();
  Engine.run engine;
  Alcotest.(check (option int)) "lookup finds it" (Some 101) !found

(* ------------------------------------------------------------------ *)
(* Stabilization                                                       *)
(* ------------------------------------------------------------------ *)

let stabilization_heals_idle_overlay () =
  let engine, overlay = make ~line_size:1024 ~links:8 ~seed:50 () in
  populate_evenly overlay ~line_size:1024 ~count:128;
  (* Crash a quarter of the nodes with NO lookup traffic at all. *)
  let r = Rng.of_int 51 in
  List.iter
    (fun pos ->
      if Rng.bernoulli r 0.25 && Overlay.node_count overlay > 16 then
        Overlay.crash overlay ~pos)
    (Overlay.live_positions overlay);
  (* Background stabilization runs alone for a while. *)
  Overlay.enable_stabilization ~period:5.0 ~checks_per_tick:32 ~until:2000.0 overlay;
  Engine.run ~until:2000.0 engine;
  let s = Overlay.stats overlay in
  Alcotest.(check bool)
    (Printf.sprintf "repairs happened (%d)" s.Overlay.repairs)
    true (s.Overlay.repairs > 0);
  Alcotest.(check bool) "probes paid" true (s.Overlay.probes > 0);
  (* The healed overlay routes cleanly. *)
  let positions = Array.of_list (Overlay.live_positions overlay) in
  for _ = 1 to 60 do
    let from = positions.(Rng.int r (Array.length positions)) in
    Overlay.lookup overlay ~from ~target:(Rng.int r 1024) ()
  done;
  Engine.run engine;
  Alcotest.(check int) "all lookups succeed after healing" 60 s.Overlay.lookups_ok

let stabilization_stops_at_horizon () =
  let engine, overlay = make ~seed:52 () in
  populate_evenly overlay ~line_size:256 ~count:16;
  Overlay.enable_stabilization ~period:1.0 ~until:50.0 overlay;
  Engine.run engine;
  (* The engine drains: no perpetual timer survives the horizon. *)
  Alcotest.(check int) "queue empty" 0 (Engine.pending_events engine);
  Alcotest.(check bool) "clock stopped near horizon" true (Engine.now engine <= 51.0)

let stabilization_rejects_bad_config () =
  let _, overlay = make ~seed:53 () in
  Alcotest.check_raises "bad period"
    (Invalid_argument "Overlay.enable_stabilization: period must be positive") (fun () ->
      Overlay.enable_stabilization ~period:0.0 ~until:10.0 overlay)

(* ------------------------------------------------------------------ *)
(* Join cost                                                           *)
(* ------------------------------------------------------------------ *)

let join_cost_grows_slowly () =
  let rows = Churn.join_cost ~links:6 ~joins:30 ~line_sizes:[ 512; 4096 ] () in
  match rows with
  | [ small; large ] ->
      Alcotest.(check bool) "positive cost" true (small.Churn.mean_messages_per_join > 0.0);
      (* 8x the network must cost far less than 8x the messages —
         logarithmic growth means roughly +30-60%. *)
      Alcotest.(check bool)
        (Printf.sprintf "messages/join: %.1f -> %.1f" small.Churn.mean_messages_per_join
           large.Churn.mean_messages_per_join)
        true
        (large.Churn.mean_messages_per_join < 3.0 *. small.Churn.mean_messages_per_join);
      (* Lookups per join are ~1 + links + Poisson(links), independent of n. *)
      Alcotest.(check bool) "lookups/join flat" true
        (abs_float (large.Churn.mean_lookups_per_join -. small.Churn.mean_lookups_per_join)
        < 4.0)
  | _ -> Alcotest.fail "expected two rows"

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)
(* ------------------------------------------------------------------ *)

module Recovery = Ftr_p2p.Recovery

let recovery_run () =
  Recovery.run ~line_size:2048 ~kill_fraction:0.3 ~period:10.0 ~checks_per_tick:16 ~samples:8
    ~probes_per_sample:80 ~seed:70 ()

let recovery_burden_decays () =
  let r = recovery_run () in
  match (r.Recovery.samples, List.rev r.Recovery.samples) with
  | first :: _, last :: _ ->
      Alcotest.(check bool)
        (Printf.sprintf "probes/lookup %.2f -> %.2f" first.Recovery.probes_per_lookup
           last.Recovery.probes_per_lookup)
        true
        (last.Recovery.probes_per_lookup < first.Recovery.probes_per_lookup /. 2.0);
      Alcotest.(check bool) "repairs accumulate" true
        (last.Recovery.repairs_so_far > first.Recovery.repairs_so_far)
  | _ -> Alcotest.fail "no samples recorded"

let recovery_success_holds () =
  let r = recovery_run () in
  Alcotest.(check int) "all samples recorded" 8 (List.length r.Recovery.samples);
  Alcotest.(check bool) "a real wound" true (r.Recovery.killed > 30);
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "t=%.0f success %.3f" s.Recovery.time s.Recovery.success_rate)
        true
        (s.Recovery.success_rate > 0.95))
    r.Recovery.samples

let churn_sweep_healthy () =
  let rows =
    Recovery.churn_sweep ~line_size:1024 ~duration:300.0 ~rates:[ 0.05; 0.5 ] ~seed:71 ()
  in
  Alcotest.(check int) "two rows" 2 (List.length rows);
  List.iter
    (fun row ->
      Alcotest.(check bool) "healthy lookups" true
        (row.Recovery.report.Churn.success_rate > 0.95))
    rows;
  match rows with
  | [ calm; stormy ] ->
      Alcotest.(check bool) "more churn, more repairs" true
        (stormy.Recovery.report.Churn.repairs >= calm.Recovery.report.Churn.repairs)
  | _ -> Alcotest.fail "expected two rows"

let recovery_rejects () =
  Alcotest.check_raises "bad fraction"
    (Invalid_argument "Recovery.run: kill_fraction must be in [0,1)") (fun () ->
      ignore (Recovery.run ~kill_fraction:1.0 ()))

(* ------------------------------------------------------------------ *)
(* Churn                                                               *)
(* ------------------------------------------------------------------ *)

let churn_run_reports () =
  let report =
    Churn.run
      ~config:
        {
          Churn.duration = 300.0;
          join_rate = 0.05;
          crash_rate = 0.02;
          leave_rate = 0.02;
          lookup_rate = 0.5;
          min_nodes = 8;
        }
      ~seed:21 ~line_size:512 ~initial_nodes:64 ~links:6 ()
  in
  Alcotest.(check bool) "lookups issued" true (report.Churn.lookups_issued > 50);
  Alcotest.(check bool)
    (Printf.sprintf "high success rate %.3f" report.Churn.success_rate)
    true
    (report.Churn.success_rate > 0.9);
  Alcotest.(check bool) "population survived" true (report.Churn.final_nodes >= 8);
  Alcotest.(check bool) "messages flowed" true (report.Churn.messages > 0)

let churn_deterministic_by_seed () =
  let run () =
    Churn.run
      ~config:
        {
          Churn.duration = 100.0;
          join_rate = 0.1;
          crash_rate = 0.05;
          leave_rate = 0.0;
          lookup_rate = 1.0;
          min_nodes = 4;
        }
      ~seed:33 ~line_size:256 ~initial_nodes:32 ~links:4 ()
  in
  let a = run () and b = run () in
  Alcotest.(check int) "same lookups" a.Churn.lookups_issued b.Churn.lookups_issued;
  Alcotest.(check int) "same successes" a.Churn.lookups_ok b.Churn.lookups_ok;
  Alcotest.(check int) "same messages" a.Churn.messages b.Churn.messages;
  Alcotest.(check int) "same population" a.Churn.final_nodes b.Churn.final_nodes

let churn_respects_min_nodes () =
  let report =
    Churn.run
      ~config:
        {
          Churn.duration = 500.0;
          join_rate = 0.0;
          crash_rate = 0.5;
          leave_rate = 0.5;
          lookup_rate = 0.1;
          min_nodes = 10;
        }
      ~seed:44 ~line_size:256 ~initial_nodes:32 ~links:4 ()
  in
  Alcotest.(check bool) "floor held" true (report.Churn.final_nodes >= 10)

let churn_rejects_bad_setup () =
  Alcotest.check_raises "too few nodes"
    (Invalid_argument "Churn.run: need at least two initial nodes") (fun () ->
      ignore (Churn.run ~line_size:64 ~initial_nodes:1 ~links:2 ()))

(* ------------------------------------------------------------------ *)
(* Random operation sequences (state-machine property)                 *)
(* ------------------------------------------------------------------ *)

type op = Join | Crash | Leave | Lookup

let op_gen =
  QCheck.Gen.frequency
    [ (2, QCheck.Gen.return Join); (1, QCheck.Gen.return Crash); (1, QCheck.Gen.return Leave);
      (4, QCheck.Gen.return Lookup) ]

let prop_random_operations_preserve_invariants =
  QCheck.Test.make ~name:"random op sequences keep the protocol consistent" ~count:25
    QCheck.(make (Gen.pair Gen.small_int (Gen.list_size (Gen.int_range 5 60) op_gen)))
    (fun (seed, ops) ->
      let line_size = 512 in
      let engine = Engine.create () in
      let overlay = Overlay.create ~line_size ~links:4 ~rng:(Rng.of_int seed) engine in
      Overlay.populate overlay ~positions:(List.init 32 (fun i -> i * 16));
      let r = Rng.of_int (seed + 1) in
      let expected = ref 32 in
      let protocol_joins = ref 0 in
      List.iter
        (fun op ->
          (match op with
          | Join ->
              let pos = Rng.int r line_size in
              let vias = Array.of_list (Overlay.live_positions overlay) in
              if (not (Overlay.is_alive overlay pos)) && Array.length vias > 0 then begin
                Overlay.join overlay ~pos ~via:(Rng.pick r vias);
                incr expected;
                incr protocol_joins
              end
          | Crash ->
              if Overlay.node_count overlay > 4 then begin
                let victims = Array.of_list (Overlay.live_positions overlay) in
                Overlay.crash overlay ~pos:(Rng.pick r victims);
                decr expected
              end
          | Leave ->
              if Overlay.node_count overlay > 4 then begin
                let victims = Array.of_list (Overlay.live_positions overlay) in
                Overlay.leave overlay ~pos:(Rng.pick r victims);
                decr expected
              end
          | Lookup ->
              let sources = Array.of_list (Overlay.live_positions overlay) in
              if Array.length sources > 0 then
                Overlay.lookup overlay ~from:(Rng.pick r sources) ~target:(Rng.int r line_size)
                  ());
          (* Let each operation's traffic settle before the next, as a
             sequential client would. *)
          Engine.run engine)
        ops;
      Engine.run engine;
      let s = Overlay.stats overlay in
      (* Invariants: population accounting exact; every user lookup
         resolved one way or the other; no queued events left. *)
      Overlay.node_count overlay = !expected
      && s.Overlay.lookups_ok + s.Overlay.lookups_failed = s.Overlay.lookups_issued
      (* Each protocol join issues at least its placement lookup (the 32
         populate bootstraps issue none). *)
      && s.Overlay.maintenance_issued >= !protocol_joins
      && Engine.pending_events engine = 0)

(* ------------------------------------------------------------------ *)
(* Shared protocol rules                                               *)
(* ------------------------------------------------------------------ *)

let node_with ?left ?right pos long =
  let n = Protocol.node pos in
  n.left <- left;
  n.right <- right;
  n.long <- long;
  n

let remove_long_drops_one_copy () =
  let n = node_with 50 [ 70; 20; 70; 90 ] in
  Protocol.remove_long n 70;
  Alcotest.(check (list int)) "first copy gone" [ 20; 70; 90 ] n.long;
  Protocol.remove_long n 33;
  Alcotest.(check (list int)) "absent link is a no-op" [ 20; 70; 90 ] n.long

(* Run [f] on a fresh stream and count the raw draws it consumed, by
   matching the stream's next output against a copy taken before. *)
let with_draw_count f =
  let rng = Rng.of_int 11 in
  let before = Rng.copy rng in
  let result = f rng in
  let next = Rng.bits rng in
  let rec count k = if k > 4 then -1 else if Rng.bits before = next then k else count (k + 1) in
  (result, count 0)

let redirect_draws () =
  let draws n ~newcomer = with_draw_count (fun rng -> Protocol.redirect rng n ~newcomer) in
  (* No long links, or the newcomer is the node itself: no draw. *)
  Alcotest.(check (pair (option int) int)) "empty" (None, 0) (draws (node_with 500 []) ~newcomer:3);
  Alcotest.(check (pair (option int) int))
    "self" (None, 0)
    (draws (node_with 500 [ 501 ]) ~newcomer:500);
  (* A far newcomer against a link at distance 1: accepted with
     probability 0.002 — rejected here after one draw. *)
  let far = node_with 500 [ 501 ] in
  Alcotest.(check (pair (option int) int)) "reject" (None, 1) (draws far ~newcomer:0);
  Alcotest.(check (list int)) "reject keeps the links" [ 501 ] far.long;
  (* A newcomer at distance 1 against two far links: accepted with
     probability 0.994, then a second draw picks the victim. *)
  let near = node_with 0 [ 400; 300 ] in
  match draws near ~newcomer:1 with
  | Some victim, 2 ->
      Alcotest.(check (list int))
        "victim swapped for the newcomer"
        (1 :: List.filter (fun l -> l <> victim) [ 400; 300 ])
        near.long
  | r, k ->
      Alcotest.failf "accept: expected a victim after two draws, got %s after %d"
        (match r with Some v -> string_of_int v | None -> "none")
        k

let verdict_walk_order () =
  let n = node_with ~left:40 ~right:60 50 [ 10; 90; 55 ] in
  let target = 58 in
  let choice = Protocol.best_candidate ~pos:50 ~target (Protocol.neighbors n) in
  let walk =
    Protocol.fold_verdicts n ~target choice
      (fun acc ~cand ~dist v -> (cand, dist, Ftr_obs.Tracing.verdict_label v) :: acc)
      []
  in
  Alcotest.(check (list (triple int int string)))
    "rejected in neighbour order, then the pick"
    [
      (40, 18, "not_closer");
      (10, 48, "not_closer");
      (90, 32, "not_closer");
      (55, 3, "not_best");
      (60, 2, "chosen");
    ]
    (List.rev walk);
  Alcotest.(check (list (triple int int string)))
    "an owner lists every neighbour as not closer" [ (40, 10, "not_closer") ]
    (Protocol.fold_verdicts (node_with ~left:40 50 []) ~target:50 None
       (fun acc ~cand ~dist v -> (cand, dist, Ftr_obs.Tracing.verdict_label v) :: acc)
       [])

(* ------------------------------------------------------------------ *)
(* Pinned churn run                                                    *)
(* ------------------------------------------------------------------ *)

(* A seeded churn run through every protocol path — protocol joins,
   crashes, graceful leaves, background stabilization, link regeneration
   and jittered delivery — digested down to the final statistics and
   every node's (pos, alive, left, right, long). Any change to a routing,
   repair, redirect or splice decision, or to the order of RNG draws,
   moves the digest. *)
let churn_pin_digest () =
  let line_size = 1024 in
  let engine = Engine.create () in
  let overlay =
    Overlay.create
      ~latency_model:(Ftr_sim.Latency.uniform ~lo:0.5 ~hi:2.0)
      ~line_size ~links:4 ~rng:(Rng.of_int 2024) engine
  in
  populate_evenly overlay ~line_size ~count:48;
  Overlay.enable_stabilization ~period:3.0 ~checks_per_tick:4 ~until:450.0 overlay;
  let r = Rng.of_int 2025 in
  for step = 1 to 150 do
    let live = Array.of_list (Overlay.live_positions overlay) in
    (match Rng.int r 8 with
    | 0 | 1 ->
        let pos = Rng.int r line_size in
        if not (Overlay.is_alive overlay pos) then
          Overlay.join overlay ~pos ~via:(Rng.pick r live)
    | 2 -> if Array.length live > 8 then Overlay.crash overlay ~pos:(Rng.pick r live)
    | 3 -> if Array.length live > 8 then Overlay.leave overlay ~pos:(Rng.pick r live)
    | _ -> Overlay.lookup overlay ~from:(Rng.pick r live) ~target:(Rng.int r line_size) ());
    Engine.run ~until:(3.0 *. float_of_int step) engine
  done;
  Engine.run engine;
  let b = Buffer.create 4096 in
  let s = Overlay.stats overlay in
  List.iter
    (fun v -> Buffer.add_string b (string_of_int v ^ ","))
    [
      s.Overlay.lookups_issued; s.lookups_ok; s.lookups_failed; s.hops_on_success;
      s.maintenance_issued; s.maintenance_failed; s.messages; s.probes; s.repairs; s.joins;
      s.crashes; s.leaves;
    ];
  let nodes = ref [] in
  Overlay.iter_nodes overlay (fun (n : Protocol.node) ->
      nodes := (n.pos, n.alive, n.left, n.right, n.long) :: !nodes);
  let opt = function Some p -> string_of_int p | None -> "-" in
  List.iter
    (fun (pos, alive, left, right, long) ->
      Buffer.add_string b
        (Printf.sprintf "\n%d %b %s %s [%s]" pos alive (opt left) (opt right)
           (String.concat ";" (List.map string_of_int long))))
    (List.sort (fun (a, _, _, _, _) (b, _, _, _, _) -> Int.compare a b) !nodes);
  (s, Digest.to_hex (Digest.string (Buffer.contents b)))

let churn_run_pinned () =
  let s, digest = churn_pin_digest () in
  Alcotest.(check bool) "every path exercised" true
    (s.Overlay.joins > 48 && s.Overlay.crashes > 0 && s.Overlay.leaves > 0
    && s.Overlay.repairs > 0);
  Alcotest.(check string) "stats and node state digest" "920d3c687463f1be4f57b545d2081890" digest

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "p2p"
    [
      ( "static",
        [
          quick "populate" populate_counts;
          quick "lookup resolves to basin owner" lookup_resolves_to_basin_owner;
          quick "lookup for own position" lookup_for_own_position;
          quick "all lookups succeed" lookups_all_succeed_statically;
          quick "ttl limits lookups" lookup_ttl_limits;
          quick "rejects dead source" lookup_rejects_dead_source;
        ] );
      ( "join",
        [
          quick "inserts into ring" join_inserts_into_ring;
          quick "joined node is a lookup target" joined_node_is_lookup_target;
          quick "joined node can look up" joined_node_can_look_up;
          quick "occupied position rejected" join_occupied_rejected;
          quick "many joins build a routable network" many_joins_build_network;
        ] );
      ( "failures",
        [
          quick "crash then self-heal" crash_then_lookup_self_heals;
          quick "graceful leave splices ring" leave_splices_ring;
          quick "crash idempotent" crash_is_idempotent;
        ] );
      ( "asynchrony",
        [
          quick "lookups resolve under heavy-tailed delays" jittered_latency_still_resolves;
          quick "joins work under jitter" jittered_join_works;
        ] );
      ( "stabilization",
        [
          quick "heals an idle overlay" stabilization_heals_idle_overlay;
          quick "stops at the horizon" stabilization_stops_at_horizon;
          quick "rejects bad config" stabilization_rejects_bad_config;
        ] );
      ("join-cost", [ quick "grows logarithmically" join_cost_grows_slowly ]);
      ( "recovery",
        [
          quick "repair burden decays" recovery_burden_decays;
          quick "success holds throughout" recovery_success_holds;
          quick "churn sweep keeps lookups healthy" churn_sweep_healthy;
          quick "rejects bad parameters" recovery_rejects;
        ] );
      ( "churn",
        [
          quick "run reports sanely" churn_run_reports;
          quick "deterministic by seed" churn_deterministic_by_seed;
          quick "respects population floor" churn_respects_min_nodes;
          quick "rejects bad setup" churn_rejects_bad_setup;
        ] );
      ( "protocol",
        [
          quick "remove_long drops one copy" remove_long_drops_one_copy;
          quick "redirect draws 0, 1 or 2 floats" redirect_draws;
          quick "verdict walk order" verdict_walk_order;
        ] );
      ("pins", [ quick "churn run pinned" churn_run_pinned ]);
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_random_operations_preserve_invariants ] );
    ]
