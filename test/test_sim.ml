(* ftr-lint: disable-file R2 T3 test assertions compare small concrete values *)
module Heap = Ftr_sim.Heap
module Engine = Ftr_sim.Engine

(* ------------------------------------------------------------------ *)
(* Heap                                                                *)
(* ------------------------------------------------------------------ *)

let heap_ordering () =
  let h = Heap.create ~compare in
  List.iter (Heap.push h) [ 5; 1; 4; 1; 3; 9; 0 ];
  Alcotest.(check (list int)) "sorted drain" [ 0; 1; 1; 3; 4; 5; 9 ] (Heap.to_sorted_list h);
  Alcotest.(check int) "drain did not consume" 7 (Heap.length h)

let heap_pop_order () =
  let h = Heap.create ~compare in
  List.iter (Heap.push h) [ 3; 1; 2 ];
  Alcotest.(check (option int)) "peek" (Some 1) (Heap.peek h);
  Alcotest.(check (option int)) "pop 1" (Some 1) (Heap.pop h);
  Alcotest.(check (option int)) "pop 2" (Some 2) (Heap.pop h);
  Alcotest.(check (option int)) "pop 3" (Some 3) (Heap.pop h);
  Alcotest.(check (option int)) "empty" None (Heap.pop h)

let heap_empty () =
  let h = Heap.create ~compare in
  Alcotest.(check bool) "is_empty" true (Heap.is_empty h);
  Alcotest.(check (option int)) "peek none" None (Heap.peek h);
  Alcotest.(check (list int)) "sorted empty" [] (Heap.to_sorted_list h)

let heap_clear () =
  let h = Heap.create ~compare in
  List.iter (Heap.push h) [ 1; 2; 3 ];
  Heap.clear h;
  Alcotest.(check bool) "cleared" true (Heap.is_empty h)

let heap_grows () =
  let h = Heap.create ~compare in
  for i = 1000 downto 1 do
    Heap.push h i
  done;
  Alcotest.(check int) "length" 1000 (Heap.length h);
  Alcotest.(check (option int)) "min" (Some 1) (Heap.peek h)

let prop_engine_executes_in_time_order =
  (* Random schedules (with cancellations) always execute in
     non-decreasing time order, and exactly the non-cancelled ones run. *)
  QCheck.Test.make ~name:"engine executes schedules in time order" ~count:100
    QCheck.(list_of_size (Gen.int_range 0 40) (pair (float_range 0.0 100.0) bool))
    (fun schedule ->
      let e = Engine.create () in
      let executed = ref [] in
      let expected = ref 0 in
      List.iter
        (fun (t, keep) ->
          let h = Engine.schedule_at e ~time:t (fun () -> executed := Engine.now e :: !executed) in
          if keep then incr expected else Engine.cancel e h)
        schedule;
      Engine.run e;
      let times = List.rev !executed in
      let rec sorted = function
        | a :: (b :: _ as rest) -> a <= b && sorted rest
        | _ -> true
      in
      List.length times = !expected && sorted times)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops in sorted order" ~count:300
    QCheck.(list small_int)
    (fun xs ->
      let h = Heap.create ~compare in
      List.iter (Heap.push h) xs;
      let rec drain acc = match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc) in
      drain [] = List.sort compare xs)

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let engine_time_order () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule_at e ~time:3.0 (fun () -> log := 3 :: !log));
  ignore (Engine.schedule_at e ~time:1.0 (fun () -> log := 1 :: !log));
  ignore (Engine.schedule_at e ~time:2.0 (fun () -> log := 2 :: !log));
  Engine.run e;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "clock at last event" 3.0 (Engine.now e)

let engine_fifo_ties () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Engine.schedule_at e ~time:1.0 (fun () -> log := i :: !log))
  done;
  Engine.run e;
  Alcotest.(check (list int)) "same-time events run FIFO" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let engine_schedule_after () =
  let e = Engine.create () in
  let seen = ref [] in
  ignore
    (Engine.schedule_at e ~time:5.0 (fun () ->
         ignore (Engine.schedule_after e ~delay:2.5 (fun () -> seen := Engine.now e :: !seen))));
  Engine.run e;
  Alcotest.(check (list (float 1e-9))) "relative delay" [ 7.5 ] !seen

let engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule_at e ~time:1.0 (fun () -> fired := true) in
  Engine.cancel e h;
  Engine.run e;
  Alcotest.(check bool) "cancelled event does not fire" false !fired;
  Alcotest.(check int) "nothing executed" 0 (Engine.executed_events e)

let engine_pending_accounting () =
  let e = Engine.create () in
  let h1 = Engine.schedule_at e ~time:1.0 (fun () -> ()) in
  ignore (Engine.schedule_at e ~time:2.0 (fun () -> ()));
  Alcotest.(check int) "two pending" 2 (Engine.pending_events e);
  Engine.cancel e h1;
  Alcotest.(check int) "one pending after cancel" 1 (Engine.pending_events e);
  Engine.run e;
  Alcotest.(check int) "none pending" 0 (Engine.pending_events e);
  Alcotest.(check int) "one executed" 1 (Engine.executed_events e)

let engine_run_until () =
  let e = Engine.create () in
  let log = ref [] in
  List.iter
    (fun t -> ignore (Engine.schedule_at e ~time:t (fun () -> log := t :: !log)))
    [ 1.0; 2.0; 3.0; 4.0 ];
  Engine.run ~until:2.5 e;
  Alcotest.(check (list (float 1e-9))) "stops at horizon" [ 1.0; 2.0 ] (List.rev !log);
  Engine.run e;
  Alcotest.(check int) "resumes" 4 (List.length !log)

let engine_max_events () =
  let e = Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Engine.schedule_at e ~time:(float_of_int i) (fun () -> incr count))
  done;
  Engine.run ~max_events:3 e;
  Alcotest.(check int) "bounded" 3 !count

let engine_rejects_past () =
  let e = Engine.create () in
  ignore (Engine.schedule_at e ~time:5.0 (fun () -> ()));
  Engine.run e;
  Alcotest.check_raises "past" (Invalid_argument "Engine.schedule_at: time in the past")
    (fun () -> ignore (Engine.schedule_at e ~time:1.0 (fun () -> ())))

let engine_cascading_events () =
  (* Events scheduling events: a chain of n self-propagating steps. *)
  let e = Engine.create () in
  let count = ref 0 in
  let rec step () =
    incr count;
    if !count < 100 then ignore (Engine.schedule_after e ~delay:1.0 step)
  in
  ignore (Engine.schedule_at e ~time:0.0 step);
  Engine.run e;
  Alcotest.(check int) "chain length" 100 !count;
  Alcotest.(check (float 1e-9)) "final time" 99.0 (Engine.now e)

let engine_drain () =
  let e = Engine.create () in
  ignore (Engine.schedule_at e ~time:1.0 (fun () -> Alcotest.fail "should not run"));
  Engine.drain e;
  Engine.run e;
  Alcotest.(check int) "drained" 0 (Engine.executed_events e)

(* ------------------------------------------------------------------ *)
(* Periodic                                                            *)
(* ------------------------------------------------------------------ *)

module Periodic = Ftr_sim.Periodic

let periodic_every_fires_to_horizon () =
  let e = Engine.create () in
  let count = ref 0 in
  Periodic.every e ~period:1.0 ~until:10.5 (fun () -> incr count);
  Engine.run e;
  Alcotest.(check int) "ten ticks" 10 !count;
  Alcotest.(check int) "queue drained" 0 (Engine.pending_events e)

let periodic_every_respects_start () =
  let e = Engine.create () in
  let first = ref nan in
  Periodic.every e ~period:2.5 ~until:100.0 (fun () ->
      if Float.is_nan !first then first := Engine.now e);
  Engine.run ~until:6.0 e;
  Alcotest.(check (float 1e-9)) "first tick one period in" 2.5 !first

let periodic_every_never_fires_past_horizon () =
  let e = Engine.create () in
  let count = ref 0 in
  Periodic.every e ~period:5.0 ~until:3.0 (fun () -> incr count);
  Engine.run e;
  Alcotest.(check int) "horizon before first tick" 0 !count

let periodic_poisson_rate () =
  let e = Engine.create () in
  let rng = Ftr_prng.Rng.of_int 99 in
  let count = ref 0 in
  Periodic.poisson e rng ~rate:2.0 ~until:1000.0 (fun () -> incr count);
  Engine.run e;
  (* Expect ~2000 events; allow 5 sigma. *)
  Alcotest.(check bool) (Printf.sprintf "%d events" !count) true
    (abs (!count - 2000) < 250)

let periodic_countdown () =
  let e = Engine.create () in
  let seen = ref [] in
  Periodic.countdown e ~period:1.0 ~times:4 (fun i -> seen := (i, Engine.now e) :: !seen);
  Engine.run e;
  Alcotest.(check (list (pair int (float 1e-9))))
    "indexed ticks"
    [ (0, 1.0); (1, 2.0); (2, 3.0); (3, 4.0) ]
    (List.rev !seen)

let periodic_rejects () =
  let e = Engine.create () in
  Alcotest.check_raises "bad period" (Invalid_argument "Periodic.every: period must be positive")
    (fun () -> Periodic.every e ~period:0.0 ~until:1.0 (fun () -> ()));
  Alcotest.check_raises "bad rate" (Invalid_argument "Periodic.poisson: rate must be positive")
    (fun () -> Periodic.poisson e (Ftr_prng.Rng.of_int 1) ~rate:0.0 ~until:1.0 (fun () -> ()))

(* ------------------------------------------------------------------ *)
(* Latency models                                                      *)
(* ------------------------------------------------------------------ *)

module Latency = Ftr_sim.Latency

let latency_constant () =
  let m = Latency.constant 2.5 in
  let rng = Ftr_prng.Rng.of_int 1 in
  for _ = 1 to 20 do
    Alcotest.(check (float 1e-12)) "always the same" 2.5 (Latency.sample m rng)
  done;
  Alcotest.(check (float 1e-12)) "mean" 2.5 (Latency.mean m)

let latency_uniform_range () =
  let m = Latency.uniform ~lo:1.0 ~hi:3.0 in
  let rng = Ftr_prng.Rng.of_int 2 in
  let s = Ftr_stats.Summary.create () in
  for _ = 1 to 10_000 do
    let v = Latency.sample m rng in
    Alcotest.(check bool) "in range" true (v >= 1.0 && v < 3.0);
    Ftr_stats.Summary.add s v
  done;
  Alcotest.(check bool) "mean near 2" true (abs_float (Ftr_stats.Summary.mean s -. 2.0) < 0.05);
  Alcotest.(check (float 1e-12)) "model mean" 2.0 (Latency.mean m)

let latency_exponential_positive_mean () =
  let m = Latency.exponential ~mean:1.5 in
  let rng = Ftr_prng.Rng.of_int 3 in
  let s = Ftr_stats.Summary.create () in
  for _ = 1 to 20_000 do
    let v = Latency.sample m rng in
    Alcotest.(check bool) "positive" true (v > 0.0);
    Ftr_stats.Summary.add s v
  done;
  Alcotest.(check bool) "mean near 1.5" true (abs_float (Ftr_stats.Summary.mean s -. 1.5) < 0.05)

let latency_rejects () =
  Alcotest.check_raises "bad constant"
    (Invalid_argument "Latency.constant: delay must be positive") (fun () ->
      ignore (Latency.constant 0.0));
  Alcotest.check_raises "bad uniform" (Invalid_argument "Latency.uniform: need 0 < lo <= hi")
    (fun () -> ignore (Latency.uniform ~lo:2.0 ~hi:1.0))

(* Determinism: the same seeded simulation yields the same trajectory. *)
let engine_deterministic_replay () =
  let run_once seed =
    let rng = Ftr_prng.Rng.of_int seed in
    let e = Engine.create () in
    let log = ref [] in
    let rec step remaining =
      if remaining > 0 then begin
        let delay = Ftr_prng.Rng.float rng +. 0.01 in
        ignore
          (Engine.schedule_after e ~delay (fun () ->
               log := Engine.now e :: !log;
               step (remaining - 1)))
      end
    in
    step 50;
    Engine.run e;
    !log
  in
  Alcotest.(check (list (float 1e-12))) "same seed same trajectory" (run_once 7) (run_once 7);
  Alcotest.(check bool) "different seed differs" true (run_once 7 <> run_once 8)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "sim"
    [
      ( "heap",
        [
          quick "ordering" heap_ordering;
          quick "pop order" heap_pop_order;
          quick "empty" heap_empty;
          quick "clear" heap_clear;
          quick "growth" heap_grows;
          QCheck_alcotest.to_alcotest prop_heap_sorts;
        ] );
      ( "engine",
        [
          quick "time order" engine_time_order;
          quick "FIFO tie-breaking" engine_fifo_ties;
          quick "schedule_after" engine_schedule_after;
          quick "cancel" engine_cancel;
          quick "pending accounting" engine_pending_accounting;
          quick "run until horizon" engine_run_until;
          quick "max events" engine_max_events;
          quick "rejects past times" engine_rejects_past;
          quick "cascading events" engine_cascading_events;
          quick "drain" engine_drain;
          quick "deterministic replay" engine_deterministic_replay;
          QCheck_alcotest.to_alcotest prop_engine_executes_in_time_order;
        ] );
      ( "periodic",
        [
          quick "fires to horizon" periodic_every_fires_to_horizon;
          quick "first tick one period in" periodic_every_respects_start;
          quick "never fires past horizon" periodic_every_never_fires_past_horizon;
          quick "poisson rate" periodic_poisson_rate;
          quick "countdown" periodic_countdown;
          quick "rejects bad config" periodic_rejects;
        ] );
      ( "latency",
        [
          quick "constant" latency_constant;
          quick "uniform range" latency_uniform_range;
          quick "exponential mean" latency_exponential_positive_mean;
          quick "rejects bad models" latency_rejects;
        ] );
    ]
