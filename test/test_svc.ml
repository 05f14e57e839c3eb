(* ftr-lint: disable-file R2 test assertions compare small concrete values *)
(* The message-passing overlay service: deterministic mailboxes, the
   round scheduler's jobs-invariance (including under mid-run churn), the
   equivalence of served lookups with the synchronous overlay path, and a
   clean drain when the workload stops mid-churn. *)

module Rng = Ftr_prng.Rng
module Engine = Ftr_sim.Engine
module Overlay = Ftr_p2p.Overlay
module Mailbox = Ftr_svc.Mailbox
module Service = Ftr_svc.Service
module Driver = Ftr_svc.Driver
module Message = Ftr_svc.Message
module Pool = Ftr_exec.Pool

(* ------------------------------------------------------------------ *)
(* Mailbox                                                             *)
(* ------------------------------------------------------------------ *)

let mailbox_delivery_order () =
  let mb = Mailbox.create ~owner:0 () in
  (* Posted out of order on every key component. *)
  assert (Mailbox.post mb ~time:5 ~src:9 ~seq:0 "t5s9");
  assert (Mailbox.post mb ~time:3 ~src:2 ~seq:1 "t3s2q1");
  assert (Mailbox.post mb ~time:3 ~src:2 ~seq:0 "t3s2q0");
  assert (Mailbox.post mb ~time:3 ~src:1 ~seq:7 "t3s1");
  assert (Mailbox.post mb ~time:4 ~src:0 ~seq:0 "t4");
  Alcotest.(check bool) "well ordered" true (Mailbox.well_ordered mb);
  let due = Mailbox.take_due mb ~now:3 in
  Alcotest.(check (list string))
    "due at 3, in (time, src, seq) order"
    [ "t3s1"; "t3s2q0"; "t3s2q1" ]
    (List.map (fun e -> e.Mailbox.e_msg) due);
  Alcotest.(check int) "rest stays" 2 (Mailbox.length mb);
  let rest = Mailbox.take_due mb ~now:99 in
  Alcotest.(check (list string)) "rest in order" [ "t4"; "t5s9" ]
    (List.map (fun e -> e.Mailbox.e_msg) rest);
  Alcotest.(check bool) "empty" true (Mailbox.is_empty mb)

let mailbox_capacity_drops () =
  let mb = Mailbox.create ~capacity:2 ~owner:3 () in
  assert (Mailbox.post mb ~time:1 ~src:0 ~seq:0 0);
  assert (Mailbox.post mb ~time:1 ~src:0 ~seq:1 1);
  Alcotest.(check bool) "third refused" false (Mailbox.post mb ~time:1 ~src:0 ~seq:2 2);
  Alcotest.(check int) "drop counted" 1 (Mailbox.dropped mb);
  Alcotest.(check int) "high water" 2 (Mailbox.high_water mb);
  Alcotest.(check int) "length bounded" 2 (Mailbox.length mb)

(* Any post sequence leaves the mailbox well ordered, and a full drain
   hands back exactly the sorted keys. *)
let mailbox_order_qcheck =
  QCheck.Test.make ~count:200 ~name:"mailbox drains in sorted key order"
    QCheck.(list (tup3 (int_bound 7) (int_bound 5) (int_bound 1000)))
    (fun posts ->
      let mb = Mailbox.create ~owner:0 () in
      List.iteri (fun seq (time, src, msg) -> ignore (Mailbox.post mb ~time ~src ~seq msg)) posts;
      let ok_sorted = Mailbox.well_ordered mb in
      let keys = Mailbox.keys mb in
      let drained = Mailbox.take_due mb ~now:max_int in
      let drained_keys = List.map (fun e -> (e.Mailbox.e_time, e.Mailbox.e_src, e.Mailbox.e_seq)) drained in
      ok_sorted && drained_keys = keys
      && drained_keys = List.sort compare drained_keys
      && Mailbox.is_empty mb)

(* ------------------------------------------------------------------ *)
(* Equivalence with the synchronous overlay                            *)
(* ------------------------------------------------------------------ *)

(* Build a populated overlay with a failure set, all under regeneration
   off and constant latency, so a lookup's outcome is a pure function of
   link state — then check the served path and the synchronous path give
   the same owner and hop count for the same request sequence, with both
   sides' cumulative repairs kept in lockstep by issuing one lookup at a
   time. *)
(* Issue the same lookups on both sides, one at a time and each run to
   quiescence, so both sides' cumulative repairs stay in lockstep; one
   line per lookup whose (owner, hops) differ. *)
let compare_lookups ~label ov engine svc pool pairs =
  List.filter_map
    (fun (from, target) ->
      (* Synchronous side. *)
      let sync_result = ref None in
      Overlay.lookup ov ~from ~target
        ~callback:(fun ~owner ~hops -> sync_result := Some (owner, hops))
        ();
      Engine.run engine;
      (* Served side: same request, run to quiescence. *)
      let id = Service.request svc ~src:from ~target in
      ignore (Service.drain svc ~pool);
      let served =
        match Service.request_outcome svc ~request:id with
        | Some (Message.Delivered { owner; hops }) -> Some (owner, hops)
        | Some (Message.Failed _) | None -> None
      in
      let show = function Some (o, h) -> Printf.sprintf "ok(%d,%d)" o h | None -> "fail" in
      if served = !sync_result then None
      else
        Some
          (Printf.sprintf "%s %d->%d: sync=%s served=%s" label from target (show !sync_result)
             (show served)))
    pairs

(* Build a populated overlay with a failure set, all under regeneration
   off and constant latency, so a lookup's outcome is a pure function of
   link state — then check the served path and the synchronous path give
   the same owner and hop count for the same request sequence. *)
let equivalence_run seed =
  let line_size = 512 and links = 4 and count = 40 in
  let rng = Rng.of_int seed in
  let engine = Engine.create () in
  let ov =
    Overlay.create ~regenerate:false ~line_size ~links ~rng:(Rng.of_int (seed + 1)) engine
  in
  Overlay.populate ov ~positions:(List.init count (fun i -> i * line_size / count));
  Engine.run engine;
  (* Fail ~25% of the nodes, keeping at least three alive. *)
  let live = Array.of_list (Overlay.live_positions ov) in
  let kills = ref [] in
  Array.iter
    (fun pos -> if Rng.float rng < 0.25 && Array.length live - List.length !kills > 3 then kills := pos :: !kills)
    live;
  List.iter (fun pos -> Overlay.crash ov ~pos) !kills;
  Engine.run engine;
  (* Snapshot the post-failure network into the service before either
     side routes anything. *)
  let svc = Service.of_overlay ~regenerate:false ~seed ov in
  let lives = Array.of_list (Overlay.live_positions ov) in
  let pairs =
    List.init 25 (fun _ ->
        let from = lives.(Rng.int rng (Array.length lives)) in
        (from, Rng.int rng line_size))
  in
  Pool.with_resident ~jobs:2 (fun pool ->
      compare_lookups ~label:(Printf.sprintf "seed=%d" seed) ov engine svc pool pairs)

let equivalence_fixed () =
  match equivalence_run 42 with
  | [] -> ()
  | ms -> Alcotest.failf "served/synchronous divergence:\n%s" (String.concat "\n" ms)

(* Graceful leave next to an unrepaired crash: line 64, nodes
   {10, 20, 30, 40}, 30 crashes, then 20 leaves. Each live ring
   neighbour of the leaver must get the leaver's other pointer as it is
   (here 10 gets the stale 30), so a later probe walks past the crash to
   40. Cutting 10's right pointer instead would leave 10 owning
   everything to its right, permanently. *)
let equivalence_leave_next_to_crash () =
  let line_size = 64 in
  let engine = Engine.create () in
  let ov = Overlay.create ~regenerate:false ~line_size ~links:1 ~rng:(Rng.of_int 3) engine in
  Overlay.populate ov ~positions:[ 10; 20; 30; 40 ];
  Engine.run engine;
  let svc = Service.of_overlay ~regenerate:false ~seed:3 ov in
  Overlay.crash ov ~pos:30;
  Overlay.leave ov ~pos:20;
  Engine.run engine;
  let owner_from_10 target =
    let owner = ref (-1) in
    Overlay.lookup ov ~from:10 ~target ~callback:(fun ~owner:o ~hops:_ -> owner := o) ();
    Engine.run engine;
    !owner
  in
  Pool.with_resident ~jobs:1 (fun pool ->
      Service.crash svc ~pos:30;
      Service.leave svc ~pos:20;
      ignore (Service.drain svc ~pool);
      (match compare_lookups ~label:"leave" ov engine svc pool [ (10, 35); (10, 60); (40, 12) ] with
      | [] -> ()
      | ms -> Alcotest.failf "served/synchronous divergence:\n%s" (String.concat "\n" ms));
      Alcotest.(check (list int)) "owners from 10 after the leave" [ 40; 40 ]
        [ owner_from_10 35; owner_from_10 60 ])

(* Both runtimes trace through the same verdict walk: after the same
   crashes, one traced lookup on each side must leave the same flight-
   recorder steps — hop nodes and candidate verdicts, times aside. *)
let equivalence_traces () =
  let module T = Ftr_obs.Tracing in
  let render tr =
    List.map
      (function
        | T.Hop { node; _ } -> Printf.sprintf "hop %d" node
        | T.Candidate { cur; cand; dist; verdict; _ } ->
            Printf.sprintf "%d->%d d=%d %s" cur cand dist (T.verdict_label verdict)
        | T.Backtrack _ | T.Reroute _ -> "unexpected")
      (T.steps tr)
  in
  let latest () = match T.latest () with Some tr -> render tr | None -> [ "no trace" ] in
  let line_size = 512 in
  let engine = Engine.create () in
  let ov = Overlay.create ~regenerate:false ~line_size ~links:4 ~rng:(Rng.of_int 8) engine in
  Overlay.populate ov ~positions:(List.init 40 (fun i -> i * line_size / 40));
  List.iter (fun pos -> Overlay.crash ov ~pos) [ 64; 128; 140; 256; 371 ];
  let svc = Service.of_overlay ~regenerate:false ~seed:8 ov in
  let was_recording = !T.recording_ref in
  Fun.protect
    ~finally:(fun () ->
      T.force_full false;
      T.set_recording was_recording;
      T.reset ())
    (fun () ->
      Ftr_obs.Flag.with_mode true (fun () ->
          T.set_recording true;
          T.force_full true;
          T.reset ();
          let seen = ref [] in
          Pool.with_resident ~jobs:1 (fun pool ->
              List.iter
                (fun (from, target) ->
                  Overlay.lookup ov ~from ~target ();
                  Engine.run engine;
                  let sync = latest () in
                  seen := sync @ !seen;
                  ignore (Service.request ~traced:true svc ~src:from ~target);
                  ignore (Service.drain svc ~pool);
                  Alcotest.(check (list string))
                    (Printf.sprintf "%d->%d steps" from target)
                    sync (latest ()))
                [ (0, 300); (12, 140); (499, 70); (384, 129); (25, 25) ]);
          List.iter
            (fun verdict ->
              Alcotest.(check bool)
                (verdict ^ " verdicts recorded")
                true
                (List.exists (String.ends_with ~suffix:(" " ^ verdict)) !seen))
            [ "chosen"; "not_best"; "not_closer"; "dead_node" ]))

let equivalence_qcheck =
  QCheck.Test.make ~count:8 ~name:"served lookups match the synchronous overlay"
    QCheck.(int_bound 10_000)
    (fun seed ->
      match equivalence_run seed with
      | [] -> true
      | m :: _ -> QCheck.Test.fail_report m)

(* ------------------------------------------------------------------ *)
(* Jobs-invariance under churn                                         *)
(* ------------------------------------------------------------------ *)

let churn_config =
  {
    Driver.default_config with
    Driver.line_size = 512;
    initial = 48;
    links = 4;
    seed = 7;
    ticks = 24;
    rate = 4;
    join_rate = 0.5;
    crash_rate = 0.5;
    leave_rate = 0.25;
    stabilize = 2;
    record = true;
  }

let serialize (res : Driver.result) =
  res.Driver.res_transcript
  ^ String.concat "\n" (Driver.report_lines ~wall:false res.Driver.res_report)
  ^ "\n"

let transcript_jobs_invariant () =
  let reference = serialize (Driver.run { churn_config with Driver.jobs = Some 1 }) in
  List.iter
    (fun j ->
      let out = serialize (Driver.run { churn_config with Driver.jobs = Some j }) in
      Alcotest.(check string) (Printf.sprintf "jobs=%d byte-identical" j) reference out)
    [ 2; 4 ];
  Unix.putenv "FTR_EXEC_SEQ" "1";
  let seq = serialize (Driver.run { churn_config with Driver.jobs = None }) in
  Unix.putenv "FTR_EXEC_SEQ" "0";
  Alcotest.(check string) "FTR_EXEC_SEQ=1 byte-identical" reference seq

let invariants_hold_after_churn () =
  let res = Driver.run { churn_config with Driver.seed = 9 } in
  (match Driver.invariant_problems res with
  | [] -> ()
  | ps -> Alcotest.failf "invariants violated:\n%s" (String.concat "\n" ps));
  let r = res.Driver.res_report in
  Alcotest.(check bool) "work happened" true (r.Driver.rp_issued > 0 && r.Driver.rp_crashes > 0)

(* A churned serve run with graceful leaves, digested down to the
   deterministic report lines, the transcript and every actor's final
   links: any change to a handler's decision or RNG draw order moves it. *)
let leave_run_pinned () =
  let res = Driver.run { churn_config with Driver.seed = 21; ticks = 40; leave_rate = 0.75 } in
  let b = Buffer.create 65536 in
  Buffer.add_string b (serialize res);
  let opt = function Some p -> string_of_int p | None -> "-" in
  Service.iter_actors res.Driver.res_service (fun v ->
      let n = v.Service.av_node in
      Buffer.add_string b
        (Printf.sprintf "%d %b %s %s [%s]\n" n.pos n.alive (opt n.left) (opt n.right)
           (String.concat ";" (List.map string_of_int n.long))));
  let r = res.Driver.res_report in
  Alcotest.(check bool) "leaves and crashes happened" true
    (r.Driver.rp_leaves > 0 && r.Driver.rp_crashes > 0);
  Alcotest.(check string) "report, transcript and links digest"
    "34c4329176245909ff04fe4d95b77093"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* ------------------------------------------------------------------ *)
(* Kill mid-churn: the scheduler drains clean                          *)
(* ------------------------------------------------------------------ *)

(* Stop the workload abruptly while lookups, joins and repair traffic are
   still in flight, then drain with no new input: every mailbox must
   empty, every request must resolve (or be accounted as a shutdown
   timeout), and nothing may be silently lost. *)
let kill_mid_churn_drains_clean () =
  let cfg = { churn_config with Driver.seed = 11; ticks = 10 } in
  let ov = Driver.build_overlay cfg in
  let svc =
    Service.of_overlay ~shards:cfg.Driver.shards ~record:false ~seed:cfg.Driver.seed ov
  in
  let rng = Ftr_exec.Seed.rng_for ~seed:cfg.Driver.seed ~index:cfg.Driver.line_size in
  Pool.with_resident ~jobs:3 (fun pool ->
      (* Run churn ticks, then kill the workload with mail still queued. *)
      for _ = 1 to cfg.Driver.ticks do
        Driver.control cfg rng svc;
        Service.step svc ~pool
      done;
      Alcotest.(check bool) "mail still in flight at the kill point" true
        (Service.mail_pending svc);
      ignore (Service.drain svc ~pool));
  Service.force_timeouts svc;
  Alcotest.(check bool) "all mailboxes drained" false (Service.mail_pending svc);
  let s = Service.stats svc in
  Alcotest.(check int) "request conservation" s.Service.issued
    (s.Service.ok + s.Service.failed + s.Service.timed_out);
  Alcotest.(check int) "no overflow drops" 0 s.Service.dropped;
  Service.iter_actors svc (fun v ->
      Alcotest.(check int)
        (Printf.sprintf "actor %d mailbox empty" v.Service.av_node.pos)
        0 v.Service.av_mail_length;
      Alcotest.(check bool)
        (Printf.sprintf "actor %d mailbox ordered" v.Service.av_node.pos)
        true v.Service.av_mail_well_ordered)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "svc"
    [
      ( "mailbox",
        [
          Alcotest.test_case "delivery order" `Quick mailbox_delivery_order;
          Alcotest.test_case "capacity drops" `Quick mailbox_capacity_drops;
          QCheck_alcotest.to_alcotest mailbox_order_qcheck;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "fixed seed" `Quick equivalence_fixed;
          QCheck_alcotest.to_alcotest equivalence_qcheck;
          Alcotest.test_case "leave next to a crash" `Quick equivalence_leave_next_to_crash;
          Alcotest.test_case "traced steps agree" `Quick equivalence_traces;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "transcript jobs-invariant under churn" `Slow
            transcript_jobs_invariant;
          Alcotest.test_case "invariants hold after churn" `Quick invariants_hold_after_churn;
          Alcotest.test_case "leave run pinned" `Quick leave_run_pinned;
        ] );
      ( "drain",
        [ Alcotest.test_case "kill mid-churn drains clean" `Quick kill_mid_churn_drains_clean ]
      );
    ]
