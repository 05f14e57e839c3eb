(* Churn: the Section 5 heuristic as a live protocol.

   Nodes join through routed lookups, solicit incoming links with the
   Poisson/redirect rule, crash without warning, and repair dead links
   with fresh 1/d draws — all over the discrete-event engine. Run with:

     dune exec examples/churn_simulation.exe *)

module Engine = Ftr_sim.Engine
module Overlay = Ftr_p2p.Overlay
module Churn = Ftr_p2p.Churn
module Rng = Ftr_prng.Rng
module Events = Ftr_obs.Events
module Json = Ftr_obs.Json

let simulate () =
  let line_size = 1024 in
  let rng = Rng.of_int 7 in
  let engine = Engine.create () in
  let overlay = Overlay.create ~latency:1.0 ~line_size ~links:8 ~rng:(Rng.split rng) engine in
  (* Seed population: 64 nodes spread over the line. *)
  Overlay.populate overlay ~positions:(List.init 64 (fun i -> i * line_size / 64));
  Printf.printf "seeded %d nodes on a %d-point line\n" (Overlay.node_count overlay) line_size;

  (* A workload of joins, graceful leaves, crashes and lookups. *)
  let until =
    Churn.install
      ~config:
        {
          Churn.duration = 2000.0;
          join_rate = 0.08;
          crash_rate = 0.03;
          leave_rate = 0.02;
          lookup_rate = 1.5;
          min_nodes = 16;
        }
      ~line_size overlay (Rng.split rng)
  in
  Engine.run ~until engine;
  Engine.run ~max_events:1_000_000 engine;

  let r = Churn.report overlay in
  Printf.printf "\nafter %.0f time units of churn:\n" until;
  Printf.printf "  population   %d live nodes (%d joins, %d crashes, %d leaves)\n"
    r.Churn.final_nodes r.Churn.joins r.Churn.crashes r.Churn.leaves;
  Printf.printf "  lookups      %d issued, %.1f%% succeeded, %.1f hops on average\n"
    r.Churn.lookups_issued (100.0 *. r.Churn.success_rate) r.Churn.mean_hops;
  Printf.printf "  maintenance  %d messages, %d probes, %d links regenerated\n" r.Churn.messages
    r.Churn.probes r.Churn.repairs

(* The overlay's membership changes, as (sim time, description), from the
   JSONL event stream. *)
let membership_events jsonl =
  List.filter_map
    (fun line ->
      let j = Json.parse line in
      let int key = match Json.member key j with Some (Json.Int v) -> v | _ -> -1 in
      let time =
        match Json.member "time" j with
        | Some (Json.Float t) -> t
        | Some (Json.Int t) -> float_of_int t
        | _ -> nan
      in
      match Json.member "kind" j with
      | Some (Json.String "overlay.join") ->
          Some (time, Printf.sprintf "join %d via %d" (int "pos") (int "via"))
      | Some (Json.String "overlay.crash") -> Some (time, Printf.sprintf "crash %d" (int "pos"))
      | Some (Json.String "overlay.leave") -> Some (time, Printf.sprintf "leave %d" (int "pos"))
      | _ -> None)
    (List.filter (fun l -> l <> "") (String.split_on_char '\n' jsonl))

let () =
  (* Telemetry on, with the event stream captured in memory. *)
  let (), jsonl = Ftr_obs.Flag.with_mode true (fun () -> Events.with_buffer simulate) in
  let events = membership_events jsonl in
  let shown = 20 in
  print_endline "\nlast protocol events:";
  List.iteri
    (fun i (time, text) ->
      if i >= List.length events - shown then Printf.printf "  [%8.1f] %s\n" time text)
    events
