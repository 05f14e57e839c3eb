module Engine = Ftr_sim.Engine
module Rng = Ftr_prng.Rng
module Sample = Ftr_prng.Sample

type stats = {
  mutable lookups_issued : int;
  mutable lookups_ok : int;
  mutable lookups_failed : int;
  mutable hops_on_success : int;
  mutable maintenance_issued : int;
  mutable maintenance_failed : int;
  mutable messages : int;
  mutable probes : int; (* failure-detection probes and repair traffic *)
  mutable repairs : int;
  mutable joins : int;
  mutable crashes : int;
  mutable leaves : int;
}

type pending_request = {
  callback : (owner:int -> hops:int -> unit) option;
  user : bool; (* user lookups and protocol/maintenance traffic are
                  accounted separately *)
  trace : Ftr_obs.Tracing.t;
      (* flight-recorder trace for user lookups when the recorder is on;
         the shared null sentinel otherwise *)
}

type t = {
  engine : Engine.t;
  rng : Rng.t;
  latency : Ftr_sim.Latency.t;
  line_size : int;
  links : int;
  ttl : int;
  regenerate : bool;
  pl : Sample.power_law;
  nodes : (int, Protocol.node) Hashtbl.t;
  pending : (int, pending_request) Hashtbl.t;
  stats : stats;
  mutable next_request : int;
}

let create ?latency ?latency_model ?(ttl = 256) ?(regenerate = true) ~line_size ~links ~rng engine =
  if line_size < 2 then invalid_arg "Overlay.create: line_size must be >= 2";
  if links < 1 then invalid_arg "Overlay.create: links must be >= 1";
  let latency =
    match (latency_model, latency) with
    | Some model, _ -> model
    | None, Some v ->
        if v <= 0.0 then invalid_arg "Overlay.create: latency must be positive";
        Ftr_sim.Latency.constant v
    | None, None -> Ftr_sim.Latency.constant 1.0
  in
  {
    engine;
    rng;
    latency;
    line_size;
    links;
    ttl;
    regenerate;
    pl = Sample.power_law ~exponent:1.0 ~max_length:(line_size - 1);
    nodes = Hashtbl.create 1024;
    pending = Hashtbl.create 64;
    stats =
      {
        lookups_issued = 0;
        lookups_ok = 0;
        lookups_failed = 0;
        hops_on_success = 0;
        maintenance_issued = 0;
        maintenance_failed = 0;
        messages = 0;
        probes = 0;
        repairs = 0;
        joins = 0;
        crashes = 0;
        leaves = 0;
      };
    next_request = 0;
  }

let stats t = t.stats

let engine t = t.engine

let node_count t =
  Hashtbl.fold (fun _ (node : Protocol.node) acc -> if node.alive then acc + 1 else acc) t.nodes 0

let live_node t pos =
  match Hashtbl.find_opt t.nodes pos with
  | Some (node : Protocol.node) when node.alive -> Some node
  | Some _ | None -> None

let is_alive t pos = Option.is_some (live_node t pos)

let live_positions t =
  let acc = ref [] in
  Hashtbl.iter (fun pos (node : Protocol.node) -> if node.alive then acc := pos :: !acc) t.nodes;
  List.sort Int.compare !acc

(* Sanitizer hook: per-node structural invariants, re-checked after every
   mutation when FTR_CHECK is on. The ring pointers must frame the node
   and the link list must respect the budget ℓ. *)
let debug_check t (node : Protocol.node) =
  if Ftr_debug.Debug.enabled () then begin
    (match node.left with
    | Some l when l >= node.pos ->
        Ftr_debug.Debug.failf "Overlay: node %d has left pointer %d on its right" node.pos l
    | Some _ | None -> ());
    (match node.right with
    | Some r when r <= node.pos ->
        Ftr_debug.Debug.failf "Overlay: node %d has right pointer %d on its left" node.pos r
    | Some _ | None -> ());
    let nl = List.length node.long in
    if nl > t.links then
      Ftr_debug.Debug.failf "Overlay: node %d holds %d long links, budget is %d" node.pos nl
        t.links;
    if List.mem node.pos node.long then
      Ftr_debug.Debug.failf "Overlay: node %d holds a long link to itself" node.pos
  end

let claim_link t node target =
  Protocol.add_long node target;
  debug_check t node

(* Telemetry for one accepted Section 5 redirect at [node]. *)
let note_redirect t (node : Protocol.node) ~newcomer ~evicted =
  if Ftr_obs.Flag.enabled () then begin
    Ftr_obs.Metrics.incr "overlay_link_redirects_total";
    Ftr_obs.Events.emit ~time:(Engine.now t.engine) ~kind:"overlay.redirect"
      [
        ("node", Ftr_obs.Json.Int node.pos);
        ("newcomer", Ftr_obs.Json.Int newcomer);
        ("evicted", Ftr_obs.Json.Int evicted);
      ]
  end;
  debug_check t node

(* ------------------------------------------------------------------ *)
(* Greedy lookup with failure detection                                *)
(* ------------------------------------------------------------------ *)

(* The flight-recorder trace attached to a pending request, for the hop
   and candidate records of the steps below; null when tracing is off or
   the request is untraced maintenance traffic. *)
let request_trace t request =
  match Hashtbl.find_opt t.pending request with
  | Some { trace; _ } -> trace
  | None -> Ftr_obs.Tracing.null

let fail_request t request ~hops ~stuck_at ~reason =
  match Hashtbl.find_opt t.pending request with
  | Some { user; trace; _ } ->
      Hashtbl.remove t.pending request;
      if Ftr_obs.Flag.enabled () && Ftr_obs.Tracing.is_live trace then
        Ftr_obs.Tracing.finish trace ~delivered:false ~hops ~stuck_at ~reason;
      if user then t.stats.lookups_failed <- t.stats.lookups_failed + 1
      else t.stats.maintenance_failed <- t.stats.maintenance_failed + 1
  | None -> ()

let resolve_request t ~owner ~request ~hops =
  match Hashtbl.find_opt t.pending request with
  | Some { callback; user; trace } ->
      Hashtbl.remove t.pending request;
      if Ftr_obs.Flag.enabled () && Ftr_obs.Tracing.is_live trace then
        Ftr_obs.Tracing.finish trace ~delivered:true ~hops ~stuck_at:(-1) ~reason:"";
      if user then begin
        t.stats.lookups_ok <- t.stats.lookups_ok + 1;
        t.stats.hops_on_success <- t.stats.hops_on_success + hops
      end;
      (match callback with Some f -> f ~owner ~hops | None -> ())
  | None -> ()

(* One greedy step at the node sitting at [at]. Dead neighbours are
   detected by a probe (costing a message and a latency round trip) and
   repaired out of the link set before the next-best candidate is tried. *)
let rec lookup_step t ~at ~target ~request ~hops =
  match live_node t at with
  | None ->
      (* The carrier died with the message in hand. *)
      fail_request t request ~hops ~stuck_at:at ~reason:"carrier_died"
  | Some node ->
      (* Flight recorder: every arrival at a decision point — including
         re-entries after a dead-link repair — is a hop record carrying
         the engine's sim time (via [Tracing.note_time] in the event
         dispatcher). *)
      if Ftr_obs.Flag.enabled () then begin
        let tr = request_trace t request in
        if Ftr_obs.Tracing.is_live tr then Ftr_obs.Tracing.hop tr ~node:at
      end;
      if hops >= t.ttl then fail_request t request ~hops ~stuck_at:node.pos ~reason:"ttl_exceeded"
      else begin
        (* Only the single best candidate — minimal (distance, position)
           among the advancing neighbours, per [Protocol.best_candidate]
           — is ever tried before the link set changes (a dead pick
           repairs the link and re-enters this step), so one min-scan
           replaces the sorted candidate list the previous version
           built. *)
        let choice = Protocol.best_candidate ~pos:node.pos ~target (Protocol.neighbors node) in
        (* Flight recorder, full-fidelity lane: name every neighbour the
           min-scan rejected and the candidate it kept. Dead picks are
           recorded by [try_candidate] when the probe discovers them. *)
        if Ftr_obs.Flag.enabled () then begin
          let tr = request_trace t request in
          if Ftr_obs.Tracing.is_live tr then
            Protocol.fold_verdicts node ~target choice
              (fun () ~cand ~dist verdict ->
                Ftr_obs.Tracing.candidate tr ~cur:node.pos ~cand ~dist verdict)
              ()
        end;
        match choice with
        | None ->
            (* No live neighbour closer: this node owns the target's basin. *)
            resolve_request t ~owner:node.pos ~request ~hops
        | Some (v, _) -> try_candidate t node ~v ~target ~request ~hops
      end

and try_candidate t node ~v ~target ~request ~hops =
  match live_node t v with
  | Some _ ->
      t.stats.messages <- t.stats.messages + 1;
      ignore
        (Engine.schedule_after t.engine ~delay:(Ftr_sim.Latency.sample t.latency t.rng) (fun () ->
             (* The neighbour may have crashed in flight; arrival
                re-checks and bounces back on failure. *)
             match live_node t v with
             | Some _ -> lookup_step t ~at:v ~target ~request ~hops:(hops + 1)
             | None ->
                 record_dead_candidate t ~request ~cur:node.pos ~v ~target;
                 ignore
                   (Engine.schedule_after t.engine ~delay:(Ftr_sim.Latency.sample t.latency t.rng) (fun () ->
                        on_dead_neighbor t node ~dead:v ~target ~request ~hops))))
  | None ->
      (* Probe discovers the neighbour is already dead. *)
      t.stats.probes <- t.stats.probes + 1;
      record_dead_candidate t ~request ~cur:node.pos ~v ~target;
      on_dead_neighbor t node ~dead:v ~target ~request ~hops

(* The chosen candidate turned out to be dead (probe or in-flight crash):
   overwrite the optimistic "chosen" verdict with a dead_node record so
   the trace explains the repair that follows. *)
and record_dead_candidate t ~request ~cur ~v ~target =
  if Ftr_obs.Flag.enabled () then begin
    let tr = request_trace t request in
    if Ftr_obs.Tracing.is_live tr then
      Ftr_obs.Tracing.candidate tr ~cur ~cand:v ~dist:(abs (v - target))
        Ftr_obs.Tracing.Dead_node
  end

and on_dead_neighbor t node ~dead ~target ~request ~hops =
  if not node.alive then
    fail_request t request ~hops ~stuck_at:node.pos ~reason:"origin_died"
  else begin
    drop_dead_link t node ~dead;
    lookup_step t ~at:node.pos ~target ~request ~hops
  end

(* Remove a dead link and regenerate it (Section 5's "same heuristic can
   be used for regeneration of links when a node crashes"). Ring links are
   repaired by probing outward along the line. *)
and drop_dead_link t node ~dead =
  Protocol.repair node ~dead ~probe:(probe_ring t node)
    ~on_long:(fun () ->
      t.stats.repairs <- t.stats.repairs + 1;
      if Ftr_obs.Flag.enabled () then Ftr_obs.Metrics.incr "overlay_link_repairs_total";
      if t.regenerate then regenerate_long_link t node)
    ~on_ring:(fun () ->
      t.stats.repairs <- t.stats.repairs + 1;
      if Ftr_obs.Flag.enabled () then Ftr_obs.Metrics.incr "overlay_ring_repairs_total");
  debug_check t node

and probe_ring t (node : Protocol.node) ~from ~dir =
  (* The shared walk-outward rule; probes are charged to this overlay's
     failure-detection accounting. *)
  Protocol.probe_ring ~alive:(is_alive t) ~line_size:t.line_size ~self:node.pos ~from ~dir
    ~on_probe:(fun () -> t.stats.probes <- t.stats.probes + 1)

and regenerate_long_link t node =
  (* Sample a fresh sink by the 1/d law and claim its basin owner through
     a routed lookup issued by this node. *)
  let sink = Ftr_core.Network.sample_long_target t.pl t.rng ~n:t.line_size ~src:node.pos in
  internal_lookup t ~from:node.pos ~target:sink
    ~callback:
      (Some
         (fun ~owner ~hops:_ ->
           if node.alive && owner <> node.pos && not (List.mem owner node.long) then
             claim_link t node owner))
    ()

and internal_lookup t ?(user = false) ~from ~target ~callback () =
  let request = t.next_request in
  t.next_request <- request + 1;
  (* Only user lookups are traced: maintenance traffic (link regeneration,
     join placement) would flood the ring and drown the requests the
     forensics are for. *)
  let trace =
    if Ftr_obs.Flag.enabled () && user then begin
      let tr = Ftr_obs.Tracing.begin_route ~src:from ~dst:target in
      if Ftr_obs.Tracing.is_live tr then
        Ftr_obs.Tracing.set_context tr ~nodes:"overlay" ~links:"overlay"
          ~strategy:"overlay_lookup";
      tr
    end
    else Ftr_obs.Tracing.null
  in
  Hashtbl.replace t.pending request { callback; user; trace };
  if user then t.stats.lookups_issued <- t.stats.lookups_issued + 1
  else t.stats.maintenance_issued <- t.stats.maintenance_issued + 1;
  lookup_step t ~at:from ~target ~request ~hops:0

let lookup t ~from ~target ?callback () =
  if not (is_alive t from) then invalid_arg "Overlay.lookup: source is not a live node";
  if target < 0 || target >= t.line_size then invalid_arg "Overlay.lookup: target off the line";
  internal_lookup t ~user:true ~from ~target ~callback ()

(* ------------------------------------------------------------------ *)
(* Membership                                                          *)
(* ------------------------------------------------------------------ *)

let insert_into_ring t (node : Protocol.node) ~owner_pos =
  match live_node t owner_pos with
  | None -> ()
  | Some owner when owner.pos = node.pos ->
      (* The placement lookup resolved to the joining node itself: the node
         is already visible to ring probes while its own join is in flight,
         so a concurrent repair can route the lookup straight back to it.
         Treating itself as owner would write self-pointers (caught by the
         sanitizer); probe both directions instead to splice in. *)
      node.left <- probe_ring t node ~from:node.pos ~dir:(-1);
      node.right <- probe_ring t node ~from:node.pos ~dir:1;
      (match Option.bind node.left (live_node t) with
      | Some l -> l.right <- Some node.pos
      | None -> ());
      (match Option.bind node.right (live_node t) with
      | Some r -> r.left <- Some node.pos
      | None -> ());
      debug_check t node
  | Some owner ->
      if owner.pos < node.pos then begin
        (* v sits between owner and owner's right neighbour. The owner's
           pointer may still name a dead previous occupant of [node.pos]
           itself; inheriting it verbatim would make the new node its own
           neighbour (a self-loop the sanitizer flagged under churn), so
           re-probe the ring past the stale entry instead. *)
        let succ =
          match owner.right with
          | Some r when r = node.pos -> probe_ring t node ~from:node.pos ~dir:1
          | r -> r
        in
        node.left <- Some owner.pos;
        node.right <- succ;
        (match Option.bind succ (live_node t) with
        | Some r -> r.left <- Some node.pos
        | None -> ());
        owner.right <- Some node.pos
      end
      else begin
        let pred =
          match owner.left with
          | Some l when l = node.pos -> probe_ring t node ~from:node.pos ~dir:(-1)
          | l -> l
        in
        node.left <- pred;
        node.right <- Some owner.pos;
        (match Option.bind pred (live_node t) with
        | Some l -> l.right <- Some node.pos
        | None -> ());
        owner.left <- Some node.pos
      end;
      debug_check t node;
      debug_check t owner

let bootstrap_node t ~pos =
  if Hashtbl.mem t.nodes pos then invalid_arg "Overlay.bootstrap_node: position occupied";
  Hashtbl.replace t.nodes pos (Protocol.node pos);
  t.stats.joins <- t.stats.joins + 1;
  if Ftr_obs.Flag.enabled () then Ftr_obs.Metrics.incr "overlay_joins_total";
  pos

let join t ~pos ~via =
  if pos < 0 || pos >= t.line_size then invalid_arg "Overlay.join: position off the line";
  if is_alive t pos then invalid_arg "Overlay.join: position occupied";
  if not (is_alive t via) then invalid_arg "Overlay.join: bootstrap node is dead";
  let node = Protocol.node pos in
  Hashtbl.replace t.nodes pos node;
  t.stats.joins <- t.stats.joins + 1;
  if Ftr_obs.Flag.enabled () then begin
    Ftr_obs.Metrics.incr "overlay_joins_total";
    Ftr_obs.Events.emit ~time:(Engine.now t.engine) ~kind:"overlay.join"
      [ ("pos", Ftr_obs.Json.Int pos); ("via", Ftr_obs.Json.Int via) ]
  end;
  (* Step 1: find our place on the ring by looking up our own position. *)
  internal_lookup t ~from:via ~target:pos
    ~callback:
      (Some
         (fun ~owner ~hops:_ ->
           if node.alive then begin
             insert_into_ring t node ~owner_pos:owner;
             (* Step 2: ℓ outgoing long links through routed lookups. *)
             for _ = 1 to t.links do
               let sink =
                 Ftr_core.Network.sample_long_target t.pl t.rng ~n:t.line_size ~src:pos
               in
               internal_lookup t ~from:pos ~target:sink
                 ~callback:
                   (Some
                      (fun ~owner ~hops:_ ->
                        if node.alive && owner <> pos then claim_link t node owner))
                 ()
             done;
             (* Step 3: solicit Poisson(ℓ) incoming links. *)
             let solicit = Sample.poisson t.rng ~lambda:(float_of_int t.links) in
             for _ = 1 to solicit do
               let sink =
                 Ftr_core.Network.sample_long_target t.pl t.rng ~n:t.line_size ~src:pos
               in
               internal_lookup t ~from:pos ~target:sink
                 ~callback:
                   (Some
                      (fun ~owner ~hops:_ ->
                        t.stats.messages <- t.stats.messages + 1;
                        match live_node t owner with
                        | Some owner_node when node.alive -> (
                            match Protocol.redirect t.rng owner_node ~newcomer:pos with
                            | Some evicted -> note_redirect t owner_node ~newcomer:pos ~evicted
                            | None -> ())
                        | Some _ | None -> ()))
                 ()
             done
           end))
    ()

let crash t ~pos =
  match live_node t pos with
  | None -> ()
  | Some node ->
      node.alive <- false;
      t.stats.crashes <- t.stats.crashes + 1;
      if Ftr_obs.Flag.enabled () then begin
        Ftr_obs.Metrics.incr "overlay_crashes_total";
        Ftr_obs.Events.emit ~time:(Engine.now t.engine) ~kind:"overlay.crash"
          [ ("pos", Ftr_obs.Json.Int pos) ]
      end

let leave t ~pos =
  match live_node t pos with
  | None -> ()
  | Some node ->
      (* Graceful departure: each live ring neighbour gets the leaver's
         other pointer as it is, one message each. A pointer naming an
         unrepaired crash is handed over too, so the neighbour's next
         probe walks past it instead of losing that side of the ring. *)
      (match Option.bind node.left (live_node t) with
      | Some l ->
          l.right <- node.right;
          t.stats.messages <- t.stats.messages + 1
      | None -> ());
      (match Option.bind node.right (live_node t) with
      | Some r ->
          r.left <- node.left;
          t.stats.messages <- t.stats.messages + 1
      | None -> ());
      node.alive <- false;
      t.stats.leaves <- t.stats.leaves + 1;
      if Ftr_obs.Flag.enabled () then begin
        Ftr_obs.Metrics.incr "overlay_leaves_total";
        Ftr_obs.Events.emit ~time:(Engine.now t.engine) ~kind:"overlay.leave"
          [ ("pos", Ftr_obs.Json.Int pos) ]
      end

(* Instantiate a whole network at time zero without paying the join
   message cost, for tests and as a churn starting point. *)
let populate t ~positions =
  match positions with
  | [] -> invalid_arg "Overlay.populate: need at least one position"
  | first :: rest ->
      let sorted = List.sort_uniq Int.compare (first :: rest) in
      List.iter
        (fun pos ->
          if pos < 0 || pos >= t.line_size then invalid_arg "Overlay.populate: off the line";
          ignore (bootstrap_node t ~pos))
        sorted;
      (* Ring links. *)
      let arr = Array.of_list sorted in
      Array.iteri
        (fun i pos ->
          let node = Hashtbl.find t.nodes pos in
          if i > 0 then node.left <- Some arr.(i - 1);
          if i < Array.length arr - 1 then node.right <- Some arr.(i + 1))
        arr;
      (* Long links by direct sampling (the ideal distribution). *)
      Array.iter
        (fun pos ->
          let node = Hashtbl.find t.nodes pos in
          for _ = 1 to t.links do
            let sink = Ftr_core.Network.sample_long_target t.pl t.rng ~n:t.line_size ~src:pos in
            (* Snap to the nearest populated position. *)
            let owner =
              let rec nearest d =
                let lo = sink - d and hi = sink + d in
                if lo < 0 && hi >= t.line_size then node.pos
                else if lo >= 0 && Hashtbl.mem t.nodes lo then lo
                else if hi < t.line_size && Hashtbl.mem t.nodes hi then hi
                else nearest (d + 1)
              in
              nearest 0
            in
            if owner <> pos then claim_link t node owner
          done)
        arr

(* ------------------------------------------------------------------ *)
(* Introspection for the invariant sanitizer                           *)
(* ------------------------------------------------------------------ *)

let line_size t = t.line_size

let links t = t.links

let ttl t = t.ttl

let known t pos = Hashtbl.mem t.nodes pos

let iter_nodes t f = Hashtbl.iter (fun _ node -> f node) t.nodes

(* ------------------------------------------------------------------ *)
(* Proactive stabilization                                             *)
(* ------------------------------------------------------------------ *)

(* Periodic self-healing, independent of lookup traffic: every [period],
   [checks_per_tick] random live nodes each probe one random neighbour and
   repair it if dead (the paper's repair mechanism "trying to heal the
   damage" in the background, with cost amortised over time rather than
   over searches). *)
let enable_stabilization ?(period = 10.0) ?(checks_per_tick = 8) ~until t =
  if period <= 0.0 then invalid_arg "Overlay.enable_stabilization: period must be positive";
  if checks_per_tick < 1 then
    invalid_arg "Overlay.enable_stabilization: checks_per_tick must be >= 1";
  let random_live () =
    (* Reservoir sample over the registry. *)
    let chosen = ref None and seen = ref 0 in
    Hashtbl.iter
      (fun pos (node : Protocol.node) ->
        if node.alive then begin
          incr seen;
          if Rng.int t.rng !seen = 0 then chosen := Some pos
        end)
      t.nodes;
    !chosen
  in
  let check_one () =
    match random_live () with
    | None -> ()
    | Some pos -> (
        match live_node t pos with
        | None -> ()
        | Some node -> (
            match Protocol.random_neighbor t.rng node with
            | Some v ->
                t.stats.probes <- t.stats.probes + 1;
                if not (is_alive t v) then drop_dead_link t node ~dead:v
            | None -> ()))
  in
  let rec tick () =
    if Engine.now t.engine < until then begin
      for _ = 1 to checks_per_tick do
        check_one ()
      done;
      ignore (Engine.schedule_after t.engine ~delay:period (fun () -> tick ()))
    end
  in
  ignore (Engine.schedule_after t.engine ~delay:period (fun () -> tick ()))
