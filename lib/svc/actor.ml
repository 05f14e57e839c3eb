(* One overlay node as an actor. The handler is the synchronous overlay's
   protocol re-expressed over messages: the node record and every
   decision — scan, verdicts, redirect, repair, ring probe — are
   [Ftr_p2p.Protocol]'s, so for a static network the actor and the
   event-heap overlay choose identical owners, hops and repairs (the
   equivalence property in test/test_svc.ml). What is the actor's own is
   the mailbox, the sequence counter and where counters and traces go.

   Determinism discipline — what a handler may touch:
   - its own actor state (links, ring pointers, RNG, sequence counter),
   - the frozen per-round liveness view (read-only during a round),
   - the per-shard accumulators behind the [ctx] callbacks (outbox,
     counters, transcript, completions, departures).
   Nothing else: no other actor's state, no global registries, no wall
   clock. That confinement is what makes the merged transcript a pure
   function of (seed, logical time, sender, sequence). *)

module Rng = Ftr_prng.Rng
module Sample = Ftr_prng.Sample
module Protocol = Ftr_p2p.Protocol
open Message

type t = {
  node : Protocol.node;
  mutable next_seq : int; (* per-sender sequence numbers for [Mailbox] keys *)
  rng : Rng.t; (* per-actor stream: Seed.rng_for ~seed ~index:pos *)
  mailbox : payload Mailbox.t;
}

(* Worker-side event counters, merged by the coordinator in shard order. *)
type counters = {
  mutable c_messages : int; (* routed lookup forwards (overlay stats.messages) *)
  mutable c_replies : int; (* Resolved/Splice/Set_* service replies *)
  mutable c_probes : int;
  mutable c_repairs : int;
  mutable c_redirects : int;
  mutable c_maint_issued : int;
  mutable c_handled : int; (* envelopes processed *)
}

let fresh_counters () =
  {
    c_messages = 0;
    c_replies = 0;
    c_probes = 0;
    c_repairs = 0;
    c_redirects = 0;
    c_maint_issued = 0;
    c_handled = 0;
  }

(* Everything a handler is allowed to see beyond its own actor. [send]
   appends to the shard outbox (the coordinator posts it after the round
   barrier), [complete] records a lookup outcome for merge-time
   accounting, [depart] queues a membership change. *)
type ctx = {
  line_size : int;
  links : int;
  ttl : int;
  regenerate : bool;
  now : int;
  alive_view : Bytes.t; (* frozen for the round; 1 = live *)
  pl : Sample.power_law;
  counters : counters;
  send : src:t -> dst:int -> payload -> unit;
  complete : lookup -> outcome -> unit;
  depart : int -> unit;
}

let view_alive ctx pos = pos >= 0 && pos < ctx.line_size && Bytes.get ctx.alive_view pos = '\001'

let create ?capacity ~pos ~rng () =
  { node = Protocol.node pos; next_seq = 0; rng; mailbox = Mailbox.create ?capacity ~owner:pos () }

let ring_probe ctx a ~from ~dir =
  Protocol.probe_ring
    ~alive:(fun pos -> view_alive ctx pos)
    ~line_size:ctx.line_size ~self:a.node.pos ~from ~dir
    ~on_probe:(fun () -> ctx.counters.c_probes <- ctx.counters.c_probes + 1)

(* ------------------------------------------------------------------ *)
(* Lookup processing                                                   *)
(* ------------------------------------------------------------------ *)

let tlog l step = if l.traced then { l with tlog_rev = step :: l.tlog_rev } else l

(* A lookup starting at this actor (a fresh maintenance lookup, or the
   local half of forwarding) runs inline at hop-issue time, exactly like
   the overlay's [lookup_step] recursion at the issuing node. *)
let rec start_lookup ctx a ~kind ~target =
  ctx.counters.c_maint_issued <- ctx.counters.c_maint_issued + 1;
  enter ctx a
    {
      request = -1;
      origin = a.node.pos;
      target;
      hops = 0;
      kind;
      traced = false;
      tlog_rev = [];
    }

(* Arrival at a decision point: record the hop, check the TTL, scan.
   Re-entries after a repair come back here with unchanged hops, exactly
   like [Overlay.lookup_step]. *)
and enter ctx a l =
  let l = tlog l (T_hop a.node.pos) in
  if l.hops >= ctx.ttl then
    ctx.complete l (Failed { stuck_at = a.node.pos; hops = l.hops; reason = "ttl_exceeded" })
  else scan ctx a l

and scan ctx a l =
  let n = a.node in
  let choice = Protocol.best_candidate ~pos:n.pos ~target:l.target (Protocol.neighbors n) in
  let l =
    if not l.traced then l
    else
      Protocol.fold_verdicts n ~target:l.target choice
        (fun l ~cand ~dist verdict -> tlog l (T_cand { cur = n.pos; cand; dist; verdict }))
        l
  in
  match choice with
  | None -> deliver ctx a l
  | Some (best, best_dist) ->
      if view_alive ctx best then begin
        ctx.counters.c_messages <- ctx.counters.c_messages + 1;
        ctx.send ~src:a ~dst:best (Lookup { l with hops = l.hops + 1 })
      end
      else begin
        (* The probe discovers the pick is already dead: zero-latency
           repair, then re-enter with unchanged hops (the overlay's
           [on_dead_neighbor] path). *)
        ctx.counters.c_probes <- ctx.counters.c_probes + 1;
        let l =
          tlog l
            (T_cand
               { cur = n.pos; cand = best; dist = best_dist; verdict = Ftr_obs.Tracing.Dead_node })
        in
        repair ctx a ~dead:best;
        enter ctx a l
      end

(* This actor owns the target's basin. Maintenance kinds act at the
   owner (splice for placement, redirect for solicitation) and answer
   the origin where the protocol needs an answer. *)
and deliver ctx a l =
  (match l.kind with
  | User | Link -> ()
  | Placement { joiner } -> splice_in ctx a ~joiner
  | Solicit { newcomer } ->
      (* The overlay charges the solicitation answer as one message. *)
      ctx.counters.c_messages <- ctx.counters.c_messages + 1;
      if Option.is_some (Protocol.redirect a.rng a.node ~newcomer) then
        ctx.counters.c_redirects <- ctx.counters.c_redirects + 1);
  ctx.complete l (Delivered { owner = a.node.pos; hops = l.hops });
  match l.kind with
  | (User | Link) when l.origin <> a.node.pos ->
      ctx.counters.c_replies <- ctx.counters.c_replies + 1;
      ctx.send ~src:a ~dst:l.origin
        (Resolved { request = l.request; owner = a.node.pos; hops = l.hops; kind = l.kind })
  | User | Link | Placement _ | Solicit _ -> ()

(* The owner-side half of a join splice (Overlay.insert_into_ring over
   messages). The self-owner case — the placement lookup resolved to the
   joiner itself, which is visible to probes while its join is in
   flight — probes both directions and continues the join inline. *)
and splice_in ctx a ~joiner =
  let n = a.node in
  if joiner = n.pos then begin
    n.left <- ring_probe ctx a ~from:n.pos ~dir:(-1);
    n.right <- ring_probe ctx a ~from:n.pos ~dir:1;
    (match n.left with
    | Some l ->
        ctx.counters.c_replies <- ctx.counters.c_replies + 1;
        ctx.send ~src:a ~dst:l (Set_right (Some n.pos))
    | None -> ());
    (match n.right with
    | Some r ->
        ctx.counters.c_replies <- ctx.counters.c_replies + 1;
        ctx.send ~src:a ~dst:r (Set_left (Some n.pos))
    | None -> ());
    continue_join ctx a
  end
  else if n.pos < joiner then begin
    (* The stale-pointer case: our right pointer may still name a dead
       previous occupant of the joiner's own position; re-probe past it
       rather than handing the joiner a self-loop. *)
    let succ =
      match n.right with
      | Some r when r = joiner -> ring_probe ctx a ~from:joiner ~dir:1
      | r -> r
    in
    n.right <- Some joiner;
    ctx.counters.c_replies <- ctx.counters.c_replies + 1;
    ctx.send ~src:a ~dst:joiner (Splice { left = Some n.pos; right = succ });
    match succ with
    | Some s ->
        ctx.counters.c_replies <- ctx.counters.c_replies + 1;
        ctx.send ~src:a ~dst:s (Set_left (Some joiner))
    | None -> ()
  end
  else begin
    let pred =
      match n.left with
      | Some lp when lp = joiner -> ring_probe ctx a ~from:joiner ~dir:(-1)
      | lp -> lp
    in
    n.left <- Some joiner;
    ctx.counters.c_replies <- ctx.counters.c_replies + 1;
    ctx.send ~src:a ~dst:joiner (Splice { left = pred; right = Some n.pos });
    match pred with
    | Some p ->
        ctx.counters.c_replies <- ctx.counters.c_replies + 1;
        ctx.send ~src:a ~dst:p (Set_right (Some joiner))
    | None -> ()
  end

(* Spliced in: build ℓ outgoing links through routed lookups and solicit
   Poisson(ℓ) incoming ones (Overlay.join steps 2 and 3). *)
and continue_join ctx a =
  for _ = 1 to ctx.links do
    start_lookup ctx a ~kind:Link ~target:(sample_sink ctx a)
  done;
  let solicit = Sample.poisson a.rng ~lambda:(float_of_int ctx.links) in
  for _ = 1 to solicit do
    start_lookup ctx a ~kind:(Solicit { newcomer = a.node.pos }) ~target:(sample_sink ctx a)
  done

and sample_sink ctx a =
  Ftr_core.Network.sample_long_target ctx.pl a.rng ~n:ctx.line_size ~src:a.node.pos

(* Protocol.repair over the frozen view, regenerating a dropped long
   link through a routed lookup when the config says so. *)
and repair ctx a ~dead =
  let count_repair () = ctx.counters.c_repairs <- ctx.counters.c_repairs + 1 in
  Protocol.repair a.node ~dead ~probe:(ring_probe ctx a)
    ~on_long:(fun () ->
      count_repair ();
      if ctx.regenerate then start_lookup ctx a ~kind:Link ~target:(sample_sink ctx a))
    ~on_ring:count_repair

(* ------------------------------------------------------------------ *)
(* The handler                                                         *)
(* ------------------------------------------------------------------ *)

let handle ctx a (payload : payload) =
  ctx.counters.c_handled <- ctx.counters.c_handled + 1;
  match payload with
  | Lookup l -> enter ctx a l
  | Resolved { owner; kind = Link; _ } ->
      (* Claim the long link the routed lookup found, under the budget;
         dead origins never get here (the coordinator drains dead
         mailboxes), matching the overlay callback's [node.alive] guard. *)
      let n = a.node in
      if owner <> n.pos && (not (List.mem owner n.long)) && List.length n.long < ctx.links then
        Protocol.add_long n owner
  | Resolved _ -> ()
  | Splice { left; right } ->
      a.node.left <- left;
      a.node.right <- right;
      continue_join ctx a
  | Set_left v -> a.node.left <- v
  | Set_right v -> a.node.right <- v
  | Stabilize -> (
      match Protocol.random_neighbor a.rng a.node with
      | Some v ->
          ctx.counters.c_probes <- ctx.counters.c_probes + 1;
          if not (view_alive ctx v) then repair ctx a ~dead:v
      | None -> ())
  | Leave_now ->
      let n = a.node in
      (match n.left with
      | Some l when view_alive ctx l ->
          ctx.counters.c_replies <- ctx.counters.c_replies + 1;
          ctx.send ~src:a ~dst:l (Set_right n.right)
      | Some _ | None -> ());
      (match n.right with
      | Some r when view_alive ctx r ->
          ctx.counters.c_replies <- ctx.counters.c_replies + 1;
          ctx.send ~src:a ~dst:r (Set_left n.left)
      | Some _ | None -> ());
      n.alive <- false;
      ctx.depart n.pos
  | Bounce { dead; lookup = l } ->
      (* Our chosen candidate crashed with the lookup in flight: record
         the dead pick, repair, re-scan with unchanged hops. *)
      let l =
        tlog l
          (T_cand
             {
               cur = a.node.pos;
               cand = dead;
               dist = abs (dead - l.target);
               verdict = Ftr_obs.Tracing.Dead_node;
             })
      in
      repair ctx a ~dead;
      enter ctx a l
