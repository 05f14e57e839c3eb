(* ftr-lint: hot -- greedy routing inner loop, docs/MEMORY_LAYOUT.md budget applies *)

module Bitset = Ftr_graph.Bitset
module Csr = Ftr_graph.Adjacency.Csr
module I32 = Ftr_graph.Adjacency.I32

type side = One_sided | Two_sided

type strategy =
  | Terminate
  | Random_reroute of { attempts : int }
  | Backtrack of { history : int }

type reason = No_live_neighbor | Hop_limit | No_live_reroute_target

type outcome =
  | Delivered of { hops : int }
  | Failed of { hops : int; stuck_at : int; reason : reason }

let hops = function Delivered { hops } -> hops | Failed { hops; _ } -> hops

let delivered = function Delivered _ -> true | Failed _ -> false

let reason_label = function
  | No_live_neighbor -> "no_live_neighbor"
  | Hop_limit -> "hop_limit"
  | No_live_reroute_target -> "no_live_reroute_target"

let strategy_label = function
  | Terminate -> "terminate"
  | Random_reroute _ -> "random_reroute"
  | Backtrack _ -> "backtrack"

(* Reusable per-route working state, sized to a network's CSR edge count.
   [stamps] has one slot per CSR edge; slot [offsets.(u) + k] equal to
   [epoch] means "link k of node u was tried during the current route" —
   the O(1) replacement for the old per-node exclusion lists (a Hashtbl of
   int lists scanned with List.mem, quadratic in backtrack depth).
   [bt_hist] is the bounded backtrack window as a ring buffer. Routing with
   a caller-held scratch performs zero minor allocations per hop in steady
   state; without one, a fresh scratch is allocated per call (still
   allocation-free per hop). *)
type scratch = {
  mutable stamps : int array;
  mutable epoch : int;
  mutable bt_hist : int array;
}

let scratch_of_csr c =
  { stamps = Array.make (max 1 (Csr.edge_count c)) 0; epoch = 0; bt_hist = [||] }

let scratch net = scratch_of_csr (Network.csr net)

(* Stand-in for strategies that never record tried links ({!Terminate},
   {!Random_reroute}) when the caller supplied no scratch: never read or
   written, so sharing one global is safe. *)
let dummy_scratch = { stamps = [||]; epoch = 0; bt_hist = [||] }

(* Fallback scratch for backtracking callers that pass none, cached per
   domain so repeated routing stays allocation-free without an API change.
   The cell is emptied while a route borrows it, so a nested [route] call
   from an [on_hop] callback allocates its own scratch instead of
   corrupting the outer route's stamps. *)
let dls_scratch : scratch option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

(* A borrowed scratch: the working state plus the domain-local cell it
   must be returned to, when it came from one. [borrow_scratch] and
   [restore_scratch] are the named seams the flow lint's route-scratch
   typestate rule (D2, docs/LINTING.md) tracks: every borrow must reach
   [restore_scratch] on all paths, which the [Fun.protect] in [greedy]
   guarantees even on the sanitizer's exception paths. *)
type borrowed = { bs : scratch; bs_home : scratch option ref option }

let borrow_scratch ?scr ~tracking csr =
  match scr with
  | Some s -> { bs = s; bs_home = None }
  (* Selected only when tracking is off, and every scratch write in
     [greedy] is tracking-guarded: a shared read-only sentinel.
     ftr-lint: disable T1 *)
  | None when not tracking -> { bs = dummy_scratch; bs_home = None }
  | None ->
      let cell = Domain.DLS.get dls_scratch in
      let s =
        match !cell with
        | Some s ->
            cell := None;
            s
        | None -> scratch_of_csr csr
      in
      { bs = s; bs_home = Some cell }

let restore_scratch b = match b.bs_home with Some cell -> cell := Some b.bs | None -> ()

type distance =
  | Sorted_line of I32.t
  | Index_line
  | Metric of { dist : int -> int -> int; admissible : (cur:int -> int -> dst:int -> bool) option }

(* The positions a line distance reads: none on a full line, whose node
   index is its position. *)
let no_positions = I32.create 0

let line_positions = function Sorted_line p -> p | Index_line | Metric _ -> no_positions

let is_dense = function Index_line -> true | Sorted_line _ | Metric _ -> false

(* Node [v]'s position on a line: [v] itself when [dense] (an
   {!Index_line}), else one load from [positions], which callers have
   checked covers [v]. *)
let[@inline] line_pos ~dense positions v = if dense then v else I32.unsafe_get positions v

(* The two-sided line distance is computed inline — at most one array load
   per endpoint and some integer arithmetic; every other metric goes
   through its function. *)
let dist_to distance v target =
  match distance with
  | Sorted_line _ | Index_line ->
      let dense = is_dense distance and positions = line_positions distance in
      let d = line_pos ~dense positions v - line_pos ~dense positions target in
      if d < 0 then -d else d
  | Metric { dist; _ } -> dist v target

let admits distance ~cur v ~dst =
  match distance with
  | Metric { admissible = Some f; _ } -> f ~cur v ~dst
  | Metric { admissible = None; _ } | Sorted_line _ | Index_line -> true

(* Sanitizer hook: a hop chosen in [`Strict] mode must obey the greedy
   contract — strictly decrease the routing distance, and on one-sided
   networks never overshoot the target (Section 4.2.1). The kernel's scan
   establishes this by construction; the check guards against regressions
   in the candidate filter. *)
let debug_check_strict_hop distance ~cur ~v ~dst =
  if Ftr_debug.Debug.enabled () then begin
    let dv = dist_to distance v dst and dc = dist_to distance cur dst in
    if dv >= dc then
      Ftr_debug.Debug.failf "Route: strict hop %d -> %d fails to approach %d (distance %d >= %d)"
        cur v dst dv dc;
    if not (admits distance ~cur v ~dst) then
      Ftr_debug.Debug.failf "Route: one-sided hop %d -> %d overshoots target %d" cur v dst
  end

type on_dead = Skip | Charge | Halt

(* The hop budget when the caller sets none. *)
let default_max_hops = 1_000_000

(* Which candidate links a route may take, resolved once per route: the
   failure view's fast-path forms (a node bitset, or static "all alive"
   flags) with the general closures as the fallback, and the route's
   tried-link stamps ([tried_epoch] 0 when the strategy records none). *)
type view = {
  failures : Failure.t;
  node_bits : Bitset.t option;
  node_all : bool;
  link_all : bool;
  tried : int array;
  tried_epoch : int;
}

let view_of failures ~stamps ~epoch =
  {
    failures;
    node_bits = Failure.node_alive_bits failures;
    node_all = Failure.node_all_alive failures;
    link_all = Failure.link_all_alive failures;
    tried = stamps;
    tried_epoch = epoch;
  }

(* Unsafe reads here and in the scans below are justified by
   construction-time CSR validation ([Adjacency.Csr.validate], re-checked
   by the Check battery): every target is a node index in [0, n), every
   slot is below [offsets.(n)], [stamps] is kept at least that long, a
   node bitset covers every node and a line's positions were checked to
   cover every node. The I32 reads are allocation-free: the
   [Int32.to_int] in the accessor cancels the Bigarray box (see
   Adjacency.I32). *)
let[@inline] view_node_live vw v =
  match vw.node_bits with
  | Some b -> Bitset.unsafe_get b v
  | None -> vw.node_all || Failure.node_alive vw.failures v

let[@inline] view_link_live vw ~cur ~k =
  vw.link_all || Failure.link_alive vw.failures ~src:cur ~idx:k

let[@inline] view_untried vw ~base ~k =
  vw.tried_epoch = 0 || Array.unsafe_get vw.tried (base + k) <> vw.tried_epoch

(* Whether link [k] of [cur] (row slot [base + k]) to [v] may be taken:
   the link and its target are alive and this route has not tried it. *)
let[@inline] view_usable vw ~cur ~base ~k v =
  view_link_live vw ~cur ~k && view_node_live vw v && view_untried vw ~base ~k

(* The line scan, the one bisect and bracket walk behind {!greedy}'s line
   distances and {!route_pairs}. The row of [cur], slots
   [base, base + deg), is sorted by position, so the usable neighbour
   closest to [dst_pos] is found by bisecting the row to the two entries
   bracketing [dst_pos] and walking the brackets outward in
   increasing-distance order, stopping at the first usable candidate
   closer than [limit]. This equals a full scan keeping the
   minimum-distance usable candidate with ties to the earliest row entry:
   the earliest entry is the smaller position, which is the left bracket
   this walk prefers on ties ([dl <= dr]). The walk meets the unusable
   candidates ahead of the pick in rank order and, when there is a
   [reject], hands each to [reject ~cur ~base ~k v d], whose [true] ends
   the scan with no pick; with none, it passes them by.
   (When duplicate row entries name one node, the two orders can record
   a different *slot* in the stamps, but the slots alias the same node
   with the same remaining multiplicity, so the visited-node sequence —
   and the outcome — is unchanged.) On an {!Index_line} every position is
   the row entry itself, so the scan reads the row and nothing else.
   Returns the pick's index in the row, or -1. *)
let[@inline] line_pick ~dense positions targets vw ~cur ~base ~deg ~dst_pos ~limit ~reject =
  let lo = ref 0 and hi = ref deg in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if line_pos ~dense positions (I32.unsafe_get targets (base + mid)) >= dst_pos then hi := mid
    else lo := mid + 1
  done;
  let l = ref (!lo - 1) and r = ref !lo in
  let pick = ref (-1) and scanning = ref true in
  while !scanning do
    let dl =
      if !l >= 0 then dst_pos - line_pos ~dense positions (I32.unsafe_get targets (base + !l))
      else max_int
    and dr =
      if !r < deg then line_pos ~dense positions (I32.unsafe_get targets (base + !r)) - dst_pos
      else max_int
    in
    let take_left = dl <= dr in
    let d = if take_left then dl else dr in
    if d >= limit then scanning := false (* exhausted or no closer candidate left *)
    else begin
      let k = if take_left then !l else !r in
      let v = I32.unsafe_get targets (base + k) in
      if view_usable vw ~cur ~base ~k v then begin
        pick := k;
        scanning := false
      end
      else if
        match reject with Some reject -> reject ~cur ~base ~k v d | None -> false
      then scanning := false
      else if take_left then decr l
      else incr r
    end
  done;
  !pick

(* The outcome of a greedy leg from the Terminate loop: delivered at the
   target, else stuck by the hop budget or for want of a closer live
   neighbour. *)
let leg_outcome ~terminus ~dst ~hops ~out_of_budget =
  if terminus = dst then Delivered { hops }
  else if out_of_budget then Failed { hops; stuck_at = terminus; reason = Hop_limit }
  else Failed { hops; stuck_at = terminus; reason = No_live_neighbor }

type tally = { mutable wasted : int; mutable backtracks : int }

(* The greedy kernel (see the interface). It emits no metrics or events:
   [tr] is its only telemetry seam. *)
let greedy ?(failures = Failure.none) ?(strategy = Terminate) ?(max_hops = default_max_hops) ?rng
    ?scratch:scr ?(on_hop = fun _ -> ()) ?(dead = Skip) ?tr ?tally csr
    distance ~src ~dst =
  let { Csr.offsets; targets } = csr in
  let n = Csr.size csr in
  if src < 0 || src >= n || dst < 0 || dst >= n then invalid_arg "Route.greedy: node out of range";
  (match distance with
  | Sorted_line positions when I32.length positions < n ->
      invalid_arg "Route.greedy: fewer positions than nodes"
  | Sorted_line _ | Index_line | Metric _ -> ());
  (* The line scan's one difference between its two constructors: whether
     a position is the node index or a load from [positions]. *)
  let dense = is_dense distance and positions = line_positions distance in
  (* Flight recorder (docs/OBSERVABILITY.md, "Tracing"): nothing is
     recorded unless the caller passed a live trace, and every recording
     call below hides behind [tracing] — one immediate bool per check — so
     the hot loops stay branch-cheap and allocation-free when tracing is
     off. All trace allocation happens inside [Ftr_obs.Tracing], never in
     this file's loops. The [when tracing] guards in the seams re-check
     the gate so each write is gated on its own path (rule D1). *)
  let tracing =
    Ftr_obs.Flag.enabled () && match tr with Some t -> Ftr_obs.Tracing.is_live t | None -> false
  in
  let candidate ~cur ~cand ~dist verdict =
    match tr with
    | Some t when tracing -> Ftr_obs.Tracing.candidate t ~cur ~cand ~dist verdict
    | Some _ | None -> ()
  in
  (* Only {!Backtrack} records tried links; the other strategies skip both
     the stamp array (epoch 0 is the "no tracking" sentinel below) and its
     allocation when the caller supplied no scratch. *)
  let tracking = match strategy with Backtrack _ -> true | Terminate | Random_reroute _ -> false in
  let borrowed = borrow_scratch ?scr ~tracking csr in
  let s = borrowed.bs in
  let stamps, epoch =
    if tracking then begin
      if Array.length s.stamps < I32.get offsets n then begin
        (* Scratch carried over from a smaller network: regrow. A fresh
           array is all-zero, which no live epoch ever equals. *)
        s.stamps <- Array.make (I32.get offsets n) 0;
        s.epoch <- 0
      end;
      s.epoch <- s.epoch + 1;
      (s.stamps, s.epoch)
    end
    else ([||], 0)
  in
  (* Failure fast paths, resolved once per route: node liveness through the
     concrete bitset when the view has one, link liveness skipped entirely
     when everything is statically alive. The general closure forms remain
     the fallback. *)
  let vw = view_of failures ~stamps ~epoch in
  let charging = match dead with Skip -> false | Charge | Halt -> true in
  (* Winning candidate of the last successful [best_neighbor] scan, and the
     dead candidates it charged; mutable result slots instead of an
     allocated [Some (idx, v)] pair per hop. *)
  let found_idx = ref (-1) and found_node = ref (-1) and charged = ref 0 and wasted = ref 0 in
  (* The {!Charge}/{!Halt} policy for a candidate ranked ahead of the pick:
     only a dead node behind a usable, untried link costs a hop. Returns
     whether the scan must stop — on {!Halt}, or when the charges have
     used up the [room] left in the hop budget. *)
  let charge ~cur ~base ~k ~v ~room =
    if view_link_live vw ~cur ~k && (not (view_node_live vw v)) && view_untried vw ~base ~k
    then begin
      incr charged;
      incr wasted;
      if epoch <> 0 then Array.unsafe_set stamps (base + k) epoch;
      match dead with Halt -> true | Skip | Charge -> !charged >= room
    end
    else false
  in
  (* Flight-recorder verdict for a candidate the liveness conjunction
     rejected: re-run the conjuncts one by one to name the first that
     failed. Every call site already sits under [tracing], and the body
     re-checks it so the write is gated on every path through the
     closure itself (rule D1): one redundant immediate bool, and the
     recomputation (plus the record's allocation, inside
     [Ftr_obs.Tracing]) still costs nothing when the recorder is off. *)
  let record_excluded ~cur ~k ~v ~dist =
    if tracing then begin
      let base = I32.unsafe_get offsets cur in
      let verdict =
        if not (view_link_live vw ~cur ~k) then Ftr_obs.Tracing.Dead_link
        else if not (view_node_live vw v) then Ftr_obs.Tracing.Dead_node
        else if not (view_untried vw ~base ~k) then Ftr_obs.Tracing.Already_tried
        else Ftr_obs.Tracing.Not_closer
      in
      candidate ~cur ~cand:v ~dist verdict
    end
  in
  (* The line scan's handling of a candidate it cannot take, when there is
     anything to do: name it to the flight recorder, then charge it under
     {!Charge}/{!Halt} against the room [best_neighbor] left in
     [scan_room]. Built once per route, so a hop allocates nothing. *)
  let scan_room = ref 0 in
  let reject_line =
    if tracing || charging then
      Some
        (fun ~cur ~base ~k v d ->
          if tracing then record_excluded ~cur ~k ~v ~dist:d;
          charging && charge ~cur ~base ~k ~v ~room:!scan_room)
    else None
  in
  (* Best live untried neighbour of [cur], subject to the one-sided
     no-overshoot rule when the metric has one. In [`Strict] mode only
     neighbours strictly closer to [dst] qualify (the greedy rule); in
     [`Any] mode every untried live neighbour qualifies, still ranked by
     distance to [dst] — used when resuming from a backtracked node, where
     the "next best neighbour" may have to route around a hole. Ties go to
     the first candidate in row order, matching "ties broken arbitrarily"
     (Section 4.2.1) deterministically. Writes the winning (index-into-row,
     node) pair into [found_idx]/[found_node], the dead candidates ranked
     ahead of it into [charged], and returns whether a pick exists. *)
  let best_neighbor ~mode ~cur ~dst ~room =
    charged := 0;
    let cur_dist = dist_to distance cur dst in
    let base = I32.unsafe_get offsets cur in
    let deg = I32.unsafe_get offsets (cur + 1) - base in
    let limit = match mode with `Strict -> cur_dist | `Any -> max_int in
    let best = ref (-1) and best_idx = ref (-1) and best_dist = ref limit in
    (match distance with
    | Sorted_line _ | Index_line ->
        scan_room := room;
        let k =
          line_pick ~dense positions targets vw ~cur ~base ~deg
            ~dst_pos:(line_pos ~dense positions dst) ~limit ~reject:reject_line
        in
        if k >= 0 then begin
          best := I32.unsafe_get targets (base + k);
          best_idx := k
        end
    | Metric { dist; _ } ->
      for k = 0 to deg - 1 do
        let v = I32.unsafe_get targets (base + k) in
        if view_usable vw ~cur ~base ~k v then begin
          let v_dist = dist v dst in
          let admissible = v_dist < !best_dist && admits distance ~cur v ~dst in
          if admissible then begin
            (* A superseded provisional best was examined and not taken:
               record it so the trace names every also-ran. *)
            if tracing && !best >= 0 then
              candidate ~cur ~cand:!best ~dist:!best_dist Ftr_obs.Tracing.Not_best;
            best := v;
            best_idx := k;
            best_dist := v_dist
          end
          else if tracing then
            candidate ~cur ~cand:v ~dist:v_dist
              (if v_dist >= limit then Ftr_obs.Tracing.Not_closer
               else if not (admits distance ~cur v ~dst) then Ftr_obs.Tracing.Overshoot
               else Ftr_obs.Tracing.Not_best)
        end
        else if tracing then record_excluded ~cur ~k ~v ~dist:(dist v dst)
      done;
      (* A second pass charges the dead candidates that rank ahead of the
         pick — closer, or as close and earlier in the row — exactly the
         ones a sender re-scanning after each loss would have tried
         first. *)
      if charging then begin
        let k = ref 0 in
        while !k < deg do
          let v = I32.unsafe_get targets (base + !k) in
          let d = dist v dst in
          if
            (d < !best_dist || (d = !best_dist && !k < !best_idx))
            && admits distance ~cur v ~dst
            && charge ~cur ~base ~k:!k ~v ~room
          then begin
            best := -1;
            k := deg
          end
          else incr k
        done
      end);
    if !best < 0 then false
    else begin
      found_idx := !best_idx;
      found_node := !best;
      true
    end
  in
  let record_tried cur idx =
    match strategy with
    | Backtrack _ -> stamps.(I32.unsafe_get offsets cur + idx) <- epoch
    | Terminate | Random_reroute _ -> ()
  in
  (* Greedy leg toward [target]; stops at the target, at a stuck node, or at
     the hop budget. Returns (terminus, hops_so_far, ran_out_of_budget). *)
  let greedy_leg ~start ~target ~hops =
    let cur = ref start and h = ref hops and stop = ref false in
    while (not !stop) && !cur <> target && !h < max_hops do
      let found = best_neighbor ~mode:`Strict ~cur:!cur ~dst:target ~room:(max_hops - !h) in
      h := !h + !charged;
      if found then begin
        let v = !found_node in
        debug_check_strict_hop distance ~cur:!cur ~v ~dst:target;
        if tracing then
          candidate ~cur:!cur ~cand:v ~dist:(dist_to distance v target) Ftr_obs.Tracing.Chosen;
        record_tried !cur !found_idx;
        cur := v;
        incr h;
        on_hop v
      end
      else if !h < max_hops then stop := true
    done;
    (!cur, !h, (!cur <> target && not !stop))
  in
  let random_live_node () =
    match rng with
    | None -> None
    | Some rng ->
        let rec attempt tries =
          if tries > 100_000 then None
          else
            let v = Ftr_prng.Rng.int rng n in
            if Failure.node_alive failures v then Some v else attempt (tries + 1)
        in
        attempt 0
  in
  let backtracks = ref 0 in
  let outcome =
  (* [finally] returns the borrowed domain-local scratch even on the
     sanitizer's exception paths. *)
  Fun.protect ~finally:(fun () -> restore_scratch borrowed) @@ fun () ->
  match strategy with
  | Terminate ->
      let terminus, hops, out_of_budget = greedy_leg ~start:src ~target:dst ~hops:0 in
      leg_outcome ~terminus ~dst ~hops ~out_of_budget
  | Random_reroute { attempts } ->
      let rec go cur h attempts_left =
        let terminus, h, out_of_budget = greedy_leg ~start:cur ~target:dst ~hops:h in
        if terminus = dst then Delivered { hops = h }
        else if out_of_budget then Failed { hops = h; stuck_at = terminus; reason = Hop_limit }
        else if attempts_left = 0 then
          Failed { hops = h; stuck_at = terminus; reason = No_live_neighbor }
        else
          match random_live_node () with
          | None -> Failed { hops = h; stuck_at = terminus; reason = No_live_reroute_target }
          | Some r ->
              if tracing then
                Option.iter (fun t -> Ftr_obs.Tracing.reroute t ~from_node:terminus ~target:r) tr;
              (* Carry the message to the random intermediate (or as close
                 as greedy gets), then resume toward the destination. *)
              let mid, h, out_of_budget = greedy_leg ~start:terminus ~target:r ~hops:h in
              if out_of_budget then Failed { hops = h; stuck_at = mid; reason = Hop_limit }
              else go mid h (attempts_left - 1)
      in
      go src 0 attempts
  | Backtrack { history = history_limit } ->
      if history_limit < 1 then invalid_arg "Route.route: history must be >= 1";
      (* The most recently visited nodes, newest first, in a preallocated
         ring buffer bounded by the configured window. Every forward move
         pushes the departing node — including moves made after a
         backtrack, so a node's remaining untried links stay reachable
         while it is within the window (depth-first search with a bounded
         backtrack stack). [hist_start] indexes the newest entry; pushing
         at capacity lets the oldest entry fall out of the window, exactly
         the semantics of consing onto a list trimmed to [history_limit]. *)
      if Array.length s.bt_hist < history_limit then s.bt_hist <- Array.make history_limit 0;
      let hist = s.bt_hist in
      let cap = Array.length hist in
      let hist_start = ref 0 and hist_len = ref 0 in
      let push x =
        hist_start := (!hist_start - 1 + cap) mod cap;
        hist.(!hist_start) <- x;
        if !hist_len < history_limit then incr hist_len
      in
      let pop () =
        let y = hist.(!hist_start) in
        hist_start := (!hist_start + 1) mod cap;
        decr hist_len;
        y
      in
      (* Move from [cur] to the scan's pick, or report the node stuck —
         by the hop budget when the charges for dead candidates used it
         up. *)
      let rec step ~mode cur h =
        let found = best_neighbor ~mode ~cur ~dst ~room:(max_hops - h) in
        let h = h + !charged in
        if found then begin
          let v = !found_node in
          (match mode with `Strict -> debug_check_strict_hop distance ~cur ~v ~dst | `Any -> ());
          if tracing then
            candidate ~cur ~cand:v ~dist:(dist_to distance v dst) Ftr_obs.Tracing.Chosen;
          record_tried cur !found_idx;
          on_hop v;
          push cur;
          forward v (h + 1)
        end
        else if h >= max_hops then Failed { hops = h; stuck_at = cur; reason = Hop_limit }
        else backtrack cur h
      and forward cur h =
        if cur = dst then Delivered { hops = h }
        else if h >= max_hops then Failed { hops = h; stuck_at = cur; reason = Hop_limit }
        else step ~mode:`Strict cur h
      and backtrack stuck h =
        if !hist_len = 0 then Failed { hops = h; stuck_at = stuck; reason = No_live_neighbor }
        else begin
          let y = pop () in
          (* Travelling back to the previous node costs a hop. *)
          incr backtracks;
          if tracing then
            Option.iter (fun t -> Ftr_obs.Tracing.backtrack t ~from_node:stuck ~to_node:y) tr;
          let h = h + 1 in
          on_hop y;
          if h >= max_hops then Failed { hops = h; stuck_at = y; reason = Hop_limit }
          else
            (* "Chooses the next best neighbour": once the strictly closer
               options of [y] are exhausted, the search is allowed to route
               around the hole through a farther neighbour — without this,
               delivery would require a monotone live path, and the failure
               fractions of Figure 6 are unreachable. *)
            step ~mode:`Any y h
        end
      in
      forward src 0
  in
  (match tally with
  | Some t ->
      t.wasted <- t.wasted + !wasted;
      t.backtracks <- t.backtracks + !backtracks
  | None -> ());
  outcome

let network_distance ?(side = Two_sided) net =
  match (side, Network.geometry net) with
  | Two_sided, Network.Line when Network.is_full net -> Index_line
  | Two_sided, Network.Line -> Sorted_line (Network.positions net)
  | Two_sided, Network.Circle -> Metric { dist = Network.distance net; admissible = None }
  | One_sided, _ ->
      Metric
        {
          dist = (fun v t -> Network.routing_distance net ~side:`One_sided ~src:v ~dst:t);
          admissible = Some (fun ~cur v ~dst -> Network.one_sided_admissible net ~cur ~v ~dst);
        }

(* The endpoint contract of {!route}, and of {!route_pairs} with the same
   messages: both in range, then the destination alive, then the source. *)
let check_endpoints failures ~n ~src ~dst =
  if src < 0 || src >= n || dst < 0 || dst >= n then invalid_arg "Route.route: node out of range";
  if not (Failure.node_alive failures dst) then invalid_arg "Route.route: destination is dead";
  if not (Failure.node_alive failures src) then invalid_arg "Route.route: source is dead"

let route ?(failures = Failure.none) ?(side = Two_sided) ?(strategy = Terminate)
    ?(max_hops = default_max_hops) ?rng ?scratch ?(on_hop = fun _ -> ()) net ~src ~dst =
  check_endpoints failures ~n:(Network.size net) ~src ~dst;
  (* Telemetry: one bool load here is the whole cost when FTR_OBS is off —
     the unwrapped [on_hop] is passed through untouched and no metric or
     event code runs. When on, every hop feeds the (sampled) JSONL stream
     through the existing [on_hop] seam and the outcome feeds the
     route_hops histogram and stuck-reason counters below. *)
  let obs = Ftr_obs.Flag.enabled () in
  let tr = if obs then Ftr_obs.Tracing.begin_route ~src ~dst else Ftr_obs.Tracing.null in
  let tracing = Ftr_obs.Flag.enabled () && Ftr_obs.Tracing.is_live tr in
  if tracing then
    Ftr_obs.Tracing.set_context tr
      ~nodes:(Failure.node_view_label failures)
      ~links:(Failure.link_view_label failures)
      ~strategy:(strategy_label strategy);
  let on_hop =
    if obs then begin
      let hop_no = ref 0 in
      fun v ->
        incr hop_no;
        if tracing then Ftr_obs.Tracing.hop tr ~node:v;
        Ftr_obs.Events.emit ~kind:"route.hop"
          [
            ("src", Ftr_obs.Json.Int src);
            ("dst", Ftr_obs.Json.Int dst);
            ("hop", Ftr_obs.Json.Int !hop_no);
            ("node", Ftr_obs.Json.Int v);
          ];
        on_hop v
    end
    else on_hop
  in
  let tally = { wasted = 0; backtracks = 0 } in
  let outcome =
    greedy ~failures ~strategy ~max_hops ?rng ?scratch ~on_hop ~tr ~tally (Network.csr net)
      (network_distance ~side net) ~src ~dst
  in
  if obs then begin
    if tally.backtracks > 0 then Ftr_obs.Metrics.incr_by "route_backtracks_total" tally.backtracks;
    (match outcome with
    | Delivered { hops = h } ->
        Ftr_obs.Metrics.incr "route_delivered_total";
        Ftr_obs.Metrics.observe_int "route_hops" h
    | Failed { hops = h; reason; _ } ->
        Ftr_obs.Metrics.incr ~labels:[ ("reason", reason_label reason) ] "route_stuck_total";
        Ftr_obs.Metrics.observe_int "route_hops" h);
    if tracing then begin
      match outcome with
      | Delivered { hops = h } ->
          Ftr_obs.Tracing.finish tr ~delivered:true ~hops:h ~stuck_at:(-1) ~reason:""
      | Failed { hops = h; stuck_at; reason } ->
          Ftr_obs.Tracing.finish tr ~delivered:false ~hops:h ~stuck_at
            ~reason:(reason_label reason)
    end;
    Ftr_obs.Events.emit ~kind:"route.done"
      [
        ("src", Ftr_obs.Json.Int src);
        ("dst", Ftr_obs.Json.Int dst);
        ("delivered", Ftr_obs.Json.Bool (delivered outcome));
        ("hops", Ftr_obs.Json.Int (hops outcome));
      ]
  end;
  outcome

(* Routes in flight at once in [route_group]: eight independent row
   loads overlap their cache misses, and eight rows stay in L1. *)
let group_width = 8

(* Terminate routes for [pairs] over a line, [group_width] at a time
   (see {!route_pairs}). Each round has three stages. Stage 1 loads the
   row bounds of every slot's current node, and stage 2 one entry inside
   every non-empty row, the one the bisect reads first; the loads of a
   stage are independent of each other, so their cache misses overlap
   instead of queueing behind one route's chain of dependent reads.
   Stage 3 then takes one hop per slot through [line_pick], over rows
   already on their way into cache. A slot whose route ends writes its
   outcome at the pair's index and takes the next pair; with none left,
   the last slot moves into its place. Stage 3 walks the slots downward,
   so the moved slot has already taken this round's hop. *)
let route_group csr distance vw ~n pairs =
  let len = Array.length pairs in
  let { Csr.offsets; targets } = csr in
  let dense = is_dense distance and positions = line_positions distance in
  let out = Array.make len (Delivered { hops = 0 }) in
  let pair = Array.make group_width 0
  and cur = Array.make group_width 0
  and dst = Array.make group_width 0
  and dst_pos = Array.make group_width 0
  and hops = Array.make group_width 0
  and base = Array.make group_width 0
  and deg = Array.make group_width 0 in
  let next = ref 0 and active = ref 0 in
  let finish s ~terminus ~out_of_budget =
    out.(pair.(s)) <- leg_outcome ~terminus ~dst:dst.(s) ~hops:hops.(s) ~out_of_budget
  in
  (* Load slot [s] with the next pair that needs a hop, delivering
     [src = dst] pairs on the way, in pair order so that a bad endpoint
     raises where {!route} would. Whether a pair was left. *)
  let rec fill s =
    if !next >= len then false
    else begin
      let i = !next in
      incr next;
      let src, t = pairs.(i) in
      check_endpoints vw.failures ~n ~src ~dst:t;
      if src = t then begin
        out.(i) <- leg_outcome ~terminus:src ~dst:t ~hops:0 ~out_of_budget:false;
        fill s
      end
      else begin
        pair.(s) <- i;
        cur.(s) <- src;
        dst.(s) <- t;
        dst_pos.(s) <- line_pos ~dense positions t;
        hops.(s) <- 0;
        true
      end
    end
  in
  while !active < group_width && fill !active do
    incr active
  done;
  while !active > 0 do
    (* Stage 1: row bounds. *)
    for s = 0 to !active - 1 do
      let b = I32.unsafe_get offsets cur.(s) in
      base.(s) <- b;
      deg.(s) <- I32.unsafe_get offsets (cur.(s) + 1) - b
    done;
    (* Stage 2: one row entry, inside [base, base + deg) and only for a
       non-empty row; a fixed offset would read past [targets] on the
       last row. *)
    for s = 0 to !active - 1 do
      if deg.(s) > 0 then
        ignore (Sys.opaque_identity (I32.unsafe_get targets (base.(s) + (deg.(s) / 2))))
    done;
    (* Stage 3: one hop per slot. *)
    for s = !active - 1 downto 0 do
      let c = cur.(s) and t = dst.(s) and t_pos = dst_pos.(s) and b = base.(s) in
      let gap = line_pos ~dense positions c - t_pos in
      let k =
        line_pick ~dense positions targets vw ~cur:c ~base:b ~deg:deg.(s) ~dst_pos:t_pos
          ~limit:(if gap < 0 then -gap else gap) ~reject:None
      in
      let ended =
        if k < 0 then begin
          finish s ~terminus:c ~out_of_budget:false;
          true
        end
        else begin
          let v = I32.unsafe_get targets (b + k) in
          debug_check_strict_hop distance ~cur:c ~v ~dst:t;
          cur.(s) <- v;
          hops.(s) <- hops.(s) + 1;
          let ended = v = t || hops.(s) >= default_max_hops in
          if ended then finish s ~terminus:v ~out_of_budget:(v <> t);
          ended
        end
      in
      if ended && not (fill s) then begin
        decr active;
        let last = !active in
        pair.(s) <- pair.(last);
        cur.(s) <- cur.(last);
        dst.(s) <- dst.(last);
        dst_pos.(s) <- dst_pos.(last);
        hops.(s) <- hops.(last)
      end
    done
  done;
  out

let route_pairs ?(failures = Failure.none) ?(side = Two_sided) net pairs =
  let n = Network.size net in
  let distance = network_distance ~side net in
  let vw = view_of failures ~stamps:[||] ~epoch:0 in
  let grouped =
    (match distance with Sorted_line _ | Index_line -> true | Metric _ -> false)
    && vw.link_all
    && (match vw.node_bits with Some b -> Bitset.size b >= n | None -> vw.node_all)
    (* Trace ids, route.hop events and metrics follow route order. *)
    && not (Ftr_obs.Flag.enabled ())
  in
  if grouped then route_group (Network.csr net) distance vw ~n pairs
  else Array.map (fun (src, dst) -> route ~failures ~side net ~src ~dst) pairs

(* Length of the walk after erasing every excursion: each revisit of a node
   truncates the walk back to its first visit. For a backtracking search
   this is the length of the route the message would have taken had it
   known the dead ends in advance — the "delivery time" scale Figure 6(b)
   plots. *)
let loop_erased_length path =
  let position = Hashtbl.create 64 in
  let stack = ref [||] in
  let top = ref 0 in
  let push v =
    if !top = Array.length !stack then begin
      let bigger = Array.make (max 16 (2 * !top)) 0 in
      Array.blit !stack 0 bigger 0 !top;
      stack := bigger
    end;
    !stack.(!top) <- v;
    Hashtbl.replace position v !top;
    incr top
  in
  (* ftr-lint: disable R5 -- post-hoc analysis of an already-materialised path list, not the routing loop *)
  List.iter
    (fun v ->
      match Hashtbl.find_opt position v with
      | Some i when i < !top && !stack.(i) = v ->
          (* Revisit: unwind the excursion. *)
          for j = i + 1 to !top - 1 do
            Hashtbl.remove position !stack.(j)
          done;
          top := i + 1
      | Some _ | None -> push v)
    path;
  max 0 (!top - 1)

let route_path ?failures ?side ?strategy ?max_hops ?rng ?scratch net ~src ~dst =
  let path = ref [ src ] in
  let outcome =
    route ?failures ?side ?strategy ?max_hops ?rng ?scratch
      ~on_hop:(fun v -> path := v :: !path)
      net ~src ~dst
  in
  (outcome, List.rev !path)
