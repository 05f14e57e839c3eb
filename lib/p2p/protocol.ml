(* The overlay node protocol, written once for both runtimes: the node
   record and the rules that read and rewrite it. The event-heap overlay
   ([Overlay]) and the actor service ([Ftr_svc]) keep only what is their
   own — scheduling, accounting, metrics and where traces go — so the two
   very different schedulers agree byte for byte on owners, hop counts,
   redirects and repair targets. Nothing here touches an engine, a
   registry or a mailbox: liveness, probing and regeneration come in as
   callbacks, and the two RNG rules draw from the stream they are handed. *)

module Rng = Ftr_prng.Rng

type node = {
  pos : int;
  mutable alive : bool;
  mutable left : int option; (* nearest known live node to the left *)
  mutable right : int option;
  mutable long : int list; (* long-distance link targets (positions) *)
}

let node pos = { pos; alive = true; left = None; right = None; long = [] }

(* Ring pointers first, then long links: the scan order every verdict
   walk and stabilization pick is defined over. *)
let neighbors n = Option.to_list n.left @ Option.to_list n.right @ n.long

(* Stabilization's probe target: a uniform pick over [neighbors], one
   [Rng.int] draw, none when the node has no links at all. *)
let random_neighbor rng n =
  match neighbors n with
  | [] -> None
  | ns -> Some (List.nth ns (Rng.int rng (List.length ns)))

let add_long n target = n.long <- target :: n.long

(* Only the first occurrence goes: join and populate can hand a node the
   same long link twice, and each copy is one link. *)
let remove_long n target =
  let rec drop = function [] -> [] | l :: ls -> if l = target then ls else l :: drop ls in
  n.long <- drop n.long

(* Section 4's greedy rule with the tie walk: a strictly closer neighbour
   advances the lookup; an equidistant neighbour at a smaller position
   also does, so a point midway between two nodes resolves to the same
   owner from either direction (the tie walk moves leftward once and
   stops). *)
let advances ~pos ~target ~cand =
  let my_dist = abs (pos - target) and d = abs (cand - target) in
  d < my_dist || (d = my_dist && cand < pos)

(* Among advancing candidates, the one with minimal (distance, position)
   wins — the total order that makes the min-scan deterministic. *)
let better ~best ~best_dist ~cand ~dist = dist < best_dist || (dist = best_dist && cand < best)

(* One min-scan over the neighbour set; [None] means no neighbour
   advances, i.e. the scanning node owns the target's basin. Liveness is
   deliberately not consulted here: the caller probes the single chosen
   candidate and, on a dead pick, repairs the link set and re-scans —
   the paper's failure-detection-by-probing, shared by both runtimes. *)
let best_candidate ~pos ~target neighbors =
  let my_dist = abs (pos - target) in
  let best = ref (-1) and best_dist = ref max_int in
  List.iter
    (fun cand ->
      let dist = abs (cand - target) in
      if
        (dist < my_dist || (dist = my_dist && cand < pos))
        && better ~best:!best ~best_dist:!best_dist ~cand ~dist
      then begin
        best := cand;
        best_dist := dist
      end)
    neighbors;
  if !best < 0 then None else Some (!best, !best_dist)

(* Ring repair: walk the line away from the dead neighbour, one probe per
   grid point, until a live node answers or the line ends. [alive] is the
   caller's liveness oracle (registry lookup in the synchronous overlay,
   the frozen per-round view in the service); [on_probe] charges each
   probe to the caller's accounting. The walking node itself never
   answers its own probe. *)
let probe_ring ~alive ~line_size ~self ~from ~dir ~on_probe =
  let rec walk pos =
    if pos < 0 || pos >= line_size then None
    else begin
      on_probe ();
      if alive pos && pos <> self then Some pos else walk (pos + dir)
    end
  in
  walk (from + dir)

(* Section 5's replacement rule, applied when [newcomer] solicits a link
   from [n]: accept with probability p_new / (sum + p_new), where every
   link to distance d weighs 1/d, and evict a link drawn in proportion to
   its weight. Two [Rng.float] draws on acceptance (accept, victim), one
   on rejection, none when [n] is the newcomer or has no long links. *)
let redirect rng n ~newcomer =
  if newcomer = n.pos then None
  else begin
    let weight l = 1.0 /. float_of_int (abs (n.pos - l)) in
    let sum_old = List.fold_left (fun acc l -> acc +. weight l) 0.0 n.long in
    let p_new = weight newcomer in
    if sum_old > 0.0 && Rng.float rng < p_new /. (sum_old +. p_new) then begin
      let target = Rng.float rng *. sum_old in
      let rec scan acc = function
        | [] -> None
        | l :: rest ->
            let w = weight l in
            if acc +. w > target then Some l else scan (acc +. w) rest
      in
      match scan 0.0 n.long with
      | Some victim ->
          remove_long n victim;
          add_long n newcomer;
          Some victim
      | None -> None
    end
    else None
  end

(* Section 5's "regenerate links when a node crashes", in a fixed order:
   drop the dead long link and call [on_long] (accounting, then the
   caller's regeneration lookup, which may re-enter this node), then
   re-probe each ring pointer still naming [dead] — left before right —
   calling [on_ring] after each. [probe ~from ~dir] is the caller's
   [probe_ring]. *)
let repair n ~dead ~probe ~on_long ~on_ring =
  if List.mem dead n.long then begin
    remove_long n dead;
    on_long ()
  end;
  let points_at = function Some p -> p = dead | None -> false in
  if points_at n.left then begin
    n.left <- probe ~from:dead ~dir:(-1);
    on_ring ()
  end;
  if points_at n.right then begin
    n.right <- probe ~from:dead ~dir:1;
    on_ring ()
  end

(* The flight recorder's view of one scan: every neighbour the min-scan
   passed over, in [neighbors] order, with why ([Not_best] if it would
   have advanced, else [Not_closer]), then the kept candidate as
   [Chosen]. A dead pick is recorded by the caller when its probe finds
   out. *)
let fold_verdicts n ~target choice f acc =
  let best = match choice with Some (v, _) -> v | None -> -1 in
  let acc =
    List.fold_left
      (fun acc v ->
        if v = best then acc
        else
          f acc ~cand:v ~dist:(abs (v - target))
            (if advances ~pos:n.pos ~target ~cand:v then Ftr_obs.Tracing.Not_best
             else Ftr_obs.Tracing.Not_closer))
      acc (neighbors n)
  in
  match choice with Some (v, d) -> f acc ~cand:v ~dist:d Ftr_obs.Tracing.Chosen | None -> acc
