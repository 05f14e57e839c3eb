(** The overlay node protocol, shared by both runtimes: the node record
    and the rules of Sections 4-5 that read and rewrite it. {!Overlay}
    (the event-heap runtime) and the actor service ({!Ftr_svc}) keep only
    scheduling, accounting, metrics and trace routing of their own, so
    they make exactly the same choices. Liveness, probing and
    regeneration come in as callbacks; no engine, registry or mailbox is
    touched here. *)

type node = {
  pos : int;
  mutable alive : bool;
  mutable left : int option;  (** nearest known live node to the left *)
  mutable right : int option;
  mutable long : int list;  (** long-distance link targets (positions) *)
}

val node : int -> node
(** A live node at a position with no links. *)

val neighbors : node -> int list
(** Ring pointers (left, right), then long links, in that order. *)

val random_neighbor : Ftr_prng.Rng.t -> node -> int option
(** Stabilization's probe target: a uniform pick over {!neighbors} (one
    [Rng.int] draw), or [None] with no draw when the node has no links. *)

val add_long : node -> int -> unit
(** Prepend a long link. *)

val remove_long : node -> int -> unit
(** Remove the first occurrence of a long link (join and populate can
    give a node duplicates; each copy is one link). *)

val advances : pos:int -> target:int -> cand:int -> bool
(** Section 4's greedy advance rule with the tie walk: [cand] advances a
    lookup for [target] sitting at [pos] when it is strictly closer, or
    equidistant at a smaller position. *)

val better : best:int -> best_dist:int -> cand:int -> dist:int -> bool
(** The min-scan total order: [cand] at [dist] beats the current [best]
    at [best_dist] on smaller distance, position breaking ties. *)

val best_candidate : pos:int -> target:int -> int list -> (int * int) option
(** One min-scan over a neighbour set: the advancing candidate with
    minimal (distance, position) and its distance, or [None] when no
    neighbour advances — the scanning node owns the target's basin.
    Liveness is not consulted; the caller probes the chosen candidate
    and re-scans after repairing a dead pick. *)

val probe_ring :
  alive:(int -> bool) ->
  line_size:int ->
  self:int ->
  from:int ->
  dir:int ->
  on_probe:(unit -> unit) ->
  int option
(** Ring repair by walking the line from [from] in direction [dir] (±1),
    one [on_probe] charge per grid point, until [alive] answers at a
    position other than [self] or the line ends. *)

val redirect : Ftr_prng.Rng.t -> node -> newcomer:int -> int option
(** Section 5's replacement rule when [newcomer] solicits a link: accept
    with probability p_new / (sum + p_new) under 1/d weights, then evict
    a link drawn in proportion to its weight and link to [newcomer]
    instead. Returns the evicted link. Draws two [Rng.float]s on
    acceptance, one on rejection, none when [newcomer] is the node itself
    or it has no long links. *)

val repair :
  node ->
  dead:int ->
  probe:(from:int -> dir:int -> int option) ->
  on_long:(unit -> unit) ->
  on_ring:(unit -> unit) ->
  unit
(** Dead-link repair, in order: drop the long link to [dead] (first
    occurrence) and call [on_long] — the caller's accounting and
    regeneration; then re-probe the left, then the right ring pointer if
    it still names [dead], calling [on_ring] after each. *)

val fold_verdicts :
  node ->
  target:int ->
  (int * int) option ->
  ('a -> cand:int -> dist:int -> Ftr_obs.Tracing.verdict -> 'a) ->
  'a ->
  'a
(** The flight recorder's verdicts for one scan whose result was
    [choice]: each neighbour passed over, in {!neighbors} order, as
    [Not_best] (it advances) or [Not_closer], then the pick as [Chosen]. *)
