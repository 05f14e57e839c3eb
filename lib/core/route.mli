(** Greedy routing over a {!Network.t} (Sections 4 and 6).

    A message at node [cur] bound for node [dst] is forwarded to the live
    neighbour closest to [dst]; one-sided routing additionally refuses to
    jump past the target (Section 4.2.1). When no live neighbour is
    strictly closer, one of the three Section 6 strategies applies:

    - {!Terminate}: give up (strategy 1);
    - {!Random_reroute}: deliver the message to a uniformly random live
      node and retry from there, Valiant-style (strategy 2);
    - {!Backtrack}: walk back through the last [history] visited nodes and
      try their next-best untried neighbours (strategy 3; the paper uses
      [history = 5]). Forward motion stays strictly greedy, but a
      backtracked node that has exhausted its closer options may continue
      through a farther neighbour to route around a hole — the reading of
      "chooses the next best neighbor" that reproduces Figure 6's failure
      fractions (requiring monotone live paths caps success far below the
      paper's curve at high failure rates).

    A node never forwards to a dead neighbour — liveness is checked before
    the hop — and, per the paper, never retries a different link of the
    same node once its best choice is exhausted except through the explicit
    backtracking strategy. *)

type side = One_sided | Two_sided

type strategy =
  | Terminate
  | Random_reroute of { attempts : int }
  | Backtrack of { history : int }

type reason =
  | No_live_neighbor  (** stuck: no live neighbour closer to the target *)
  | Hop_limit  (** exceeded [max_hops] *)
  | No_live_reroute_target  (** reroute could not find a live node *)

type outcome =
  | Delivered of { hops : int }
  | Failed of { hops : int; stuck_at : int; reason : reason }

val delivered : outcome -> bool
(** Whether the message reached its destination. *)

val reason_label : reason -> string
(** Stable snake_case name of a stuck reason, as used by the telemetry
    labels (e.g. route_stuck_total{reason="no_live_neighbor"}) and the
    [--json] CLI outputs. *)

val strategy_label : strategy -> string
(** Stable snake_case name of a recovery strategy (["terminate"],
    ["random_reroute"], ["backtrack"]), as printed in flight-recorder
    trace headers and CLI output. *)

val hops : outcome -> int
(** Hops consumed, delivered or not (backtracking steps count). *)

type scratch
(** Reusable working state for {!route}: the epoch-stamped per-link
    "tried" array and the preallocated backtrack window, sized to a
    network's CSR edge count. With a caller-held scratch, routing performs
    zero minor-heap allocations per hop in steady state; a scratch passed
    for a larger network than it was built for is regrown transparently.
    Not thread-safe: one scratch per domain. *)

val scratch : Network.t -> scratch
(** Fresh scratch sized for [net]. *)

val route :
  ?failures:Failure.t ->
  ?side:side ->
  ?strategy:strategy ->
  ?max_hops:int ->
  ?rng:Ftr_prng.Rng.t ->
  ?scratch:scratch ->
  ?on_hop:(int -> unit) ->
  Network.t ->
  src:int ->
  dst:int ->
  outcome
(** Route a message between node indices. Defaults: no failures, two-sided,
    terminate-on-stuck, one million hop budget. [rng] is required only by
    {!Random_reroute}; [on_hop] observes every node the message visits.
    [scratch] lets callers routing many messages reuse the working arrays
    (outcomes are identical with or without it).
    @raise Invalid_argument if an endpoint is out of range or dead. *)

val route_pairs :
  ?failures:Failure.t ->
  ?side:side ->
  Network.t ->
  (int * int) array ->
  outcome array
(** [route_pairs net pairs] routes every [(src, dst)] pair with
    {!Terminate} and the default hop budget, and returns exactly the
    outcomes {!route} gives each pair, in pair order. On a
    two-sided line with every link alive and the nodes all alive or
    failed through a bitset covering every node, it routes eight pairs
    at a time, loading their rows together so that their cache misses
    overlap (docs/MEMORY_LAYOUT.md, "Memory touched per hop"). Any other
    network or failure view, and any call with telemetry on
    ({!Ftr_obs.Flag.enabled}), routes one pair at a time through {!route}.
    @raise Invalid_argument with {!route}'s message for the first pair in
    order whose endpoint is out of range or dead. *)

(** {1 The greedy kernel}

    The one candidate scan and Section 6 strategy loop behind {!route},
    {!Multidim.route} and {!Byzantine.route}: epoch-stamped tried slots,
    the ring-buffer backtrack window and the hop budget, over any CSR
    candidate source. *)

type distance =
  | Sorted_line of Ftr_graph.Adjacency.I32.t
      (** Two-sided distance between these positions on a line with sorted
          rows: the scan bisects each row, with no call per candidate. *)
  | Index_line
      (** Two-sided distance on a full line, whose node index is its
          position ([|v - t|]): the same scan as {!Sorted_line}, reading
          the rows and no positions. Exact for a network with as many
          nodes as grid points, whose strictly increasing positions in
          [\[0, n)] are exactly [0 .. n-1]. *)
  | Metric of { dist : int -> int -> int; admissible : (cur:int -> int -> dst:int -> bool) option }
      (** [dist v target]; [admissible], when present, additionally
          filters candidates (the one-sided no-overshoot rule). *)

val network_distance : ?side:side -> Network.t -> distance
(** The distance {!route} routes a network by (default two-sided):
    {!Index_line} on a full two-sided line ({!Network.is_full}),
    {!Sorted_line} on a sparse one, the network's metric otherwise. *)

type on_dead =
  | Skip  (** a dead candidate is passed over for free (crash failures) *)
  | Charge
      (** each dead candidate ranked ahead of the pick costs one hop (a
          wasted message) and is never tried again in this route *)
  | Halt  (** the first dead candidate ranked ahead of the pick ends the route *)

type tally = { mutable wasted : int; mutable backtracks : int }
(** Counts a {!greedy} run adds to: messages charged to dead candidates,
    and backtrack steps. *)

val greedy :
  ?failures:Failure.t ->
  ?strategy:strategy ->
  ?max_hops:int ->
  ?rng:Ftr_prng.Rng.t ->
  ?scratch:scratch ->
  ?on_hop:(int -> unit) ->
  ?dead:on_dead ->
  ?tr:Ftr_obs.Tracing.t ->
  ?tally:tally ->
  Ftr_graph.Adjacency.Csr.t ->
  distance ->
  src:int ->
  dst:int ->
  outcome
(** Greedy routing over a validated CSR with the semantics of {!route}
    (defaults: no failures, {!Terminate}, one million hops, {!Skip}). It
    emits no metrics or events; flight-recorder steps go to [tr] only
    (default: none). Endpoint liveness is the caller's to check.
    @raise Invalid_argument if an endpoint is out of range, a
    {!Sorted_line} has fewer positions than nodes, or a {!Backtrack}
    history is below 1. *)

val loop_erased_length : int list -> int
(** Hop count of a visit sequence after erasing every excursion (a revisit
    truncates back to the first visit). Total hops charge the full
    exploration cost of backtracking; the loop-erased length is the final
    route's length — the scale on which Figure 6(b) plots delivery time. *)

val route_path :
  ?failures:Failure.t ->
  ?side:side ->
  ?strategy:strategy ->
  ?max_hops:int ->
  ?rng:Ftr_prng.Rng.t ->
  ?scratch:scratch ->
  Network.t ->
  src:int ->
  dst:int ->
  outcome * int list
(** As {!route}, also returning the full sequence of visited nodes
    (starting with [src]). *)
