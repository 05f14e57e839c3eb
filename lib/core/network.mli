(** Static overlay networks on the line (Section 4.3).

    A network is a set of nodes at strictly increasing line positions; node
    [i] knows the nodes at indices [neighbors i]. Every builder links each
    node to its nearest present node on either side (the "immediate"
    neighbours the paper assumes never fail) plus long-distance links
    according to the chosen strategy:

    - {!build_ideal}: [links] independent draws from the inverse power-law
      length distribution with the given exponent (the paper's main model,
      exponent 1).
    - {!build_binomial}: Theorem 17's model — each line position hosts a
      node with probability [present_p], and nodes link only to existing
      nodes, with the length law conditioned on existence.
    - {!build_deterministic}: Theorem 14's digit-fixing strategy — links at
      distances [j·base^i] in both directions.
    - {!build_geometric}: Theorem 16's simplified strategy — links at
      distances [base^i] in both directions. *)

type geometry =
  | Line  (** the paper's primary space: a segment with boundaries *)
  | Circle  (** the identifier circle (Chord's space; Section 7's "or a circle") *)

type t

val geometry : t -> geometry
(** The metric space the network is embedded in. *)

val size : t -> int
(** Number of (present) nodes. *)

val line_size : t -> int
(** Number of grid points on the underlying line. *)

val links : t -> int
(** Nominal number of long-distance links per node. *)

val position : t -> int -> int
(** Line position of node index [i]. On full networks this is the
    identity. *)

val positions : t -> Ftr_graph.Adjacency.I32.t
(** The full strictly increasing position vector (no copy — do not
    mutate). [I32.get (positions t) i = position t i]; exposed, like
    {!csr}, so hot loops can compute distances without a call per
    candidate. *)

val neighbors : t -> int -> int array
(** Debug/test accessor: fresh copy of a node's sorted neighbour-index
    row. The row is sorted
    non-decreasing; the {b duplicate guarantee} is per builder: the random
    builders ({!build_ideal}, {!build_binomial}, {!build_ring}) keep one
    entry per sampled link, so a row may contain duplicates when several
    independent draws landed on the same node (the multiplicity is part of
    the sampled distribution and of the routing semantics); the structural
    builders ({!build_deterministic}, {!build_geometric},
    {!build_chordlike}) produce strictly increasing, duplicate-free rows.
    The Check battery enforces exactly this policy per builder. Since the
    move to flat CSR storage this function copies; hot paths should use
    {!degree}/{!neighbor}/{!iter_neighbors} or {!csr} instead. *)

val degree : t -> int -> int
(** Number of neighbour entries of a node (duplicates counted). *)

val neighbor : t -> int -> int -> int
(** [neighbor t i k] is the [k]-th entry of node [i]'s sorted row,
    [0 <= k < degree t i]. *)

val iter_neighbors : t -> int -> (int -> unit) -> unit
(** Apply to every neighbour entry of a node in row order, without
    copying. *)

val csr : t -> Ftr_graph.Adjacency.Csr.t
(** The underlying flat CSR pair (no copy — do not mutate). Node [i]'s row
    is [targets.(offsets.(i)) .. targets.(offsets.(i+1)-1)], sorted. This
    is the representation the routing inner loop scans. *)

val is_full : t -> bool
(** Whether every line position hosts a node. *)

val distance : t -> int -> int -> int
(** Metric distance between two node indices: absolute difference on the
    line, shorter arc on the circle. *)

val point_distance : t -> int -> int -> int
(** Metric distance between two raw points of the space. *)

val clockwise_distance : t -> src:int -> dst:int -> int
(** Arc length from [src] to [dst] in the increasing direction — the
    one-sided metric on the circle.
    @raise Invalid_argument on line networks. *)

val routing_distance : t -> side:[ `One_sided | `Two_sided ] -> src:int -> dst:int -> int
(** The quantity greedy routing minimises: the metric distance, except for
    one-sided routing on the circle where it is the clockwise arc. *)

val one_sided_admissible : t -> cur:int -> v:int -> dst:int -> bool
(** Whether hopping from [cur] to [v] is allowed under one-sided routing:
    on the line, [v] must lie between [cur] and the target (never past it);
    on the circle the clockwise metric already encodes this and every hop
    is admissible. *)

val nearest_index : t -> position:int -> int
(** Node index whose position is closest to the given line position (ties
    to the left). *)

val index_of_position : t -> position:int -> int option
(** Node index exactly at the given position, if present. *)

val to_adjacency : t -> Ftr_graph.Adjacency.t
(** View as a directed graph over node indices. *)

val of_flat :
  ?validate:bool ->
  geometry:geometry ->
  line_size:int ->
  positions:Ftr_graph.Adjacency.I32.t ->
  adj:Ftr_graph.Adjacency.Csr.t ->
  links:int ->
  unit ->
  t
(** Assemble a network from already-flat parts without copying — the one
    public constructor for custom networks (the snapshot loader, the
    Section 5 heuristic, test fixtures). [validate] (default true) runs
    the full structural check (CSR invariants with sorted rows, positions
    strictly increasing and on the grid); pass [false] only for parts
    produced in-process by a trusted builder.
    @raise Invalid_argument on malformed input. *)

val build_ideal : ?exponent:float -> n:int -> links:int -> Ftr_prng.Rng.t -> t
(** Full network of [n] nodes: immediate neighbours plus [links] draws per
    node with Pr[length d] proportional to [1/d^exponent] (default 1, the
    paper's law). Streams rows straight into the CSR builder — O(n) time,
    O(links) transient state beyond the result itself.
    @raise Invalid_argument if [n < 2] or [links < 0]. *)

val build_ideal_materialized : ?exponent:float -> n:int -> links:int -> Ftr_prng.Rng.t -> t
(** Reference implementation of {!build_ideal} that materializes every
    jagged row before flattening. Consumes the RNG in exactly the same
    order, so given equal generator states the two produce byte-identical
    networks — the equivalence is qcheck-pinned in the test suite. Kept as
    the oracle for the streaming path; prefer {!build_ideal}. *)

val build_binomial :
  ?exponent:float -> n:int -> links:int -> present_p:float -> Ftr_prng.Rng.t -> t
(** Theorem 17: each of [n] grid points hosts a node with probability
    [present_p]; long links are drawn from the length law conditioned on
    the target existing (rejection sampling). At least two nodes are forced
    present so the result is routable.
    @raise Invalid_argument if [present_p] is outside (0,1]. *)

val build_deterministic : n:int -> base:int -> t
(** Theorem 14: links to [u ± j·base^i] for [j in 1..base-1] and
    [i in 0..⌈log_base n⌉-1]; delivery needs at most [⌈log_base n⌉] hops.
    @raise Invalid_argument if [base < 2]. *)

val build_geometric : n:int -> base:int -> t
(** Theorem 16's link model: links to [u ± base^i] only. *)

val build_ring : ?exponent:float -> n:int -> links:int -> Ftr_prng.Rng.t -> t
(** Full circle of [n] nodes: ring neighbours (wrapping) plus [links] draws
    per node with Pr[arc length d] proportional to [1/d^exponent] — the
    boundary-free variant of {!build_ideal}.
    @raise Invalid_argument if [n < 3] or [links < 0]. *)

val long_link_lengths : t -> int list
(** Lengths of all long-distance links (every link except the single
    nearest-neighbour link on each side). *)

val sample_long_target : Ftr_prng.Sample.power_law -> Ftr_prng.Rng.t -> n:int -> src:int -> int
(** One draw of a long-link target for a node at position [src] on a line
    of [n] points: Pr[target v] proportional to [1/d(src,v)^exponent]
    (the exponent is baked into the prefix table). Exposed for the
    Section 5 heuristic, which uses the same law to pick sinks. *)

val build_chordlike : ?base:int -> ?predecessor:bool -> n:int -> unit -> t
(** Chord inside this framework (Section 3): a circle with clockwise links
    at distances [j·base^i] plus the successor. One-sided greedy routing
    over it follows exactly Chord's finger-table routes — see the
    equivalence test in the suite. [predecessor] (default false) adds the
    counter-clockwise ring link Chord lacks, which makes two-sided routing
    total. @raise Invalid_argument if [n < 3] or [base < 2]. *)
