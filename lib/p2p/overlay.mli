(** The paper's overlay as a running message-passing protocol on the
    discrete-event engine.

    Nodes live at line positions and keep (a) ring links to the nearest
    live node on each side and (b) ℓ long-distance links maintained by the
    Section 5 heuristic. All interaction is by messages with a fixed
    latency: lookups route greedily hop by hop; joins find their ring slot
    and their long links through routed lookups and solicit incoming links
    with the Poisson/redirect rule; crashes are discovered by probes during
    routing, and dead links are regenerated with fresh 1/d draws
    (self-healing). *)

type t

type stats = {
  mutable lookups_issued : int;  (** user lookups (via {!lookup}) *)
  mutable lookups_ok : int;
  mutable lookups_failed : int;
  mutable hops_on_success : int;  (** total hops over successful user lookups *)
  mutable maintenance_issued : int;
      (** protocol-internal lookups: join placement, link setup, repair *)
  mutable maintenance_failed : int;
  mutable messages : int;  (** routed protocol messages *)
  mutable probes : int;  (** failure-detection and ring-repair probes *)
  mutable repairs : int;  (** links regenerated after a failure *)
  mutable joins : int;
  mutable crashes : int;
  mutable leaves : int;
}

val create :
  ?latency:float ->
  ?latency_model:Ftr_sim.Latency.t ->
  ?ttl:int ->
  ?regenerate:bool ->
  line_size:int ->
  links:int ->
  rng:Ftr_prng.Rng.t ->
  Ftr_sim.Engine.t ->
  t
(** An empty overlay bound to an engine. [latency] is a fixed per-message
    delay (default 1.0); [latency_model] overrides it with a jittered or
    heavy-tailed model, so experiments can check that conclusions survive
    asynchrony. [ttl] caps lookup hops (default 256). [regenerate]
    (default [true]) controls Section 5's link regeneration: when [false],
    dead links are still detected, removed and the ring repaired, but no
    replacement 1/d lookups are issued — the link set only shrinks. With a
    constant latency model this makes a lookup's outcome a pure function
    of the link state and the failure set (no RNG draws on the routing
    path), which is what the {!Ftr_svc} equivalence harness pins against.
    @raise Invalid_argument on non-positive latency or sizes. *)

val engine : t -> Ftr_sim.Engine.t
(** The engine this overlay schedules on. *)

val stats : t -> stats
(** Live statistics (mutated as the simulation runs). *)

val node_count : t -> int
(** Number of live nodes. *)

val is_alive : t -> int -> bool
(** Whether a live node sits at the position. *)

val live_positions : t -> int list
(** Sorted positions of live nodes. *)

val bootstrap_node : t -> pos:int -> int
(** Place the very first node without any protocol traffic; returns its
    position. @raise Invalid_argument if the position is occupied. *)

val populate : t -> positions:int list -> unit
(** Instantaneously instantiate a whole network (ring plus ideally-drawn
    long links) as a churn starting point, bypassing join traffic.
    @raise Invalid_argument on empty or out-of-range positions. *)

val join : t -> pos:int -> via:int -> unit
(** Schedule the full join protocol for a new node at [pos], bootstrapped
    through the live node at [via].
    @raise Invalid_argument if [pos] is occupied or [via] is dead. *)

val leave : t -> pos:int -> unit
(** Graceful departure: splice the ring, then go. No-op if absent. *)

val crash : t -> pos:int -> unit
(** Fail-stop: the node disappears without telling anyone; neighbours
    discover it by probes. No-op if absent. *)

val lookup :
  t -> from:int -> target:int -> ?callback:(owner:int -> hops:int -> unit) -> unit -> unit
(** Issue a greedy routed lookup for a line point from a live node. The
    callback (if any) fires with the owning node when the lookup resolves;
    failures are counted in {!stats}.
    @raise Invalid_argument if [from] is dead or [target] off the line. *)

(** {1 Introspection for the invariant sanitizer} *)

type node_view = {
  view_pos : int;
  view_alive : bool;
  view_left : int option;  (** nearest known live node to the left *)
  view_right : int option;
  view_long : int list;  (** long-distance link targets (positions) *)
  view_births : int list;  (** arrival ticks, aligned with [view_long] *)
}

val line_size : t -> int
(** Number of grid points on the underlying line. *)

val links : t -> int
(** The per-node long-link budget ℓ. *)

val ttl : t -> int
(** The lookup hop cap this overlay was created with. *)

val known : t -> int -> bool
(** Whether a node (live or dead) ever existed at the position. *)

val iter_nodes : t -> (node_view -> unit) -> unit
(** Visit every node in the registry, dead ones included, in no
    particular order. *)

val enable_stabilization : ?period:float -> ?checks_per_tick:int -> until:float -> t -> unit
(** Background self-healing until virtual time [until]: every [period]
    (default 10.0), [checks_per_tick] (default 8) random live nodes each
    probe one random neighbour and regenerate it if dead — repair traffic
    decoupled from lookups, so damage heals even on an idle overlay.
    @raise Invalid_argument on non-positive period or zero checks. *)
