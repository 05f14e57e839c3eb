module Torus = Ftr_metric.Torus
module Sample = Ftr_prng.Sample
module Csr = Ftr_graph.Adjacency.Csr

type t = {
  torus : Torus.t;
  adj : Csr.t; (* sorted per-row neighbour indices, flat form *)
  links : int;
  alpha : float;
}

let torus t = t.torus

let size t = Torus.size t.torus

let dims t = Torus.dims t.torus

let links t = t.links

let alpha t = t.alpha

let neighbors t u = Csr.row t.adj u

(* Offset table shared by all nodes: every non-zero offset vector weighted
   by d(offset)^-alpha, where d is the wraparound L1 distance. Kleinberg's
   construction generalised to any dimension; alpha = dims is his optimal
   exponent. *)
let build_offset_cdf torus ~alpha =
  let total = Torus.size torus in
  let offsets = Array.make (total - 1) 0 in
  let weights = Array.make (total - 1) 0.0 in
  let k = ref 0 in
  for off = 1 to total - 1 do
    let d = Torus.distance torus 0 off in
    offsets.(!k) <- off;
    weights.(!k) <- 1.0 /. Float.pow (float_of_int d) alpha;
    incr k
  done;
  (offsets, Sample.cdf_of_weights weights)

(* Add an offset vector (encoded as a point relative to the origin) to a
   point, axis by axis with wraparound. *)
let add_offset torus u off =
  let cu = Torus.coords torus u and co = Torus.coords torus off in
  let d = Torus.dims torus in
  let result = Array.make d 0 in
  for i = 0 to d - 1 do
    result.(i) <- (cu.(i) + co.(i)) mod Torus.side torus
  done;
  Torus.index torus result

let build ?alpha ?(links = 1) ~dims ~side rng =
  if dims < 1 then invalid_arg "Multidim.build: dims must be >= 1";
  if side < 3 then invalid_arg "Multidim.build: side must be >= 3";
  if links < 0 then invalid_arg "Multidim.build: negative link count";
  let torus = Torus.create ~dims ~side in
  let alpha = match alpha with Some a -> a | None -> float_of_int dims in
  let offsets, cdf = build_offset_cdf torus ~alpha in
  let rows =
    Array.init (Torus.size torus) (fun u ->
        let lattice = Torus.neighbors torus u in
        let long = ref [] in
        for _ = 1 to links do
          let off = offsets.(Sample.cdf_draw cdf rng) in
          long := add_offset torus u off :: !long
        done;
        let arr = Array.of_list (List.rev_append lattice !long) in
        Array.sort Int.compare arr;
        arr)
  in
  { torus; adj = Csr.of_rows rows; links; alpha }

type outcome = Delivered of { hops : int } | Failed of { hops : int; stuck_at : int }

let delivered = function Delivered _ -> true | Failed _ -> false

let hops = function Delivered { hops } -> hops | Failed { hops; _ } -> hops

type strategy = Terminate | Backtrack of { history : int }

(* Greedy routing with node failures and the Section 6 stuck-message
   strategies, lifted to the torus: the line model's {!Route.greedy} over
   the torus rows with the wraparound L1 distance. *)
let route ?(alive = fun _ -> true) ?(strategy = Terminate) ?(max_hops = 1_000_000) t ~src ~dst =
  if not (Torus.contains t.torus src && Torus.contains t.torus dst) then
    invalid_arg "Multidim.route: node off the torus";
  if not (alive src && alive dst) then invalid_arg "Multidim.route: endpoint is dead";
  let strategy =
    match strategy with
    | Terminate -> Route.Terminate
    | Backtrack { history } ->
        if history < 1 then invalid_arg "Multidim.route: history must be >= 1";
        Route.Backtrack { history }
  in
  let distance = Route.Metric { dist = Torus.distance t.torus; admissible = None } in
  match
    Route.greedy ~failures:(Failure.make ~node_alive:alive ()) ~strategy ~max_hops t.adj distance
      ~src ~dst
  with
  | Route.Delivered { hops } -> Delivered { hops }
  | Route.Failed { hops; stuck_at; _ } -> Failed { hops; stuck_at }

let route_hops ?alive ?strategy ?max_hops t ~src ~dst =
  match route ?alive ?strategy ?max_hops t ~src ~dst with
  | Delivered { hops } -> hops
  | Failed _ -> invalid_arg "Multidim.route_hops: routing failed"
