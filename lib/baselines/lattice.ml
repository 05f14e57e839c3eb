(* A CAN-style lattice is the links = 0 instance of the generalised torus
   construction in [Ftr_core.Multidim], routed by the same greedy kernel;
   this module is a thin, name-stable facade over it. On a lattice every
   strictly closer neighbour cuts the L1 distance by exactly 1, so the hop
   count is the L1 distance, i.e. Θ(d · n^{1/d}) in the worst case. *)

module Multidim = Ftr_core.Multidim
module Torus = Ftr_metric.Torus

type t = Multidim.t

let create ~dims ~side =
  if side < 3 then invalid_arg "Lattice.create: side must be >= 3";
  (* With no long links the build draws nothing: the generator is a
     placeholder, never advanced, and no caller's stream is touched. *)
  Multidim.build ~links:0 ~dims ~side (Ftr_prng.Rng.of_int 0)

let torus = Multidim.torus

let size = Multidim.size

let route ?(max_hops = 100_000_000) t ~src ~dst =
  if not (Torus.contains (torus t) src && Torus.contains (torus t) dst) then
    invalid_arg "Lattice.route: node off the torus";
  match Multidim.route ~max_hops t ~src ~dst with
  | Multidim.Delivered { hops } -> Some hops
  | Multidim.Failed _ -> None

let route_hops t ~src ~dst =
  match route t ~src ~dst with
  | Some h -> h
  | None -> invalid_arg "Lattice.route_hops: routing failed"

let expected_hops t = float_of_int (Torus.dims (torus t)) *. float_of_int (Torus.side (torus t)) /. 4.0
