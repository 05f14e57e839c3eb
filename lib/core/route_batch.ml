module Pool = Ftr_exec.Pool
module Seed = Ftr_exec.Seed

(* Batch routing on the exec pool. Determinism comes from three choices:
   the chunk grid is a pure function of (count, chunk) — never of the
   worker count; each route's generator is derived from (seed, global
   route index) by [Seed.rng_for], not drawn from a shared stream; and
   [Pool.map] returns chunk results in job-index order. The merged vector
   is therefore byte-identical across --jobs 1/2/4 and FTR_EXEC_SEQ=1
   (qcheck-pinned, and re-asserted by bench.scale on every @perf run).

   A chunk of Terminate routes with the default budget goes to
   [Route.route_pairs]. On a line it keeps eight of the chunk's routes in
   flight and loads each one's row bounds and one row entry before any
   of them hops, so the cache misses of eight routes overlap instead of
   queueing behind each other (docs/MEMORY_LAYOUT.md, "Memory touched
   per hop"). Its state is a handful of eight-slot arrays per chunk, and
   its outcomes equal [Route.route]'s pair by pair (qcheck-pinned).

   Every other chunk routes one pair at a time through [Route.route].
   Its scratch is per domain, not per route: [Route.route] with no
   explicit scratch borrows the Domain.DLS-cached one, so a chunk of
   backtracking routes costs one scratch per worker domain, amortized to
   nothing. *)

let default_chunk = 1024

let run ?jobs ?(chunk = default_chunk) ?failures ?side ?strategy ?max_hops ?(seed = 0) net
    ~pairs =
  if chunk < 1 then invalid_arg "Route_batch.run: chunk must be >= 1";
  let count = Array.length pairs in
  if count = 0 then [||]
  else begin
    (* Only Random_reroute consumes randomness; the derivation per route
       index is skipped entirely for the deterministic strategies. *)
    let needs_rng =
      match strategy with
      | Some (Route.Random_reroute _) -> true
      | Some (Route.Terminate | Route.Backtrack _) | None -> false
    in
    (* [Route.route_pairs] routes one pair at a time itself where it
       cannot group. *)
    let grouped =
      match strategy with
      | None | Some Route.Terminate -> Option.is_none max_hops
      | Some (Route.Random_reroute _ | Route.Backtrack _) -> false
    in
    let chunks = (count + chunk - 1) / chunk in
    let route_one i =
      let src, dst = pairs.(i) in
      let rng = if needs_rng then Some (Seed.rng_for ~seed ~index:i) else None in
      Route.route ?failures ?side ?strategy ?max_hops ?rng net ~src ~dst
    in
    let per_chunk =
      Pool.map ?jobs ~count:chunks (fun c ->
          let lo = c * chunk in
          let len = min chunk (count - lo) in
          if grouped then Route.route_pairs ?failures ?side net (Array.sub pairs lo len)
          else Array.init len (fun k -> route_one (lo + k)))
    in
    Array.concat (Array.to_list per_chunk)
  end
