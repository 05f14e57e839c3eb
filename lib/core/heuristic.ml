module IntSet = Set.Make (Int)
module Rng = Ftr_prng.Rng
module Sample = Ftr_prng.Sample
module Csr = Ftr_graph.Adjacency.Csr
module I32 = Ftr_graph.Adjacency.I32

type replacement = Proportional | Oldest

type arrival = Random_order | Sequential

(* Nearest member of [present] to point [w]: the owner of w's basin of
   attraction. Ties go to the left. *)
let nearest_present present w =
  let above = IntSet.find_first_opt (fun (x : int) -> x >= w) present in
  let below = IntSet.find_last_opt (fun (x : int) -> x <= w) present in
  match (below, above) with
  | None, None -> None
  | Some b, None -> Some b
  | None, Some a -> Some a
  | Some b, Some a -> if w - b <= a - w then Some b else Some a

(* Both constructions stream their rows into a [Csr.Builder] in node
   order, then assemble through the validating [Network.of_flat]. *)
let append_sorted_row b row =
  let arr = Array.of_list row in
  Array.sort Int.compare arr;
  Csr.Builder.append_row b arr ~len:(Array.length arr)

let build ?(exponent = 1.0) ?(replacement = Proportional) ?(arrival = Random_order) ~n ~links rng
    =
  if n < 2 then invalid_arg "Heuristic.build: need at least two nodes";
  if links < 1 then invalid_arg "Heuristic.build: need at least one long link";
  Ftr_obs.Span.time "heuristic.build" @@ fun () ->
  let pl = Sample.power_law ~exponent ~max_length:(n - 1) in
  let long = Array.make_matrix n links (-1) in
  let birth = Array.make_matrix n links 0 in
  let tick = ref 0 in
  let next_tick () =
    incr tick;
    !tick
  in
  let present = ref IntSet.empty in
  (* Owner of the basin containing the 1/d-sampled sink for a node at
     position [src]. None while [src] is the only point that would exist. *)
  let sample_basin_owner ~src =
    if Ftr_obs.Flag.enabled () then Ftr_obs.Metrics.incr "heuristic_basin_lookups_total";
    if IntSet.is_empty !present then None
    else
      let w = Network.sample_long_target pl rng ~n ~src in
      nearest_present !present w
  in
  (* Node [u] is asked to redirect one of its existing long links to the
     newly arrived [v] (Section 5). Acceptance probability p_{k+1}/sum p_j
     preserves the 1/d invariant; the victim is chosen proportionally to
     its own link probability, or by age under the Oldest strategy. *)
  let consider_redirect ~u ~v =
    let weights = Array.map (fun t -> if t < 0 then 0.0 else 1.0 /. float_of_int (abs (u - t))) long.(u) in
    let sum_old = Array.fold_left ( +. ) 0.0 weights in
    if sum_old > 0.0 then begin
      let p_new = 1.0 /. float_of_int (abs (u - v)) in
      if Rng.float rng < p_new /. (sum_old +. p_new) then begin
        let victim =
          match replacement with
          | Oldest ->
              let best = ref (-1) in
              Array.iteri
                (fun i t ->
                  if t >= 0 && (!best < 0 || birth.(u).(i) < birth.(u).(!best)) then best := i)
                long.(u);
              !best
          | Proportional ->
              let target = Rng.float rng *. sum_old in
              let acc = ref 0.0 and chosen = ref (-1) in
              Array.iteri
                (fun i w ->
                  if !chosen < 0 && w > 0.0 then begin
                    acc := !acc +. w;
                    if !acc > target then chosen := i
                  end)
                weights;
              if !chosen < 0 then
                (* Floating-point slack at the top of the CDF: take the
                   last live slot. *)
                Array.iteri (fun i t -> if t >= 0 then chosen := i) long.(u);
              !chosen
        in
        if victim >= 0 then begin
          if Ftr_obs.Flag.enabled () then begin
            Ftr_obs.Metrics.incr
              ~labels:
                [
                  ( "replacement",
                    match replacement with Proportional -> "proportional" | Oldest -> "oldest" );
                ]
              "heuristic_redirects_total";
            (* Construction-phase forensics for the flight-recorder stream:
               which link the Section 5 redirect rule rewired, and what it
               evicted. *)
            Ftr_obs.Events.emit ~kind:"heuristic.redirect"
              [
                ("node", Ftr_obs.Json.Int u);
                ("newcomer", Ftr_obs.Json.Int v);
                ("evicted", Ftr_obs.Json.Int long.(u).(victim));
                ("slot", Ftr_obs.Json.Int victim);
              ]
          end;
          long.(u).(victim) <- v;
          birth.(u).(victim) <- next_tick ()
        end
      end
    end
  in
  let order =
    match arrival with
    | Random_order -> Rng.permutation rng n
    | Sequential -> Array.init n (fun i -> i)
  in
  Array.iter
    (fun v ->
      (* Outgoing links: ℓ sinks sampled by the 1/d law, each claimed by
         its basin owner. *)
      for s = 0 to links - 1 do
        match sample_basin_owner ~src:v with
        | Some u ->
            long.(v).(s) <- u;
            birth.(v).(s) <- next_tick ()
        | None -> ()
      done;
      (* Incoming links: v estimates how many links "should" end at it with
         a Poisson(ℓ) draw and solicits redirects from the basin owners of
         1/d-sampled points. *)
      let solicit = Sample.poisson rng ~lambda:(float_of_int links) in
      for _ = 1 to solicit do
        match sample_basin_owner ~src:v with
        | Some u -> consider_redirect ~u ~v
        | None -> ()
      done;
      present := IntSet.add v !present)
    order;
  (* The very first arrival had no possible sinks; give its empty slots
     fresh draws now that the space is fully populated. *)
  for v = 0 to n - 1 do
    for s = 0 to links - 1 do
      if long.(v).(s) < 0 then begin
        let rec fresh tries =
          let w = Network.sample_long_target pl rng ~n ~src:v in
          match nearest_present (IntSet.remove v !present) w with
          | Some u -> u
          | None -> if tries > 100 then (v + 1) mod n else fresh (tries + 1)
        in
        long.(v).(s) <- fresh 0;
        birth.(v).(s) <- next_tick ()
      end
    done
  done;
  let b = Csr.Builder.create ~edges_hint:(n * (links + 2)) ~n () in
  for v = 0 to n - 1 do
    let immediate = (if v > 0 then [ v - 1 ] else []) @ if v < n - 1 then [ v + 1 ] else [] in
    append_sorted_row b (List.rev_append immediate (Array.to_list long.(v)))
  done;
  Network.of_flat ~geometry:Network.Line ~line_size:n
    ~positions:(I32.of_int_array (Array.init n Fun.id))
    ~adj:(Csr.Builder.finish b) ~links ()

let length_distribution net =
  let n = Network.line_size net in
  let counts = Array.make n 0 in
  let total = ref 0 in
  List.iter
    (fun d ->
      if d >= 1 && d < n then begin
        counts.(d) <- counts.(d) + 1;
        incr total
      end)
    (Network.long_link_lengths net);
  if !total = 0 then Array.make n 0.0
  else Array.map (fun c -> float_of_int c /. float_of_int !total) counts

let ideal_distribution ?(exponent = 1.0) ~n () =
  if n < 2 then invalid_arg "Heuristic.ideal_distribution: need n >= 2";
  let pmf = Array.make n 0.0 in
  let total = ref 0.0 in
  for d = 1 to n - 1 do
    let w = 1.0 /. Float.pow (float_of_int d) exponent in
    pmf.(d) <- w;
    total := !total +. w
  done;
  for d = 1 to n - 1 do
    pmf.(d) <- pmf.(d) /. !total
  done;
  pmf

(* Repair after a failure wave (Section 5: "the same heuristic can be used
   for regeneration of links when a node crashes"): the survivors compact
   into a smaller network; links between survivors are kept, and every
   link that pointed at a dead node is regenerated with a fresh 1/d draw
   conditioned on landing on a survivor — which is exactly the Theorem 17
   distribution, so "failures leave behind yet another random graph". *)
let repair ?(exponent = 1.0) ~alive net rng =
  let n = Network.size net in
  let live = ref [] in
  for i = n - 1 downto 0 do
    if alive i then live := i :: !live
  done;
  let live = Array.of_list !live in
  let m = Array.length live in
  if m < 2 then invalid_arg "Heuristic.repair: fewer than two survivors";
  Ftr_obs.Span.time "heuristic.repair" @@ fun () ->
  (* Old index -> new compacted index. *)
  let index_of = Array.make n (-1) in
  Array.iteri (fun new_i old_i -> index_of.(old_i) <- new_i) live;
  let line_size = Network.line_size net in
  let pl = Sample.power_law ~exponent ~max_length:(line_size - 1) in
  let present = Array.make line_size false in
  Array.iter (fun old_i -> present.(Network.position net old_i) <- true) live;
  let position_index = Hashtbl.create m in
  Array.iteri (fun new_i old_i -> Hashtbl.replace position_index (Network.position net old_i) new_i)
    live;
  let sample_live_index ~src_pos ~self =
    let rec attempt tries =
      let target = Network.sample_long_target pl rng ~n:line_size ~src:src_pos in
      match Hashtbl.find_opt position_index target with
      | Some j when j <> self -> j
      | Some _ | None ->
          if tries > 10_000 then (self + 1) mod m else attempt (tries + 1)
    in
    attempt 0
  in
  (* Rows stream out in survivor order; the RNG draws for dead links
     happen inside this loop, so the order is part of the output. *)
  let b = Csr.Builder.create ~edges_hint:(Csr.edge_count (Network.csr net)) ~n:m () in
  Array.iteri
    (fun new_i old_i ->
      let pos = Network.position net old_i in
      (* Ring links to the nearest survivors. *)
      let immediate =
        (if new_i > 0 then [ new_i - 1 ] else []) @ if new_i < m - 1 then [ new_i + 1 ] else []
      in
      let long = ref [] in
      (* Skip the old ring links — the first occurrence of each adjacent
         index; later duplicates are genuine long links. The new ring
         above replaces them. *)
      let seen_left = ref false and seen_right = ref false in
      Network.iter_neighbors net old_i (fun v ->
          let is_ring =
            (v = old_i - 1 && (not !seen_left)
            &&
            (seen_left := true;
             true))
            || v = old_i + 1
               && (not !seen_right)
               &&
               (seen_right := true;
                true)
          in
          if not is_ring then
            if alive v then long := index_of.(v) :: !long
            else long := sample_live_index ~src_pos:pos ~self:new_i :: !long);
      append_sorted_row b (List.rev_append immediate !long))
    live;
  Network.of_flat
    ~geometry:(Network.geometry net)
    ~line_size
    ~positions:(I32.of_int_array (Array.map (Network.position net) live))
    ~adj:(Csr.Builder.finish b) ~links:(Network.links net) ()
