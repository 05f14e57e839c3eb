module Csr = Ftr_graph.Adjacency.Csr
module I32 = Ftr_graph.Adjacency.I32

type geometry = Line | Circle

(* Neighbour lists live in one flat CSR pair (node [i]'s row is
   [adj.targets.(adj.offsets.(i)) .. adj.targets.(adj.offsets.(i+1)-1)],
   sorted): the routing inner loop scans a contiguous block instead of
   chasing [n] separately boxed rows. Positions and the CSR are int32
   Bigarrays — 4 bytes per entry, unscanned by the GC, and mmap-able from
   a snapshot file (Snapshot). *)
type t = {
  geometry : geometry;
  line_size : int; (* number of grid points of the underlying space *)
  positions : I32.t;
  adj : Csr.t; (* neighbor *indices* into [positions], per-row sorted *)
  links : int;
}

let size t = I32.length t.positions

let line_size t = t.line_size

let links t = t.links

let position t i = I32.get t.positions i

let positions t = t.positions

let neighbors t i = Csr.row t.adj i

let degree t i = Csr.degree t.adj i

let neighbor t i k = Csr.nth t.adj i k

let iter_neighbors t i f = Csr.iter_row t.adj i f

let csr t = t.adj

let geometry t = t.geometry

let is_full t = size t = t.line_size

let point_distance t a b =
  match t.geometry with
  | Line -> abs (a - b)
  | Circle ->
      let d = abs (a - b) in
      min d (t.line_size - d)

let distance t i j = point_distance t (I32.get t.positions i) (I32.get t.positions j)

(* Arc length walking in the increasing direction; the one-sided metric on
   the circle (Chord's orientation). *)
let clockwise_distance t ~src ~dst =
  match t.geometry with
  | Line -> invalid_arg "Network.clockwise_distance: line networks have no orientation"
  | Circle ->
      let d = (I32.get t.positions dst - I32.get t.positions src) mod t.line_size in
      if d < 0 then d + t.line_size else d

(* The quantity greedy routing minimises. Two-sided: the metric distance.
   One-sided: on the line it is still the metric distance (the no-overshoot
   rule is separate); on the circle it is the clockwise arc, which encodes
   no-overshoot by itself (passing the target wraps the arc around). *)
let routing_distance t ~side ~src ~dst =
  match (side, t.geometry) with
  | `Two_sided, _ | `One_sided, Line -> distance t src dst
  | `One_sided, Circle -> clockwise_distance t ~src ~dst

(* Line-specific one-sided admissibility: never traverse a link past the
   target. Circle networks need no such rule (see [routing_distance]). *)
let one_sided_admissible t ~cur ~v ~dst =
  match t.geometry with
  | Circle -> true
  | Line ->
      let cur_pos = I32.get t.positions cur
      and v_pos = I32.get t.positions v
      and dst_pos = I32.get t.positions dst in
      (cur_pos > dst_pos && v_pos >= dst_pos && v_pos < cur_pos)
      || (cur_pos < dst_pos && v_pos <= dst_pos && v_pos > cur_pos)

let nearest_index t ~position =
  let n = size t in
  if n = 0 then invalid_arg "Network.nearest_index: empty network";
  (* Binary search for the first present position >= position, then compare
     with its predecessor. *)
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if I32.get t.positions mid >= position then search lo mid else search (mid + 1) hi
  in
  let i = search 0 n in
  match t.geometry with
  | Line ->
      if i = n then n - 1
      else if i = 0 then 0
      else if position - I32.get t.positions (i - 1) <= I32.get t.positions i - position then
        i - 1
      else i
  | Circle ->
      (* Candidates wrap: the first and last nodes are adjacent. *)
      let candidates = [ (i - 1 + n) mod n; i mod n ] in
      let best = ref (i mod n) and best_d = ref max_int in
      List.iter
        (fun c ->
          let d = point_distance t (I32.get t.positions c) position in
          if d < !best_d then begin
            best := c;
            best_d := d
          end)
        candidates;
      !best

let index_of_position t ~position =
  let i = nearest_index t ~position in
  if I32.get t.positions i = position then Some i else None

let to_adjacency t = Ftr_graph.Adjacency.of_csr t.adj

(* Sanitizer hook: structural invariants every builder must establish —
   sorted in-range neighbour lists without self-links, and the short-link
   ring that keeps greedy routing total (both sides on the line; at least
   the successor on the circle, where one-sided constructions like the
   chord-like network carry no predecessor link). Run on every freshly
   built network when FTR_CHECK is on; the exhaustive battery with
   per-builder policies lives in Ftr_check.Check. *)
let debug_validate t =
  let n = size t in
  let { Csr.offsets; targets } = t.adj in
  if
    I32.length offsets <> n + 1
    || I32.get offsets 0 <> 0
    || I32.get offsets n <> I32.length targets
  then Ftr_debug.Debug.failf "Network: CSR offsets malformed";
  for i = 0 to n - 1 do
    if I32.get offsets (i + 1) < I32.get offsets i then
      Ftr_debug.Debug.failf "Network: CSR offsets decrease at row %d" i;
    let lo = I32.get offsets i and hi = I32.get offsets (i + 1) in
    let contains x =
      let found = ref false in
      for k = lo to hi - 1 do
        if I32.get targets k = x then found := true
      done;
      !found
    in
    for k = lo to hi - 1 do
      let j = I32.get targets k in
      if j < 0 || j >= n then Ftr_debug.Debug.failf "Network: node %d links to non-node %d" i j;
      if j = i then Ftr_debug.Debug.failf "Network: node %d links to itself" i;
      if k > lo && I32.get targets (k - 1) > j then
        Ftr_debug.Debug.failf "Network: node %d neighbour list unsorted at entry %d" i (k - lo)
    done;
    match t.geometry with
    | Line ->
        if i > 0 && not (contains (i - 1)) then
          Ftr_debug.Debug.failf "Network: node %d missing ring link to %d" i (i - 1);
        if i < n - 1 && not (contains (i + 1)) then
          Ftr_debug.Debug.failf "Network: node %d missing ring link to %d" i (i + 1)
    | Circle ->
        if n > 1 && not (contains ((i + 1) mod n)) then
          Ftr_debug.Debug.failf "Network: node %d missing ring link to successor %d" i
            ((i + 1) mod n)
  done

let checked t =
  if Ftr_debug.Debug.enabled () then debug_validate t;
  t

(* Positions 0..n-1: the full-network identity embedding. *)
let iota_positions n =
  let a = I32.create n in
  for i = 0 to n - 1 do
    I32.unsafe_set a i i
  done;
  a

let check_positions ~line_size positions =
  let n = I32.length positions in
  for i = 0 to n - 1 do
    let p = I32.get positions i in
    if p < 0 || p >= line_size then invalid_arg "Network: position off line";
    if i > 0 && I32.get positions (i - 1) >= p then
      invalid_arg "Network: positions must be strictly increasing"
  done

(* Assemble from already-flat parts — the snapshot loader's and the
   Section 5 heuristic's entry point. [validate] (default true) runs the
   full structural check; pass false only for trusted in-process parts
   (the builders below, which establish the invariants by construction
   and re-check under FTR_CHECK). *)
let of_flat ?(validate = true) ~geometry ~line_size ~positions ~adj ~links () =
  if I32.length positions <> Csr.size adj then
    invalid_arg "Network.of_flat: positions/adjacency size mismatch";
  if line_size < I32.length positions then
    invalid_arg "Network.of_flat: more nodes than grid points";
  if links < 0 then invalid_arg "Network.of_flat: negative link count";
  if validate then begin
    Csr.validate ~sorted:true adj;
    check_positions ~line_size positions
  end;
  checked { geometry; line_size; positions; adj; links }

(* Every jagged builder assembles per-node rows and hands them here; the
   CSR flattening is the only place the flat pair is built from rows. *)
let make ~geometry ~line_size ~positions ~rows ~links =
  checked
    {
      geometry;
      line_size;
      positions = I32.of_int_array positions;
      adj = Csr.of_rows rows;
      links;
    }

(* Draw a long-distance target for the node at position [src]: a point [v]
   distinct from [src] with Pr[v] proportional to 1/d(src,v)^exponent,
   normalised over the whole line (Section 4.3). Side is chosen with
   probability proportional to that side's total mass, then the length by
   inverse-CDF within the side. *)
let sample_long_target pl rng ~n ~src =
  let left = src and right = n - 1 - src in
  let t_left = if left = 0 then 0.0 else Ftr_prng.Sample.power_law_total pl ~upto:left in
  let t_right = if right = 0 then 0.0 else Ftr_prng.Sample.power_law_total pl ~upto:right in
  let total = t_left +. t_right in
  if total <= 0.0 then invalid_arg "Network.sample_long_target: isolated node";
  if Ftr_prng.Rng.float rng *. total < t_left then
    src - Ftr_prng.Sample.power_law_draw pl rng ~upto:left
  else src + Ftr_prng.Sample.power_law_draw pl rng ~upto:right

let finish_node ~immediate ~long =
  let arr = Array.of_list (List.rev_append immediate long) in
  Array.sort Int.compare arr;
  arr

(* In-place sort of [arr.(0 .. len-1)] — the streaming builder sorts each
   short row (links + 2 entries) in its reusable scratch array without
   allocating. Odd-even transposition: [len] rounds of compare-exchange on
   alternating adjacent pairs, each exchange branch-free through the sign
   mask of the difference, so the random row order costs no mispredicts.
   Entries are node indices, so the difference cannot overflow. An exact
   sort of ints, hence the same rows as [Array.sort Int.compare] in
   [finish_node]. *)
let sort_prefix arr len =
  for round = 0 to len - 1 do
    let i = ref (round land 1) in
    while !i + 1 < len do
      let a = arr.(!i) and b = arr.(!i + 1) in
      let d = b - a in
      let swap = d asr 62 land d in
      arr.(!i) <- a + swap;
      arr.(!i + 1) <- b - swap;
      i := !i + 2
    done
  done

let check_ideal_args ~who ~n ~links =
  if n < 2 then invalid_arg (Printf.sprintf "Network.%s: need at least two nodes" who);
  if links < 0 then invalid_arg (Printf.sprintf "Network.%s: negative link count" who)

(* Streaming construction: one pass over the nodes, each row assembled in a
   reused scratch array and appended straight to the CSR builder — O(n)
   with O(links) transient state, never a jagged intermediate. Consumes
   the RNG in exactly the same order as [build_ideal_materialized], so the
   two produce byte-identical networks (qcheck-pinned). *)
let build_ideal ?(exponent = 1.0) ~n ~links rng =
  check_ideal_args ~who:"build_ideal" ~n ~links;
  (* Every builder times its construction phase under a [Ftr_obs.Span]; a
     no-op (beyond the closure) unless FTR_OBS is on. *)
  Ftr_obs.Span.time "network.build_ideal" @@ fun () ->
  let pl = Ftr_prng.Sample.power_law ~exponent ~max_length:(n - 1) in
  let b = Csr.Builder.create ~edges_hint:(n * (links + 2)) ~n () in
  let scratch = Array.make (links + 2) 0 in
  for u = 0 to n - 1 do
    let len = ref 0 in
    if u > 0 then begin
      scratch.(0) <- u - 1;
      len := 1
    end;
    if u < n - 1 then begin
      scratch.(!len) <- u + 1;
      incr len
    end;
    for k = !len to !len + links - 1 do
      scratch.(k) <- sample_long_target pl rng ~n ~src:u
    done;
    let len = !len + links in
    sort_prefix scratch len;
    Csr.Builder.append_row b scratch ~len
  done;
  checked
    {
      geometry = Line;
      line_size = n;
      positions = iota_positions n;
      adj = Csr.Builder.finish b;
      links;
    }

(* Reference implementation of the ideal builder that materializes every
   jagged row before flattening — kept as the equivalence oracle for the
   streaming path (same RNG consumption order, byte-identical output). *)
let build_ideal_materialized ?(exponent = 1.0) ~n ~links rng =
  check_ideal_args ~who:"build_ideal_materialized" ~n ~links;
  Ftr_obs.Span.time "network.build_ideal" @@ fun () ->
  let pl = Ftr_prng.Sample.power_law ~exponent ~max_length:(n - 1) in
  let neighbors =
    Array.init n (fun u ->
        let immediate =
          (if u > 0 then [ u - 1 ] else []) @ if u < n - 1 then [ u + 1 ] else []
        in
        let long = ref [] in
        for _ = 1 to links do
          long := sample_long_target pl rng ~n ~src:u :: !long
        done;
        finish_node ~immediate ~long:!long)
  in
  make ~geometry:Line ~line_size:n ~positions:(Array.init n (fun i -> i)) ~rows:neighbors ~links

let build_binomial ?(exponent = 1.0) ~n ~links ~present_p rng =
  if n < 2 then invalid_arg "Network.build_binomial: need at least two positions";
  if present_p <= 0.0 || present_p > 1.0 then
    invalid_arg "Network.build_binomial: present_p must be in (0,1]";
  Ftr_obs.Span.time "network.build_binomial" @@ fun () ->
  let present = Array.make n false in
  let count = ref 0 in
  for p = 0 to n - 1 do
    if Ftr_prng.Rng.bernoulli rng present_p then begin
      present.(p) <- true;
      incr count
    end
  done;
  (* Guarantee at least two nodes so the network is routable. *)
  if !count < 2 then begin
    if not present.(0) then begin
      present.(0) <- true;
      incr count
    end;
    if not present.(n - 1) then begin
      present.(n - 1) <- true;
      incr count
    end
  end;
  let positions = Array.make !count 0 in
  let k = ref 0 in
  for p = 0 to n - 1 do
    if present.(p) then begin
      positions.(!k) <- p;
      incr k
    end
  done;
  let m = !count in
  let pl = Ftr_prng.Sample.power_law ~exponent ~max_length:(n - 1) in
  (* Index lookup by rejection: draw targets from the unconditioned 1/d law
     and retry while the target is absent. This realises Theorem 17's
     "probability of choosing a node conditioned on the existence of that
     node" exactly. *)
  let index_of = Array.make n (-1) in
  Array.iteri (fun i p -> index_of.(p) <- i) positions;
  let sample_present_index ~src_pos ~src_idx =
    let rec attempt tries =
      let target = sample_long_target pl rng ~n ~src:src_pos in
      if target >= 0 && target < n && present.(target) && index_of.(target) <> src_idx then
        index_of.(target)
      else if tries > 10_000 then
        (* Pathologically sparse corner; fall back to a uniform present node. *)
        let rec fallback () =
          let j = Ftr_prng.Rng.int rng m in
          if j <> src_idx then j else fallback ()
        in
        fallback ()
      else attempt (tries + 1)
    in
    attempt 0
  in
  let neighbors =
    Array.init m (fun i ->
        let immediate = (if i > 0 then [ i - 1 ] else []) @ if i < m - 1 then [ i + 1 ] else [] in
        let long = ref [] in
        for _ = 1 to links do
          long := sample_present_index ~src_pos:positions.(i) ~src_idx:i :: !long
        done;
        finish_node ~immediate ~long:!long)
  in
  make ~geometry:Line ~line_size:n ~positions ~rows:neighbors ~links

let ceil_log ~base n =
  if base < 2 then invalid_arg "Network.ceil_log: base must be >= 2";
  let rec go acc power = if power >= n then acc else go (acc + 1) (power * base) in
  go 0 1

let build_deterministic ~n ~base =
  if n < 2 then invalid_arg "Network.build_deterministic: need at least two nodes";
  if base < 2 then invalid_arg "Network.build_deterministic: base must be >= 2";
  Ftr_obs.Span.time "network.build_deterministic" @@ fun () ->
  let digits = ceil_log ~base n in
  let neighbors =
    Array.init n (fun u ->
        let acc = ref [] in
        let add v = if v >= 0 && v < n && v <> u then acc := v :: !acc in
        let power = ref 1 in
        for _ = 0 to digits - 1 do
          for j = 1 to base - 1 do
            add (u + (j * !power));
            add (u - (j * !power))
          done;
          power := !power * base
        done;
        add (u - 1);
        add (u + 1);
        let arr = Array.of_list !acc in
        Array.sort Int.compare arr;
        (* Deduplicate the sorted neighbour list. *)
        let uniq = ref [] in
        Array.iter
          (fun v -> match !uniq with w :: _ when w = v -> () | _ -> uniq := v :: !uniq)
          arr;
        Array.of_list (List.rev !uniq))
  in
  let links = (base - 1) * digits in
  make ~geometry:Line ~line_size:n ~positions:(Array.init n (fun i -> i)) ~rows:neighbors ~links

let build_geometric ~n ~base =
  if n < 2 then invalid_arg "Network.build_geometric: need at least two nodes";
  if base < 2 then invalid_arg "Network.build_geometric: base must be >= 2";
  Ftr_obs.Span.time "network.build_geometric" @@ fun () ->
  let neighbors =
    Array.init n (fun u ->
        let acc = ref [] in
        let add v = if v >= 0 && v < n && v <> u then acc := v :: !acc in
        let power = ref 1 in
        while !power < n do
          add (u + !power);
          add (u - !power);
          power := !power * base
        done;
        let arr = Array.of_list !acc in
        Array.sort Int.compare arr;
        let uniq = ref [] in
        Array.iter
          (fun v -> match !uniq with w :: _ when w = v -> () | _ -> uniq := v :: !uniq)
          arr;
        Array.of_list (List.rev !uniq))
  in
  make ~geometry:Line ~line_size:n
    ~positions:(Array.init n (fun i -> i))
    ~rows:neighbors ~links:(ceil_log ~base n)

(* Lengths of all links except the two ring links (the nearest present node
   on each side); these are the long-distance links whose distribution
   Figure 5 plots. *)
let long_link_lengths t =
  let result = ref [] in
  let n = size t in
  for i = 0 to n - 1 do
    let ring_left, ring_right =
      match t.geometry with
      | Line ->
          ((if i > 0 then Some (i - 1) else None), if i < n - 1 then Some (i + 1) else None)
      | Circle -> (Some ((i - 1 + n) mod n), Some ((i + 1) mod n))
    in
    let seen_left = ref false and seen_right = ref false in
    let matches o j = match o with Some r -> r = j | None -> false in
    Csr.iter_row t.adj i (fun j ->
        let is_ring =
          (matches ring_left j && not !seen_left && (seen_left := true; true))
          || (matches ring_right j && not !seen_right && (seen_right := true; true))
        in
        if not is_ring then result := distance t i j :: !result)
  done;
  !result

(* A full circle of [n] nodes: every node linked to both ring neighbours
   (wrapping) and to [links] long-distance draws with Pr[v] proportional to
   1/arc(u,v). The circle is the paper's other one-dimensional space
   (Section 7: "the line or a circle") and matches Chord's identifier
   circle; it has no boundary, so every node sees the same distance
   profile. *)
let build_ring ?(exponent = 1.0) ~n ~links rng =
  if n < 3 then invalid_arg "Network.build_ring: need at least three nodes";
  if links < 0 then invalid_arg "Network.build_ring: negative link count";
  Ftr_obs.Span.time "network.build_ring" @@ fun () ->
  let max_d = n / 2 in
  (* Weight per arc distance d: (number of nodes at distance d) / d^a.
     Two nodes per distance except the antipode of an even ring. *)
  let weights =
    Array.init max_d (fun i ->
        let d = i + 1 in
        let count = if 2 * d = n then 1.0 else 2.0 in
        count /. Float.pow (float_of_int d) exponent)
  in
  let cdf = Ftr_prng.Sample.cdf_of_weights weights in
  let neighbors =
    Array.init n (fun u ->
        let immediate = [ (u + 1) mod n; (u - 1 + n) mod n ] in
        let long = ref [] in
        for _ = 1 to links do
          let d = 1 + Ftr_prng.Sample.cdf_draw cdf rng in
          let v =
            if 2 * d = n then (u + d) mod n
            else if Ftr_prng.Rng.bool rng then (u + d) mod n
            else (u - d + n) mod n
          in
          long := v :: !long
        done;
        let arr = Array.of_list (List.rev_append immediate !long) in
        Array.sort Int.compare arr;
        arr)
  in
  make ~geometry:Circle ~line_size:n ~positions:(Array.init n (fun i -> i)) ~rows:neighbors ~links

(* Chord as an instance of this framework (Section 3: Chord's nodes "can be
   thought of as embedded on grid points on a real circle"): clockwise
   links at distances base^i on the circle. One-sided greedy routing over
   this network takes exactly Chord's finger-table routes. *)
let build_chordlike ?(base = 2) ?(predecessor = false) ~n () =
  if n < 3 then invalid_arg "Network.build_chordlike: need at least three nodes";
  if base < 2 then invalid_arg "Network.build_chordlike: base must be >= 2";
  Ftr_obs.Span.time "network.build_chordlike" @@ fun () ->
  let neighbors =
    Array.init n (fun u ->
        (* Chord keeps only the successor; the optional predecessor makes
           two-sided routing total on the same finger set. *)
        let acc =
          ref (((u + 1) mod n) :: (if predecessor then [ (u - 1 + n) mod n ] else []))
        in
        let power = ref 1 in
        while !power < n do
          for j = 1 to base - 1 do
            let v = (u + (j * !power)) mod n in
            if v <> u then acc := v :: !acc
          done;
          power := !power * base
        done;
        let arr = Array.of_list !acc in
        Array.sort Int.compare arr;
        let uniq = ref [] in
        Array.iter
          (fun v -> match !uniq with w :: _ when w = v -> () | _ -> uniq := v :: !uniq)
          arr;
        Array.of_list (List.rev !uniq))
  in
  make ~geometry:Circle ~line_size:n
    ~positions:(Array.init n (fun i -> i))
    ~rows:neighbors
    ~links:((base - 1) * ceil_log ~base n)
