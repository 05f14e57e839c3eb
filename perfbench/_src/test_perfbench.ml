(* Unit tests of the benchmark's own statistics and metric names. The
   expected quartiles are what Python's statistics.quantiles(xs, n=4)
   returns for the same inputs; every metric name must match
   [A-Za-z0-9_.-]+. *)

let failures = ref 0

let expect label ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" label
  end

let close a b = Float.abs (a -. b) <= 1e-12 *. Float.max 1.0 (Float.abs b)

let valid_name name =
  name <> ""
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       name

let iqr xs =
  let q1, _, q3 = Stats.quartiles xs in
  q3 -. q1

let quartiles_are label xs (a, b, c) =
  let q1, q2, q3 = Stats.quartiles xs in
  expect label (close q1 a && close q2 b && close q3 c)

let () =
  (* median *)
  expect "median odd" (Stats.median [| 3.0; 1.0; 2.0 |] = 2.0);
  expect "median even" (Stats.median [| 4.0; 1.0; 3.0; 2.0 |] = 2.5);
  expect "median single" (Stats.median [| 7.0 |] = 7.0);
  expect "median empty raises"
    (match Stats.median [||] with _ -> false | exception Invalid_argument _ -> true);
  (* quartiles, Python's exclusive method *)
  quartiles_are "quartiles 1..10"
    (Array.init 10 (fun i -> float_of_int (i + 1)))
    (2.75, 5.5, 8.25);
  quartiles_are "quartiles 1..4" [| 4.0; 2.0; 3.0; 1.0 |] (1.25, 2.5, 3.75);
  quartiles_are "quartiles two" [| 1.0; 2.0 |] (0.75, 1.5, 2.25);
  quartiles_are "quartiles 1..5" [| 1.0; 2.0; 3.0; 4.0; 5.0 |] (1.5, 3.0, 4.5);
  expect "quartile median agrees"
    (let _, q2, _ = Stats.quartiles [| 5.0; 1.0; 9.0; 3.0; 7.0; 2.0 |] in
     q2 = Stats.median [| 5.0; 1.0; 9.0; 3.0; 7.0; 2.0 |]);
  expect "iqr 1..10" (close (iqr (Array.init 10 (fun i -> float_of_int (i + 1)))) 5.5);
  expect "iqr constant" (iqr [| 2.0; 2.0; 2.0; 2.0 |] = 0.0);
  (* the tail rule: the highest percentile with >= 10 samples beyond it *)
  expect "tail 19" (Stats.tail_percentile 19 = None);
  expect "tail 20" (Stats.tail_percentile 20 = Some 50.0);
  expect "tail 39" (Stats.tail_percentile 39 = Some 50.0);
  expect "tail 40" (Stats.tail_percentile 40 = Some 75.0);
  expect "tail 100" (Stats.tail_percentile 100 = Some 90.0);
  expect "tail 200" (Stats.tail_percentile 200 = Some 95.0);
  expect "tail 999" (Stats.tail_percentile 999 = Some 95.0);
  expect "tail 1000" (Stats.tail_percentile 1000 = Some 99.0);
  expect "tail 1024" (Stats.tail_percentile 1024 = Some 99.0);
  expect "tail 10000" (Stats.tail_percentile 10_000 = Some 99.9);
  List.iter
    (fun n ->
      match Stats.tail_percentile n with
      | Some p -> expect (Printf.sprintf "beyond %d" n) (Stats.beyond ~n p >= 10)
      | None -> ())
    [ 20; 57; 100; 333; 1000; 1024; 4096; 65536 ];
  (* nearest-rank percentiles *)
  let xs = Array.init 100 (fun i -> float_of_int (i + 1)) in
  expect "p50 of 1..100" (Stats.percentile xs 50.0 = 50.0);
  expect "p99 of 1..100" (Stats.percentile xs 99.0 = 99.0);
  expect "p100 of 1..100" (Stats.percentile xs 100.0 = 100.0);
  expect "p0 of 1..100" (Stats.percentile xs 0.0 = 1.0);
  (* metric names *)
  let names = List.map fst (Catalogue.end_to_end @ Catalogue.per_layer) in
  List.iter (fun name -> expect ("valid name " ^ name) (valid_name name)) names;
  expect "names are unique"
    (List.length (List.sort_uniq String.compare names) = List.length names);
  expect "setup_s is end-to-end" (List.assoc_opt "setup_s" Catalogue.end_to_end = Some "s");
  if !failures > 0 then exit 1;
  print_endline "perfbench tests passed"
