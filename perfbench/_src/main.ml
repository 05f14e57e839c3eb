(* Benchmark entry point:

     main.exe --workload W --seed N --seconds S --trace 0|1 [--workdir D]

   Untraced (--trace 0) runs time each workload's top-level call and
   print the end-to-end metrics; traced (--trace 1) runs replay the same
   public calls with a span around each layer and print the per-layer
   metrics. Either way the run checks the program's outputs. The last
   line of standard output is the result:
   {"correct", "attempted", "failed", "metrics"}; the line before it is
   the record — host, seed, workload parameters and the
   workload-specific figures — so numbers from different hosts are
   never compared silently. Exit code 1 when a check fails. *)

module J = Ftr_obs.Json

let workloads = [ "serve_churn"; "route_large"; "figure6_sweep" ]

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 and trace = ref (-1) in
  let workdir = ref "." in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, " seed the inputs are made from (>= 0)");
      ("--seconds", Arg.Set_float seconds, " how long to measure");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: per-layer metrics");
      ("--workdir", Arg.Set_string workdir, " directory for scratch files");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workloads) then (prerr_endline "unknown --workload"; exit 2);
  if !seed < 0 || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "need --seed >= 0, --seconds > 0 and --trace 0 or 1";
    exit 2
  end;
  Ftr_obs.Flag.set_mode false;
  let o = Outcome.create () in
  let traced = !trace = 1 in
  (match (!workload, traced) with
  | "serve_churn", false -> Serve_churn.untraced o ~seed:!seed ~seconds:!seconds
  | "serve_churn", true -> Serve_churn.traced o ~seed:!seed
  | "route_large", false -> Route_large.untraced o ~seed:!seed ~seconds:!seconds ~workdir:!workdir
  | "route_large", true -> Route_large.traced o ~seed:!seed ~workdir:!workdir
  | "figure6_sweep", false -> Figure6_sweep.untraced o ~seed:!seed ~seconds:!seconds
  | _ -> Figure6_sweep.traced o ~seed:!seed);
  let catalogue = if traced then Catalogue.per_layer else Catalogue.end_to_end in
  List.iter
    (fun (name, _) ->
      match Hashtbl.find_opt o.Outcome.sheet name with
      | Some v -> Outcome.check o (Float.is_finite v) "metric %s is not finite" name
      | None -> Outcome.check o traced "end-to-end metric %s was not measured" name)
    catalogue;
  let problems = List.rev o.Outcome.problems in
  List.iter (fun p -> prerr_endline ("check failed: " ^ p)) problems;
  let record =
    J.Obj
      ([
         ("workload", J.String !workload);
         ("seed", J.Int !seed);
         ("seconds", J.Float !seconds);
         ("trace", J.Int !trace);
         ("host", Host.record ());
       ]
      @ List.rev o.Outcome.record)
  in
  print_endline (J.to_string record);
  let correct = problems = [] in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", J.Int o.Outcome.attempted);
            ("failed", J.Int o.Outcome.failed);
            ("metrics", Catalogue.to_json catalogue o.Outcome.sheet);
          ]));
  exit (if correct then 0 else 1)
