(* What one benchmark run produced: the metric sheet, the correctness
   problems found, the operation counts of the result line, and the
   workload-specific figures for the human-readable record. *)

type t = {
  sheet : Catalogue.sheet;
  mutable problems : string list;
  mutable attempted : int;
  mutable failed : int;
  mutable record : (string * Ftr_obs.Json.t) list;
}

let create () = { sheet = Catalogue.sheet (); problems = []; attempted = 0; failed = 0; record = [] }

let set t name v = Catalogue.set t.sheet name v

let check t ok fmt = Printf.ksprintf (fun msg -> if not ok then t.problems <- msg :: t.problems) fmt

let note t key v = t.record <- (key, v) :: t.record

(* A repeated timing, as median with quartiles and sample count. *)
let note_timing t key xs =
  let module J = Ftr_obs.Json in
  let fields = [ ("median", J.Float (Stats.median xs)); ("n", J.Int (Array.length xs)) ] in
  let fields =
    if Array.length xs < 2 then fields
    else
      let q1, _, q3 = Stats.quartiles xs in
      fields @ [ ("q1", J.Float q1); ("q3", J.Float q3) ]
  in
  note t key (J.Obj fields)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Call [f] at least once and again until [seconds] have passed. Only
   [f] is timed; [keep] then reduces its result, untimed, to what the
   caller needs, so that no call's working set outlives it. *)
let repeat ~seconds ~keep f =
  let start = now () in
  let rec go acc =
    let v, dt = timed f in
    let acc = (keep v, dt) :: acc in
    if now () -. start < seconds then go acc else List.rev acc
  in
  go []
