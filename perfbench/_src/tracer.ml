(* In-memory span recorder for the traced run. A span is one timed call
   into a layer's public function, made from the benchmark's own code;
   spans nest by dynamic extent, and a span's self time is its duration
   minus the time its direct children cover. Nothing is written until
   the run ends. *)

type span = { name : string; parent : int; start : float; mutable stop : float }

type t = { mutable spans : span list; mutable next : int; mutable current : int }

let now = Unix.gettimeofday

let create () = { spans = []; next = 0; current = -1 }

let span t name f =
  let s = { name; parent = t.current; start = now (); stop = nan } in
  let id = t.next in
  t.next <- id + 1;
  t.spans <- s :: t.spans;
  let saved = t.current in
  t.current <- id;
  Fun.protect
    ~finally:(fun () ->
      s.stop <- now ();
      t.current <- saved)
    f

let ordered t = Array.of_list (List.rev t.spans)

let duration s = s.stop -. s.start

(* Durations of every span called [name], in call order. *)
let durations t name =
  Array.of_list
    (List.rev_map duration (List.filter (fun s -> String.equal s.name name) t.spans))

type layer = { calls : int; total_s : float; self_s : float }

(* Per-name totals, in order of first appearance. *)
let layers t =
  let spans = ordered t in
  let child = Array.make (Array.length spans) 0.0 in
  Array.iter (fun s -> if s.parent >= 0 then child.(s.parent) <- child.(s.parent) +. duration s) spans;
  let acc = Hashtbl.create 16 and order = ref [] in
  Array.iteri
    (fun i s ->
      let d = duration s in
      let prev =
        match Hashtbl.find_opt acc s.name with
        | Some l -> l
        | None ->
            order := s.name :: !order;
            { calls = 0; total_s = 0.0; self_s = 0.0 }
      in
      Hashtbl.replace acc s.name
        { calls = prev.calls + 1; total_s = prev.total_s +. d; self_s = prev.self_s +. d -. child.(i) })
    spans;
  List.rev_map (fun name -> (name, Hashtbl.find acc name)) !order

let self_s t name =
  match List.assoc_opt name (layers t) with Some l -> l.self_s | None -> 0.0

(* Share of the root span's wall time that named child layers explain:
   everything but the root's own self time. The root is the first span
   recorded. *)
let coverage t =
  match ordered t with
  | [||] -> 0.0
  | spans ->
      let root = spans.(0) in
      let self = self_s t root.name in
      1.0 -. (self /. duration root)

let root_s t = match ordered t with [||] -> 0.0 | spans -> duration spans.(0)

let to_json t =
  let module J = Ftr_obs.Json in
  J.Obj
    (List.map
       (fun (name, l) ->
         ( name,
           J.Obj
             [ ("calls", J.Int l.calls); ("total_s", J.Float l.total_s); ("self_s", J.Float l.self_s) ]
         ))
       (layers t))
