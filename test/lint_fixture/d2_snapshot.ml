(* D2 snapshot-unvalidated fixture. The protocol is matched by suffix
   pattern, so local stand-ins for Snapshot/Check/Route exercise the
   automaton without touching the real modules: a network loaded with
   ~validate:false must flow through a validator before it reaches a
   routing sink. The greedy kernel, the Byzantine router that routes
   through it and the batch router read the same unchecked vectors: all
   are sinks too. *)

module Snapshot = struct
  let load ~validate path = ignore validate; String.length path
end

module Check = struct
  let snapshot net = ignore net
end

module Csr = struct
  let validate net = ignore net
end

module Route = struct
  let route net = net + 1
  let greedy net = net * 2
end

module Byzantine = struct
  let route net = net - 1
end

module Route_batch = struct
  let run net = net + 2
end

(* Positive: unvalidated load flows straight into routing. *)
let bad path =
  let net = Snapshot.load ~validate:false path in
  Route.route net

(* Negative: validated before use. *)
let good path =
  let net = Snapshot.load ~validate:false path in
  Check.snapshot net;
  Route.route net

(* Negative: validation was never skipped. *)
let also_good path =
  let net = Snapshot.load ~validate:true path in
  Route.route net

(* Positive: an unchecked network handed to the kernel. *)
let bad_kernel path =
  let net = Snapshot.load ~validate:false path in
  Route.greedy net

(* Positive: an unchecked network handed to the Byzantine router. *)
let bad_byzantine path =
  let net = Snapshot.load ~validate:false path in
  Byzantine.route net

(* Positive: an unchecked network handed to the batch router, whose
   grouped scan reads the rows unchecked. *)
let bad_batch path =
  let net = Snapshot.load ~validate:false path in
  Route_batch.run net

(* Negative: structurally validated before either sink. *)
let good_kernel path =
  let net = Snapshot.load ~validate:false path in
  Csr.validate net;
  ignore (Route.greedy net);
  Byzantine.route net
