(** Byzantine blackholes (Section 7's security direction, made concrete).

    A Byzantine node accepts messages and silently drops them. Senders
    cannot tell Byzantine neighbours from honest ones before forwarding;
    the defences differ in what happens after the silence:

    - {!Naive}: nothing — the first blackhole on the greedy path kills the
      search;
    - {!Retry}: the sender times out, blacklists the suspect for this
      search, and forwards to its next-best neighbour (one wasted message
      per encounter);
    - {!Retry_backtrack}: {!Retry} plus Section 6 backtracking when a
      node's closer candidates are exhausted. *)

type outcome =
  | Delivered of { hops : int; wasted : int }
  | Failed of { hops : int; wasted : int }

val delivered : outcome -> bool
(** Whether the message arrived. *)

val hops : outcome -> int
(** All messages sent, wasted ones included. *)

val wasted : outcome -> int
(** Messages eaten by blackholes. *)

type defense =
  | Naive
  | Retry
  | Retry_backtrack of { history : int }

val route_misroute :
  ?max_hops:int -> Network.t -> byzantine:(int -> bool) -> src:int -> dst:int -> outcome
(** The misrouting adversary: a Byzantine node silently forwards the
    message to its neighbour farthest from the target instead of dropping
    it. [wasted] counts sabotage hops. Honest greedy steps pull the message
    back; delivery succeeds iff progress outruns sabotage within the hop
    budget (default 1000).
    @raise Invalid_argument on out-of-range or Byzantine endpoints. *)

val route :
  ?defense:defense ->
  ?max_hops:int ->
  Network.t ->
  byzantine:(int -> bool) ->
  src:int ->
  dst:int ->
  outcome
(** Route under the blackhole adversary: {!Route.greedy} with the Byzantine
    nodes as the dead set, under its [Halt] ({!Naive}) or [Charge] policy.
    @raise Invalid_argument if an endpoint is out of range or Byzantine, or
    a {!Retry_backtrack} history is below 1. *)

type sweep_row = {
  byzantine_fraction : float;
  naive_failed : float;
  retry_failed : float;
  backtrack_failed : float;
  retry_wasted : float;
}

val sweep :
  ?n:int ->
  ?links:int ->
  ?fractions:float list ->
  ?networks:int ->
  ?messages:int ->
  seed:int ->
  unit ->
  sweep_row list
(** Failed-search fractions of the three defences as the Byzantine
    population grows, on fresh ideal networks. *)
