(** xoshiro256** pseudo-random generator (Blackman & Vigna 2018).

    The workhorse generator for all simulations: 256 bits of state, period
    2^256 - 1, and excellent statistical quality. Deterministic across
    platforms and OCaml versions, unlike [Stdlib.Random]. *)

type t
(** Mutable generator state; never all-zero. *)

val create : int64 -> t
(** [create seed] seeds the four state words from a SplitMix64 stream. *)

val of_int : int -> t
(** [of_int seed] is [create (Int64.of_int seed)]. *)

val of_state : int64 -> int64 -> int64 -> int64 -> t
(** Build from four raw state words.
    @raise Invalid_argument if all four words are zero. *)

val of_splitmix : Splitmix64.t -> t
(** Seed the state from an existing SplitMix64 stream (advances it). *)

val next_int64 : t -> int64
(** Advance the state and return the next 64-bit output. The result is a
    boxed [int64] (3 minor words); hot paths use {!next_bits}. *)

val next_bits : t -> int
(** Advance the state exactly as {!next_int64} does and return the top 62
    bits of that output as a non-negative immediate [int]; allocates
    nothing. *)

val copy : t -> t
(** Independent copy of the current state. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    decorrelated from [t]'s. Used to give each simulated entity its own
    stream so that adding draws in one place does not perturb another. *)
