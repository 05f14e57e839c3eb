(** Discrete distribution samplers.

    The power-law sampler is the heart of the paper's link model: a link of
    length [d] is chosen with probability proportional to [1/d] (inverse
    power law with exponent 1, Section 4.3). We precompute prefix sums of
    [d^-exponent] once per network size, with a guide table of at most
    [max_length / 4] entries (Chen & Asau 1974) that starts each inverse-CDF
    search next to its answer: O(1) expected per link, and the same length
    a binary search over the prefix sums returns. *)

(** {1 Tabulated categorical distributions} *)

type cdf
(** Cumulative-probability table for inverse-CDF sampling. *)

val cdf_of_weights : float array -> cdf
(** Normalise non-negative weights into a CDF table.
    @raise Invalid_argument on empty, negative, NaN or all-zero weights. *)

val cdf_draw : cdf -> Rng.t -> int
(** Draw an index with probability proportional to its weight; O(log n). *)

val cdf_size : cdf -> int
(** Number of categories. *)

val cdf_probability : cdf -> int -> float
(** Normalised probability of index [i].
    @raise Invalid_argument if out of range. *)

type alias
(** Alias table (Vose's method) for O(1) draws. *)

val alias_of_weights : float array -> alias
(** Build the alias table; O(n).
    @raise Invalid_argument on empty or non-positive total weight. *)

val alias_draw : alias -> Rng.t -> int
(** Draw an index in O(1). *)

(** {1 Classical distributions} *)

val exponential : Rng.t -> rate:float -> float
(** Exponential variate with the given rate.
    @raise Invalid_argument if [rate <= 0]. *)

val geometric : Rng.t -> p:float -> int
(** Trials up to and including the first success; support [1, 2, ...].
    @raise Invalid_argument unless [0 < p <= 1]. *)

val poisson : Rng.t -> lambda:float -> int
(** Poisson variate. Used by the Section 5 heuristic to estimate the number
    of incoming links a new node should solicit.
    @raise Invalid_argument if [lambda < 0]. *)

val binomial : Rng.t -> n:int -> p:float -> int
(** Binomial(n, p) variate.
    @raise Invalid_argument if [n < 0] or [p] outside [0,1]. *)

(** {1 Power-law link lengths} *)

type power_law
(** Precomputed prefix sums of [d^-exponent] for lengths [1..max_length]. *)

val power_law : exponent:float -> max_length:int -> power_law
(** Build the table. With [exponent = 1.0] this is the paper's harmonic
    link-length distribution.
    @raise Invalid_argument if [max_length < 1]. *)

val power_law_draw : power_law -> Rng.t -> upto:int -> int
(** Draw a length in [1, upto] with probability proportional to
    [d^-exponent], restricted to the first [upto] lengths (used to condition
    on staying inside the line segment). Consumes one {!Rng.float} and
    allocates only its boxed result (2 minor words).
    @raise Invalid_argument if [upto] is out of range. *)

val power_law_total : power_law -> upto:int -> float
(** Normalising constant [sum_{d=1..upto} d^-exponent]. *)

val power_law_max_length : power_law -> int
(** Largest supported length. *)
