(* The four state words s0..s3 live little-endian at byte offsets 0, 8, 16
   and 24 of one 32-byte buffer. Mutable [int64] record fields would box a
   fresh value on every store; [Bytes.get/set_int64_le] compile to plain
   loads and stores, so a step allocates nothing. *)
type t = Bytes.t

let[@inline] get t i = Bytes.get_int64_le t (8 * i)

let[@inline] set t i v = Bytes.set_int64_le t (8 * i) v

let[@inline] rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let make s0 s1 s2 s3 =
  let t = Bytes.create 32 in
  set t 0 s0;
  set t 1 s1;
  set t 2 s2;
  set t 3 s3;
  t

let of_state s0 s1 s2 s3 =
  if s0 = 0L && s1 = 0L && s2 = 0L && s3 = 0L then
    invalid_arg "Xoshiro.of_state: all-zero state";
  make s0 s1 s2 s3

let of_splitmix sm =
  let s0 = Splitmix64.next_int64 sm in
  let s1 = Splitmix64.next_int64 sm in
  let s2 = Splitmix64.next_int64 sm in
  let s3 = Splitmix64.next_int64 sm in
  (* SplitMix64 output is equidistributed so an all-zero draw is all but
     impossible, but the xoshiro state must never be all zero. *)
  if s0 = 0L && s1 = 0L && s2 = 0L && s3 = 0L then make 1L s1 s2 s3 else make s0 s1 s2 s3

let create seed = of_splitmix (Splitmix64.create seed)

let of_int seed = create (Int64.of_int seed)

(* xoshiro256** next(): the state transition is a linear map on GF(2)^256;
   the star-star scrambler breaks its linearity in the output. Inlined into
   each entry point below so the result stays unboxed until it leaves the
   module. *)
let[@inline] step t =
  let s0 = get t 0 and s1 = get t 1 and s2 = get t 2 and s3 = get t 3 in
  let result = Int64.mul (rotl (Int64.mul s1 5L) 7) 9L in
  let tmp = Int64.shift_left s1 17 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  set t 1 (Int64.logxor s1 s2);
  set t 0 (Int64.logxor s0 s3);
  set t 2 (Int64.logxor s2 tmp);
  set t 3 (rotl s3 45);
  result

let next_int64 t = step t

let next_bits t = Int64.to_int (Int64.shift_right_logical (step t) 2)

let copy = Bytes.copy

let split t =
  (* Derive an independent stream by reseeding SplitMix64 from the parent.
     The derived stream's trajectory is decorrelated from the parent's. *)
  let sm = Splitmix64.create (next_int64 t) in
  of_splitmix sm
