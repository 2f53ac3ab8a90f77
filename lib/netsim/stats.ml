(** Measurement helpers shared by experiments and tests. *)

(** Streaming summary: count / mean / min / max / variance (Welford). *)
module Summary = struct
  type t = {
    mutable n : int;
    mutable mean : float;
    mutable m2 : float;
    mutable min : float;
    mutable max : float;
  }

  let create () = { n = 0; mean = 0.; m2 = 0.; min = infinity; max = neg_infinity }

  let add t x =
    t.n <- t.n + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x

  let count t = t.n
  let mean t = if t.n = 0 then 0. else t.mean
  let min t = if t.n = 0 then 0. else t.min
  let max t = if t.n = 0 then 0. else t.max

  let stddev t =
    if t.n < 2 then 0. else sqrt (t.m2 /. float_of_int (t.n - 1))

  let pp ppf t =
    Fmt.pf ppf "n=%d mean=%.6g min=%.6g max=%.6g sd=%.6g" t.n (mean t)
      (min t) (max t) (stddev t)
end

(** Fixed-capacity reservoir for percentile estimates. *)
module Reservoir = struct
  type t = {
    samples : float array;
    mutable n : int; (* total observed *)
    rng : Random.State.t;
  }

  let create ?(capacity = 4096) ?(seed = 42) () =
    { samples = Array.make capacity 0.; n = 0; rng = Random.State.make [| seed |] }

  let add t x =
    let cap = Array.length t.samples in
    if t.n < cap then t.samples.(t.n) <- x
    else begin
      let j = Random.State.int t.rng (t.n + 1) in
      if j < cap then t.samples.(j) <- x
    end;
    t.n <- t.n + 1

  let count t = t.n

  let percentile t p =
    let m = Stdlib.min t.n (Array.length t.samples) in
    if m = 0 then 0.
    else begin
      let a = Array.sub t.samples 0 m in
      Array.sort Float.compare a;
      let idx = int_of_float (p /. 100. *. float_of_int (m - 1)) in
      a.(Stdlib.max 0 (Stdlib.min (m - 1) idx))
    end

  let median t = percentile t 50.
end
