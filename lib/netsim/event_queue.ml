(** Binary min-heap of timestamped events over unboxed parallel arrays.

    An event is three flat values: its time in a [float array] (OCaml's
    unboxed float-array representation), its tie-breaking sequence
    number and its [int] code in two [int array]s. Pushing therefore
    allocates nothing, and a sift step moves no boxed value: no
    [caml_modify] write barrier on any of the three arrays. Sift-up and
    sift-down compare raw floats in place using the hole technique —
    the moving element is held in registers and written once.

    Ties on the timestamp break by [seq] so that the simulation is
    deterministic: two events scheduled for the same instant fire in
    the order they were scheduled.

    Floats cross a module boundary boxed (dune's dev profile compiles
    with [-opaque], and a float argument or result of a call that is
    not inlined is boxed anyway), so the engine's own calls pass times
    through one-cell float arrays: [push_cell] and [min_time_cell]. *)

type t = {
  mutable times : float array; (* flat/unboxed: the hot comparison key *)
  mutable seqs : int array;
  mutable codes : int array;
  mutable size : int;
  scratch : float array; (* [push]'s time, handed to [push_cell] unboxed *)
}

let create () =
  { times = Array.make 64 infinity;
    seqs = Array.make 64 0;
    codes = Array.make 64 0;
    size = 0;
    scratch = [| 0. |] }

let is_empty t = t.size = 0
let length t = t.size

let grow t =
  let cap = 2 * Array.length t.times in
  let times = Array.make cap infinity in
  let seqs = Array.make cap 0 in
  let codes = Array.make cap 0 in
  Array.blit t.times 0 times 0 t.size;
  Array.blit t.seqs 0 seqs 0 t.size;
  Array.blit t.codes 0 codes 0 t.size;
  t.times <- times;
  t.seqs <- seqs;
  t.codes <- codes

let push_cell t cell ~seq code =
  if t.size = Array.length t.times then grow t;
  let time = cell.(0) in
  let times = t.times and seqs = t.seqs and codes = t.codes in
  (* sift up with a hole: shift larger parents down, place once *)
  let i = ref t.size in
  t.size <- t.size + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    if time < times.(p) || (time = times.(p) && seq < seqs.(p)) then begin
      times.(!i) <- times.(p);
      seqs.(!i) <- seqs.(p);
      codes.(!i) <- codes.(p);
      i := p
    end
    else continue := false
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  codes.(!i) <- code

let push t ~time ~seq code =
  t.scratch.(0) <- time;
  push_cell t t.scratch ~seq code

let min_time t = if t.size = 0 then infinity else t.times.(0)

let min_time_cell t cell =
  cell.(0) <- (if t.size = 0 then infinity else t.times.(0))

let pop_exn t =
  if t.size = 0 then invalid_arg "Event_queue.pop_exn: empty queue";
  let times = t.times and seqs = t.seqs and codes = t.codes in
  let top = codes.(0) in
  let n = t.size - 1 in
  t.size <- n;
  (* the displaced last element, sifted down through a hole at the root *)
  let time = times.(n) and seq = seqs.(n) and code = codes.(n) in
  if n > 0 then begin
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let r = l + 1 in
        let c =
          if
            r < n
            && (times.(r) < times.(l)
                || (times.(r) = times.(l) && seqs.(r) < seqs.(l)))
          then r
          else l
        in
        if times.(c) < time || (times.(c) = time && seqs.(c) < seq) then begin
          times.(!i) <- times.(c);
          seqs.(!i) <- seqs.(c);
          codes.(!i) <- codes.(c);
          i := c
        end
        else continue := false
      end
    done;
    times.(!i) <- time;
    seqs.(!i) <- seq;
    codes.(!i) <- code
  end;
  top
