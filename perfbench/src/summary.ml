(* Order statistics over latency samples. *)

(* Nearest-rank percentile of an ascending array: the smallest sample with
   at least [p]% of the samples at or below it. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let sorted_copy xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let median xs = percentile (sorted_copy xs) 50.
let mean xs = Array.fold_left ( +. ) 0. xs /. float_of_int (max 1 (Array.length xs))

(* Samples strictly above the [p]th percentile — the tail a percentile
   estimate rests on. *)
let beyond sorted p =
  let v = percentile sorted p in
  Array.fold_left (fun acc x -> if x > v then acc + 1 else acc) 0 sorted

(* A growable float buffer: the timed loop appends one sample per op. *)
type buf = { mutable data : float array; mutable len : int }

let buf () = { data = Array.make 4096 0.; len = 0 }

let push b x =
  if b.len = Array.length b.data then begin
    let d = Array.make (2 * b.len) 0. in
    Array.blit b.data 0 d 0 b.len;
    b.data <- d
  end;
  b.data.(b.len) <- x;
  b.len <- b.len + 1

let contents b = Array.sub b.data 0 b.len
