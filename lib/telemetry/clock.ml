(* The toolchain's one clock. [Unix.gettimeofday] is the only wall-time
   source this container guarantees, but it can step backwards (NTP);
   monotonicity is restored by clamping against the last reading, and
   readings are taken relative to process start so the float mantissa is
   spent on resolution rather than the epoch. *)

let origin = Unix.gettimeofday ()
let last = ref 0.

let now_ns () =
  let t = (Unix.gettimeofday () -. origin) *. 1e9 in
  let t = if t > !last then t else !last in
  last := t;
  t

let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, (now_ns () -. t0) /. 1e9)
