(* Order statistics and fits over measured samples. *)

(* Linear interpolation between closest ranks (numpy's default), so a
   quantile moves smoothly with the samples instead of jumping between
   neighbouring order statistics. *)
let quantile q xs =
  match Array.length xs with
  | 0 -> nan
  | n ->
      let s = Array.copy xs in
      Array.sort compare s;
      let pos = q *. float_of_int (n - 1) in
      let i = int_of_float pos in
      if i + 1 >= n then s.(n - 1)
      else s.(i) +. ((pos -. float_of_int i) *. (s.(i + 1) -. s.(i)))

let median xs = quantile 0.5 xs

let geomean = function
  | [] -> nan
  | xs ->
      exp
        (List.fold_left (fun a x -> a +. log x) 0. xs
        /. float_of_int (List.length xs))

(* Least-squares slope of log y over log x: the scaling exponent b of
   y ≈ a·x^b. *)
let loglog_slope points =
  let pts = List.map (fun (x, y) -> (log x, log y)) points in
  let n = float_of_int (List.length pts) in
  let mx = List.fold_left (fun a (x, _) -> a +. x) 0. pts /. n
  and my = List.fold_left (fun a (_, y) -> a +. y) 0. pts /. n in
  let sxy, sxx =
    List.fold_left
      (fun (sxy, sxx) (x, y) ->
        (sxy +. ((x -. mx) *. (y -. my)), sxx +. ((x -. mx) *. (x -. mx))))
      (0., 0.) pts
  in
  sxy /. sxx
