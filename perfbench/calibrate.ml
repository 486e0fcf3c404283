(* The calibration probe (see Calibration):

     calibrate.exe DOMAINS

   times a fixed piece of allocation-heavy work, the kind the compiler
   does (balanced-tree inserts, hashing, short strings), on DOMAINS
   domains at once (the workload's own count, so every core it uses is
   sampled) and prints the mean over domains of the fastest of three runs,
   in seconds. It runs in a process of its own so the benchmark's heap and
   GC state cannot change its time, and calls no code of the repository,
   so no change to the program can move it. *)

module IM = Map.Make (Int)

let work () =
  let m = ref IM.empty in
  for i = 0 to 20_000 do
    m := IM.add (i * 7919 mod 100_003) i !m
  done;
  let s = IM.fold (fun k v a -> a + k + v) !m 0 in
  let h = Hashtbl.create 1024 in
  for i = 0 to 40_000 do
    Hashtbl.replace h (i mod 4099) (string_of_int i)
  done;
  Sys.opaque_identity (s + Hashtbl.length h)

let fastest () =
  let once () =
    let t0 = Unix.gettimeofday () in
    ignore (work ());
    Unix.gettimeofday () -. t0
  in
  Float.min (once ()) (Float.min (once ()) (once ()))

let () =
  let domains = max 1 (int_of_string Sys.argv.(1)) in
  let others = List.init (domains - 1) (fun _ -> Domain.spawn fastest) in
  let mine = fastest () in
  let all = mine :: List.map Domain.join others in
  Printf.printf "%.9f\n" (List.fold_left ( +. ) 0. all /. float_of_int domains)
