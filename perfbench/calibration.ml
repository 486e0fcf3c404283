(* Machine-speed calibration. The benchmark's timings are reported in
   reference seconds: measured seconds scaled by how fast the machine ran
   the calibration probe (calibrate.ml) just before and just after the
   measurement, relative to [reference_s]. On a shared machine whose speed
   swings by a third for tens of seconds at a time, this is what keeps the
   run-to-run spread inside the bounds; the raw figures are printed beside
   them. *)

(* The probe's time on the machine the benchmark was defined on, in a
   quiet period (see README.md). *)
let reference_s = 0.0125

let probe =
  Filename.concat (Filename.dirname Sys.executable_name) "calibrate.exe"

(* The probe's time now, on [domains] cores: the machine's current speed. *)
let measure ~domains =
  let ic = Unix.open_process_args_in probe [| probe; string_of_int domains |] in
  let line = Fun.protect ~finally:(fun () -> ignore (Unix.close_process_in ic))
      (fun () -> input_line ic) in
  float_of_string line

(* Reference seconds per measured second over an interval bracketed by
   the calibrations [before] and [after]. *)
let factor ~before ~after = reference_s /. ((before +. after) /. 2.)
