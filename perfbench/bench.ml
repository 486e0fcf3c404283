(* The end-to-end benchmark: whole farm jobs over one named workload.

     bench.exe --workload W --seed N --seconds S --trace 0|1

   --trace 0 measures the end-to-end metrics with telemetry off
   (End_to_end); --trace 1 is the separate traced run that splits every
   job into per-layer self time and allocation (Traced). The last line of
   standard output is one JSON object: correct, attempted, failed,
   metrics. The exit code is 1 when any check fails. See README.md. *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of the four workloads");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measure for S seconds (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer run (1)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  match Workloads.find !workload with
  | None ->
      prerr_endline
        ("unknown workload; choose one of: "
        ^ String.concat ", "
            (List.map (fun (w : Workloads.t) -> w.name) Workloads.all));
      exit 2
  | Some w ->
      if Calyx_telemetry.Runtime.on () then failwith "telemetry must stay off";
      if !trace = 0 then End_to_end.run w ~seed:!seed ~seconds:!seconds
      else Traced.run w ~seed:!seed ~seconds:!seconds
