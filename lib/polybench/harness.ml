let program (k : Kernels.kernel) ~unrolled =
  let source =
    if unrolled then
      match k.Kernels.unrolled with
      | Some src -> src
      | None -> invalid_arg (k.Kernels.name ^ " has no unrolled variant")
    else k.Kernels.source
  in
  Dahlia.Parser.parse_string source

let build k ~unrolled = Dahlia.To_calyx.compile (program k ~unrolled)

let verify (k : Kernels.kernel) prog io =
  let inputs =
    List.map (fun (name, values) -> (name, Array.of_list values)) k.Kernels.inputs
  in
  let get name =
    match List.assoc_opt name inputs with
    | Some a -> Array.copy a
    | None -> raise (Data.Data_error ("kernel has no input " ^ name))
  in
  let expected = k.Kernels.reference get in
  List.filter
    (fun name ->
      Array.of_list (Data.read prog io name) <> List.assoc name expected)
    k.Kernels.outputs

let load_inputs (k : Kernels.kernel) prog io =
  List.iter (fun (name, values) -> Data.load prog io name values) k.Kernels.inputs

let execute ?(engine = `Compiled) (k : Kernels.kernel) prog ctx =
  let sim = Calyx_sim.Sim.create ~engine ctx in
  let io = Calyx_sim.Testbench.of_sim sim in
  load_inputs k prog io;
  let cycles = Calyx_sim.Sim.run sim in
  (cycles, verify k prog io)
