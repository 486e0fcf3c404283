(* The traced run: [Job.run] recomposed from the public call it makes into
   each layer, every call timed from outside. Spans are flat (no layer
   call contains another), so a layer's self time is its span time and
   the root's remainder is farm glue: test-bench loads, golden checks,
   state read-back and outcome assembly, reported as [unattributed]. *)

open Calyx
module Job = Calyx_farm.Job
module Sim = Calyx_sim.Sim
module Testbench = Calyx_sim.Testbench
module Validate = Calyx_verilog.Validate

(* Every layer the ledger reports, in pipeline order. *)
let passes =
  List.map
    (fun (p : Pass.t) -> "calyx.pass." ^ p.Pass.name)
    (Pipelines.passes Pipelines.default_config)

let layers =
  [ "frontend"; "calyx.well_formed"; "calyx.lint" ]
  @ passes
  @ [
      "sim.instantiate";
      "sim.simulate";
      "verilog.emit";
      "verilog.rtl_load";
      "verilog.rtl_sim";
      "verilog.resim";
      "synth.timing";
      "synth.area";
    ]

let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

type span = { mutable self_s : float; mutable words : float }

type trace = {
  label : string;
  root_s : float;
  root_words : float;
  spans : (string, span) Hashtbl.t;
  cycles : int;
  rtl_cycles : int;
  sv_loc : int;
  rtl_nets : int;
  rtl_procs : int;
  ir_after : (string * Pass.counts) list;
      (** IR size after the frontend, then after each pass. *)
  cells_freed : (string * int) list;
      (** Per sharing pass: cells it left unreferenced (live cells before
          minus after), which dead-cell-removal later deletes. *)
  outcome : Job.outcome;
}

let self t layer =
  match Hashtbl.find_opt t.spans layer with Some s -> s.self_s | None -> 0.

let words t layer =
  match Hashtbl.find_opt t.spans layer with Some s -> s.words | None -> 0.

let unattributed_s t =
  t.root_s -. Hashtbl.fold (fun _ s acc -> acc +. s.self_s) t.spans 0.

let unattributed_words t =
  t.root_words -. Hashtbl.fold (fun _ s acc -> acc +. s.words) t.spans 0.

(* The per-source frontend, loader and golden check, exactly as [Job]
   builds them (the job's own builder is private to the farm). *)
let build (j : Job.t) =
  match j.source with
  | Job.Text _ -> invalid_arg "Ledger.build: no workload submits text jobs"
  | Job.Fuzz { seed } -> (Fuzz_gen.program_of_seed seed, ignore, fun _ -> [])
  | Job.Polybench { kernel; unrolled } ->
      let k = Polybench.Kernels.find kernel in
      let prog = Polybench.Harness.program k ~unrolled in
      let ctx = Polybench.Harness.build k ~unrolled in
      let load io =
        List.iter
          (fun (name, values) -> Polybench.Data.load prog io name values)
          k.inputs
      in
      let check io =
        let lookup name = Array.of_list (List.assoc name k.inputs) in
        let expected = k.reference lookup in
        List.filter_map
          (fun name ->
            let got = Polybench.Data.read prog io name in
            let want = Array.to_list (List.assoc name expected) in
            if got = want then None
            else Some (Printf.sprintf "golden mismatch in memory %s" name))
          k.outputs
      in
      (ctx, load, check)
  | Job.Systolic { rows; cols; depth } ->
      let width = 32 (* the farm's systolic element width *) in
      let a r k = (((r * 3) + k) mod 9) + 1 in
      let b k c = (((k * 5) + c) mod 7) + 1 in
      let load io =
        for r = 0 to rows - 1 do
          Testbench.write_memory_ints io (Systolic.left_memory r) ~width
            (List.init depth (a r))
        done;
        for c = 0 to cols - 1 do
          Testbench.write_memory_ints io (Systolic.top_memory c) ~width
            (List.init depth (fun k -> b k c))
        done
      in
      let check io =
        let got = Testbench.read_memory_ints io Systolic.out_memory in
        List.concat
          (List.mapi
             (fun i v ->
               let r = i / cols and c = i mod cols in
               let want = ref 0 in
               for k = 0 to depth - 1 do
                 want := !want + (a r k * b k c)
               done;
               if v = !want then []
               else
                 [
                   Printf.sprintf "product mismatch at C[%d][%d]: %d <> %d" r
                     c v !want;
                 ])
             got)
      in
      (Systolic.generate { rows; cols; depth; width }, load, check)

let mem_to_string vs =
  String.concat ","
    (Array.to_list (Array.map (fun v -> Int64.to_string (Bitvec.to_int64 v)) vs))

let run (j : Job.t) =
  let spans = Hashtbl.create 32 in
  let span name f =
    let w0 = alloc_words () and t0 = Unix.gettimeofday () in
    let r = f () in
    let t1 = Unix.gettimeofday () and w1 = alloc_words () in
    let s =
      match Hashtbl.find_opt spans name with
      | Some s -> s
      | None ->
          let s = { self_s = 0.; words = 0. } in
          Hashtbl.add spans name s;
          s
    in
    s.self_s <- s.self_s +. (t1 -. t0);
    s.words <- s.words +. (w1 -. w0);
    r
  in
  let w0 = alloc_words () and t0 = Unix.gettimeofday () in
  Calyx_telemetry.Manifest.set_run ~source:(Job.label j)
    ~source_hash:(Calyx_telemetry.Manifest.hash (Job.key_source j))
    ~pipeline:(Pipelines.id j.config) ~engine:(Job.engine_name j) ();
  let ctx, load, check = span "frontend" (fun () -> build j) in
  (* [Pipelines.compile] with the well-formedness re-check that
     [Pass.run] makes after every pass split out of the pass's span. *)
  span "calyx.well_formed" (fun () -> Well_formed.check ctx);
  if j.config.lint then span "calyx.lint" (fun () -> Lint.check ctx);
  let contexts, lowered =
    List.fold_left
      (fun (acc, ctx) (p : Pass.t) ->
        let ctx' =
          span ("calyx.pass." ^ p.name) (fun () ->
              Pass.run ~validate:false p ctx)
        in
        span "calyx.well_formed" (fun () ->
            match Well_formed.errors ctx' with
            | [] -> ()
            | errs ->
                raise
                  (Well_formed.Malformed
                     (List.map
                        (fun e -> Printf.sprintf "[after %s] %s" p.name e)
                        errs)));
        ((p.name, ctx') :: acc, ctx'))
      ([ ("frontend", ctx) ], ctx)
      (Pipelines.passes j.config)
  in
  let sim = span "sim.instantiate" (fun () -> Sim.create ~engine:j.engine lowered) in
  let io = Testbench.of_sim sim in
  load io;
  let cycles = span "sim.simulate" (fun () -> Sim.run sim) in
  let golden = check io in
  let registers, memories = Validate.state_cells lowered in
  let o_registers =
    List.map (fun p -> (p, Bitvec.to_string (io.read_register p))) registers
  in
  let o_memories =
    List.map
      (fun p ->
        (p, Array.to_list (Array.map Bitvec.to_string (io.read_memory p))))
      memories
  in
  let validation, rtl =
    if not j.validate then (None, None)
    else begin
      let sv = span "verilog.emit" (fun () -> Calyx_verilog.Verilog.emit lowered) in
      let vsim =
        span "verilog.resim" (fun () -> Sim.create ~engine:j.engine lowered)
      in
      let rtl =
        span "verilog.rtl_load" (fun () ->
            Calyx_verilog.Vinterp.load ~top:lowered.entrypoint sv)
      in
      let sim_io = Testbench.of_sim vsim and rtl_io = Validate.rtl_io rtl in
      load sim_io;
      load rtl_io;
      let cycles_sim = span "verilog.resim" (fun () -> Sim.run vsim) in
      let cycles_rtl =
        span "verilog.rtl_sim" (fun () -> Calyx_verilog.Vinterp.run rtl)
      in
      let mismatch path s r = Printf.sprintf "%s: sim=%s rtl=%s" path s r in
      let mismatches =
        (if cycles_sim = cycles_rtl then []
         else
           [ mismatch "cycles" (string_of_int cycles_sim) (string_of_int cycles_rtl) ])
        @ List.filter_map
            (fun p ->
              let s = sim_io.read_register p and r = rtl_io.read_register p in
              if Bitvec.equal s r then None
              else Some (mismatch p (Bitvec.to_string s) (Bitvec.to_string r)))
            registers
        @ List.filter_map
            (fun p ->
              let s = sim_io.read_memory p and r = rtl_io.read_memory p in
              if Array.length s = Array.length r && Array.for_all2 Bitvec.equal s r
              then None
              else Some (mismatch p (mem_to_string s) (mem_to_string r)))
            memories
      in
      ( Some
          {
            Job.v_ok = mismatches = [];
            v_cycles_rtl = cycles_rtl;
            v_registers_checked = List.length registers;
            v_memories_checked = List.length memories;
            v_mismatches = mismatches;
          },
        Some (sv, rtl, cycles_rtl) )
    end
  in
  let timing =
    span "synth.timing" (fun () ->
        Calyx_synth.Timing.context_timing ~paths:1 lowered)
  in
  let area = span "synth.area" (fun () -> Calyx_synth.Area.context_usage lowered) in
  let outcome =
    {
      Job.o_label = Job.label j;
      o_engine = Job.engine_name j;
      o_ok =
        golden = []
        && (match validation with None -> true | Some v -> v.v_ok);
      o_cycles = cycles;
      o_registers;
      o_memories;
      o_diagnostics = golden;
      o_validate = validation;
      o_delay_ps = timing.delay_ps;
      o_fmax_mhz = timing.fmax_mhz;
      o_luts = area.luts;
      o_register_bits = area.registers;
      o_dsps = area.dsps;
      o_brams = area.brams;
    }
  in
  let t1 = Unix.gettimeofday () and w1 = alloc_words () in
  (* Counting happens after the root closes, so it costs no layer time. *)
  let contexts = List.rev contexts in
  let live ctx = (Pass.measure (Dead_cell_removal.pass.transform ctx)).cells in
  let rec freed pass = function
    | (_, before) :: ((p, after) :: _ as rest) ->
        if String.equal p pass then live before - live after else freed pass rest
    | _ -> 0
  in
  let sv_loc, rtl_nets, rtl_procs, rtl_cycles =
    match rtl with
    | None -> (0, 0, 0, 0)
    | Some (sv, rtl, c) ->
        let nets, procs = Calyx_verilog.Vinterp.stats rtl in
        (Calyx_verilog.Verilog.loc sv, nets, procs, c)
  in
  {
    label = Job.label j;
    root_s = t1 -. t0;
    root_words = w1 -. w0;
    spans;
    cycles;
    rtl_cycles;
    sv_loc;
    rtl_nets;
    rtl_procs;
    ir_after = List.map (fun (name, c) -> (name, Pass.measure c)) contexts;
    cells_freed =
      List.map
        (fun p -> (p, freed p contexts))
        [ "resource-sharing"; "register-sharing" ];
    outcome;
  }
