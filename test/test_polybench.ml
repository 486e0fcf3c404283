(* PolyBench kernel tests: every kernel (sequential and unrolled) must
   compute its golden reference, under the interpreter and under compiled
   configurations. *)

let quick_kernels = [ "gemm"; "atax"; "trisolv"; "cholesky"; "durbin" ]

module Job = Calyx_farm.Job

let run ?config name ~unrolled =
  Job.run (Job.make ?config (Job.Polybench { kernel = name; unrolled }))

let check_outcome name (o : Job.outcome) =
  if not o.o_ok then
    Alcotest.failf "%s: %s" name (String.concat ", " o.o_diagnostics);
  Alcotest.(check bool) (name ^ " ran") true (o.o_cycles > 0)

let test_interp_quick () =
  List.iter
    (fun name ->
      let k = Polybench.Kernels.find name in
      let prog = Polybench.Harness.program k ~unrolled:false in
      let cycles, mismatches =
        Polybench.Harness.execute k prog (Dahlia.To_calyx.compile prog)
      in
      if mismatches <> [] then
        Alcotest.failf "%s/interp: mismatching outputs: %s" name
          (String.concat ", " mismatches);
      Alcotest.(check bool) (name ^ "/interp ran") true (cycles > 0))
    quick_kernels

let test_compiled_all_kernels () =
  List.iter
    (fun k ->
      let name = k.Polybench.Kernels.name in
      check_outcome (name ^ "/compiled") (run name ~unrolled:false))
    Polybench.Kernels.all

let test_compiled_insensitive () =
  List.iter
    (fun name ->
      check_outcome (name ^ "/insensitive")
        (run ~config:Calyx.Pipelines.insensitive_config name ~unrolled:false))
    quick_kernels

let test_unrolled_variants () =
  List.iter
    (fun k ->
      let name = k.Polybench.Kernels.name in
      check_outcome (name ^ "/unrolled") (run name ~unrolled:true))
    Polybench.Kernels.unrollable

let test_unrolled_faster () =
  (* Unrolling unlocks parallelism: fewer cycles than sequential. *)
  List.iter
    (fun name ->
      let seq = (run name ~unrolled:false).o_cycles in
      let par = (run name ~unrolled:true).o_cycles in
      Alcotest.(check bool)
        (Printf.sprintf "%s: unrolled %d < sequential %d" name par seq)
        true (par < seq))
    [ "gemm"; "atax"; "gesummv" ]

let test_static_speedup_all () =
  (* The Sensitive pass speeds up every kernel (Figure 9c's direction). *)
  List.iter
    (fun name ->
      let stat = (run name ~unrolled:false).o_cycles in
      let insens =
        (run ~config:Calyx.Pipelines.insensitive_config name ~unrolled:false)
          .o_cycles
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: static %d < insensitive %d" name stat insens)
        true (stat < insens))
    quick_kernels

let test_register_sharing_reduces_registers () =
  (* Figure 9b's direction: register sharing reduces register cells. The
     outcome carries register bits, not cells, so the cells are counted
     on the compiled design. *)
  let open Calyx.Pipelines in
  let count config name =
    let ctx =
      Polybench.Harness.build (Polybench.Kernels.find name) ~unrolled:false
    in
    ( (Calyx_synth.Area.context_usage (compile ~config ctx))
        .Calyx_synth.Area.register_cells,
      (run ~config name ~unrolled:false).o_ok )
  in
  List.iter
    (fun name ->
      let base, ok1 = count insensitive_config name in
      let shared, ok2 =
        count { insensitive_config with register_sharing = true } name
      in
      Alcotest.(check bool) (name ^ " correct") true (ok1 && ok2);
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d <= %d registers" name shared base)
        true (shared <= base))
    [ "gemm"; "gemver"; "trisolv" ]

let test_inputs_deterministic () =
  let k = Polybench.Kernels.find "gemm" in
  let k' = Polybench.Kernels.find "gemm" in
  Alcotest.(check bool) "same inputs" true
    (k.Polybench.Kernels.inputs = k'.Polybench.Kernels.inputs)

let test_kernel_count () =
  Alcotest.(check int) "19 kernels" 19 (List.length Polybench.Kernels.all);
  Alcotest.(check int) "11 unrollable" 11
    (List.length Polybench.Kernels.unrollable)

let () =
  Alcotest.run "polybench"
    [
      ( "structure",
        [
          Alcotest.test_case "kernel inventory" `Quick test_kernel_count;
          Alcotest.test_case "deterministic inputs" `Quick
            test_inputs_deterministic;
        ] );
      ( "correctness",
        [
          Alcotest.test_case "interpreter (subset)" `Quick test_interp_quick;
          Alcotest.test_case "all kernels compiled" `Slow
            test_compiled_all_kernels;
          Alcotest.test_case "insensitive configuration" `Quick
            test_compiled_insensitive;
          Alcotest.test_case "all unrolled variants" `Slow
            test_unrolled_variants;
        ] );
      ( "performance shape",
        [
          Alcotest.test_case "unrolling speeds up" `Slow test_unrolled_faster;
          Alcotest.test_case "static compilation speeds up" `Slow
            test_static_speedup_all;
          Alcotest.test_case "register sharing reduces registers" `Slow
            test_register_sharing_reduces_registers;
        ] );
    ]
