(* Systolic array generator tests: functional correctness against an OCaml
   matmul, latency inference, and compiled-vs-interpreted agreement. *)

open Calyx

let matmul a b =
  let rows = Array.length a in
  let depth = Array.length b in
  let cols = Array.length b.(0) in
  Array.init rows (fun r ->
      Array.init cols (fun c ->
          let acc = ref 0 in
          for k = 0 to depth - 1 do
            acc := !acc + (a.(r).(k) * b.(k).(c))
          done;
          !acc))

let load_sim sim (d : Systolic.dims) a b =
  for r = 0 to d.rows - 1 do
    Calyx_sim.Sim.write_memory_ints sim (Systolic.left_memory r) ~width:d.width
      (Array.to_list a.(r))
  done;
  for c = 0 to d.cols - 1 do
    Calyx_sim.Sim.write_memory_ints sim (Systolic.top_memory c) ~width:d.width
      (List.init d.depth (fun k -> b.(k).(c)))
  done

let read_result sim (d : Systolic.dims) =
  let flat = Array.of_list (Calyx_sim.Sim.read_memory_ints sim Systolic.out_memory) in
  Array.init d.rows (fun r -> Array.init d.cols (fun c -> flat.((r * d.cols) + c)))

let test_matrices d =
  let a =
    Array.init d.Systolic.rows (fun r ->
        Array.init d.Systolic.depth (fun k -> (r * 3) + k + 1))
  in
  let b =
    Array.init d.Systolic.depth (fun k ->
        Array.init d.Systolic.cols (fun c -> (k * 2) + c + 1))
  in
  (a, b)

let check_result name d got expected =
  Array.iteri
    (fun r row ->
      Array.iteri
        (fun c v ->
          Alcotest.(check int)
            (Printf.sprintf "%s: C[%d][%d]" name r c)
            expected.(r).(c) v)
        row)
    got;
  ignore d

let run_interp d =
  let ctx = Systolic.generate d in
  Well_formed.check ctx;
  let a, b = test_matrices d in
  let sim = Calyx_sim.Sim.create ctx in
  load_sim sim d a b;
  let cycles = Calyx_sim.Sim.run sim in
  (read_result sim d, matmul a b, cycles)

let run_compiled config d =
  let ctx = Pipelines.compile ~config (Systolic.generate d) in
  let a, b = test_matrices d in
  let sim = Calyx_sim.Sim.create ctx in
  load_sim sim d a b;
  let cycles = Calyx_sim.Sim.run sim in
  (read_result sim d, matmul a b, cycles)

let square n = { Systolic.rows = n; cols = n; depth = n; width = 32 }

let test_interp_2x2 () =
  let got, expected, _ = run_interp (square 2) in
  check_result "interp" (square 2) got expected

let test_interp_rectangular () =
  let d = { Systolic.rows = 2; cols = 3; depth = 4; width = 32 } in
  let got, expected, _ = run_interp d in
  check_result "rect" d got expected

let test_compiled_insensitive () =
  let d = square 3 in
  let got, expected, _ = run_compiled Pipelines.insensitive_config d in
  check_result "insensitive" d got expected

let test_compiled_static () =
  let d = square 3 in
  let got, expected, _ = run_compiled Pipelines.default_config d in
  check_result "static" d got expected

let test_static_speedup () =
  let d = square 3 in
  let _, _, insensitive = run_compiled Pipelines.insensitive_config d in
  let sensitive_config =
    {
      Pipelines.insensitive_config with
      Pipelines.infer_latency = true;
      Pipelines.static_timing = true;
    }
  in
  let _, _, static = run_compiled sensitive_config d in
  Alcotest.(check bool)
    (Printf.sprintf "static %d < insensitive %d" static insensitive)
    true (static < insensitive)

let test_latency_fully_inferred () =
  (* The generator emits no static attributes; inference recovers them for
     every group and for the whole array (Section 6.1). *)
  let ctx = Systolic.generate (square 2) in
  let main = Ir.entry ctx in
  List.iter
    (fun g ->
      Alcotest.(check bool)
        (Printf.sprintf "no frontend annotation on %s" g.Ir.group_name)
        true
        (Attrs.static g.Ir.group_attrs = None))
    main.Ir.groups;
  let inferred = Pass.run Infer_latency.pass ctx in
  let main = Ir.entry inferred in
  List.iter
    (fun g ->
      Alcotest.(check bool)
        (Printf.sprintf "inferred latency for %s" g.Ir.group_name)
        true
        (Attrs.static g.Ir.group_attrs <> None))
    main.Ir.groups;
  Alcotest.(check bool) "whole array latency inferred" true
    (Attrs.static main.Ir.comp_attrs <> None);
  let pe = Ir.find_component inferred "mac_pe" in
  Alcotest.(check (option int)) "PE latency = mult + accumulate"
    (Some (Prims.mult_latency + 1))
    (Attrs.static pe.Ir.comp_attrs)

let test_sizes_agree () =
  (* Interpreter and fully optimized compilation agree on all small sizes. *)
  List.iter
    (fun n ->
      let d = square n in
      let got_i, expected, _ = run_interp d in
      check_result "interp" d got_i expected;
      let got_c, _, _ = run_compiled Pipelines.default_config d in
      check_result "compiled" d got_c expected)
    [ 2; 4 ]

let test_sad_pe () =
  (* PE-parametricity: the same generator with a SAD processing element
     computes C[r][c] = sum_k |A[r][k] - B[k][c]|. *)
  let d = square 3 in
  let ctx =
    Pipelines.compile (Systolic.generate ~pe:(Systolic.sad_pe ~width:32) d)
  in
  let a = [| [| 9; 2; 7 |]; [| 1; 8; 3 |]; [| 4; 4; 4 |] |] in
  let b = [| [| 5; 5; 5 |]; [| 2; 9; 1 |]; [| 7; 0; 6 |] |] in
  let sim = Calyx_sim.Sim.create ctx in
  load_sim sim d a b;
  ignore (Calyx_sim.Sim.run sim);
  let got = read_result sim d in
  let expected =
    Array.init 3 (fun r ->
        Array.init 3 (fun c ->
            let acc = ref 0 in
            for k = 0 to 2 do
              acc := !acc + abs (a.(r).(k) - b.(k).(c))
            done;
            !acc))
  in
  check_result "sad" d got expected;
  (* The SAD PE is single-cycle, so latency inference applies here too. *)
  let inferred =
    Pass.run Infer_latency.pass
      (Systolic.generate ~pe:(Systolic.sad_pe ~width:32) d)
  in
  Alcotest.(check (option int)) "sad PE static" (Some 1)
    (Attrs.static (Ir.find_component inferred "sad_pe").Ir.comp_attrs)

(* Sizes and matrix entries both derive from the Fuzz_seed program seed,
   so a failing case replays from CALYX_TEST_SEED alone. *)
let prop_random_matrices =
  QCheck.Test.make ~name:"random matrices multiply correctly" ~count:10
    (Fuzz_seed.seed_arb "systolic-matrices")
    (fun seed ->
      let st = Fuzz_seed.state_of seed in
      let n = 2 + Random.State.int st 2 in
      let d = square n in
      let a =
        Array.init n (fun _ -> Array.init n (fun _ -> Random.State.int st 256))
      in
      let b =
        Array.init n (fun _ -> Array.init n (fun _ -> Random.State.int st 256))
      in
      let ctx = Pipelines.compile (Systolic.generate d) in
      let sim = Calyx_sim.Sim.create ctx in
      load_sim sim d a b;
      ignore (Calyx_sim.Sim.run sim);
      read_result sim d = matmul a b)

(* Degenerate dimensions are rejected by name instead of escaping as an
   unrelated List.init error, and so are dimensions above the documented
   cap, which would otherwise compile for minutes or never finish. *)
let test_rejects_empty_dims () =
  List.iter
    (fun (name, d, expected) ->
      match Systolic.generate d with
      | exception Invalid_argument msg ->
          Alcotest.(check string) name expected msg
      | _ -> Alcotest.failf "%s accepted" expected)
    [
      ("rows", { (square 2) with Systolic.rows = 0 },
       "systolic array: rows must be at least 1, got 0");
      ("cols", { (square 2) with Systolic.cols = 0 },
       "systolic array: cols must be at least 1, got 0");
      ("depth", { (square 2) with Systolic.depth = 0 },
       "systolic array: depth must be at least 1, got 0");
      ("width", { (square 2) with Systolic.width = 0 },
       "systolic array: width must be at least 1, got 0");
      ("rows", { (square 1) with Systolic.rows = 100_000 },
       "systolic array: rows must be at most 32, got 100000");
      ("cols", { (square 1) with Systolic.cols = 2000 },
       "systolic array: cols must be at most 32, got 2000");
      ("depth", { (square 1) with Systolic.depth = 2000 },
       "systolic array: depth must be at most 32, got 2000");
      ("rows", { (square 1) with Systolic.rows = Systolic.max_dimension + 1 },
       "systolic array: rows must be at most 32, got 33");
    ];
  (* The cap itself is accepted. *)
  ignore
    (Systolic.generate
       { (square 1) with Systolic.rows = Systolic.max_dimension })

(* PE names join two indices; each is zero-padded to its own dimension's
   digit count, so 12x12 no longer collides ("pe_1" ^ "10" vs "pe_11" ^
   "0") and names up to 10x10 are unchanged. *)
let test_large_arrays () =
  let names d =
    List.map (fun c -> c.Ir.cell_name) (Ir.entry (Systolic.generate d)).cells
  in
  let has d n =
    Alcotest.(check bool) (n ^ " generated") true (List.mem n (names d))
  in
  has (square 10) "pe_99";
  has (square 10) "left_09";
  has (square 12) "pe_1100";
  has (square 12) "top_0011";
  has { (square 12) with Systolic.cols = 3 } "pe_110";
  let got, expected, _ = run_compiled Pipelines.default_config (square 12) in
  check_result "12x12 compiled" (square 12) got expected;
  let lowered = Pipelines.compile (Systolic.generate (square 16)) in
  Alcotest.(check int) "16x16 PEs" 256
    (List.length
       (List.filter
          (fun c -> c.Ir.cell_proto = Ir.Comp "mac_pe")
          (Ir.entry lowered).cells))

let () =
  Alcotest.run "systolic"
    [
      ( "functional",
        [
          Alcotest.test_case "2x2 interpreter" `Quick test_interp_2x2;
          Alcotest.test_case "rectangular array" `Quick test_interp_rectangular;
          Alcotest.test_case "3x3 compiled (insensitive)" `Quick
            test_compiled_insensitive;
          Alcotest.test_case "3x3 compiled (all optimizations)" `Quick
            test_compiled_static;
          Alcotest.test_case "sizes 2 and 4 agree" `Slow test_sizes_agree;
          Alcotest.test_case "SAD processing element" `Quick test_sad_pe;
          QCheck_alcotest.to_alcotest prop_random_matrices;
          Alcotest.test_case "12x12 and 16x16 arrays" `Quick test_large_arrays;
          Alcotest.test_case "rejects empty dimensions" `Quick
            test_rejects_empty_dims;
        ] );
      ( "latency",
        [
          Alcotest.test_case "static beats insensitive" `Quick
            test_static_speedup;
          Alcotest.test_case "latencies fully inferred" `Quick
            test_latency_fully_inferred;
        ] );
    ]
