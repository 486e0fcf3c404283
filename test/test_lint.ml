(* The semantic lint suite: one positive (diagnostic fires) and one
   negative (clean program) case per CX02x code, plus the well-formedness
   checks added alongside it (invoke output bindings, condition-port
   readability). *)

open Calyx
open Calyx.Ir
open Calyx.Builder

let lint ctx =
  Well_formed.check ctx;
  Lint.diagnostics ctx

let codes ds = List.sort_uniq compare (List.map (fun d -> d.Diagnostics.code) ds)

let check_codes msg expected ds =
  Alcotest.(check (list string)) msg expected (codes ds)

let has msg code ds =
  Alcotest.(check bool)
    (Printf.sprintf "%s: reports %s" msg code)
    true
    (List.exists (fun d -> String.equal d.Diagnostics.code code) ds)

let clean msg ds =
  Alcotest.(check (list string)) (msg ^ ": clean") [] (List.map Diagnostics.render ds)

(* A register-write group (1 derived cycle). *)
let write ?attrs name ~reg:r ~value =
  group ?attrs name
    [
      assign (port r "in") value;
      assign (port r "write_en") (bit true);
      assign (hole name "done") (pa r "done");
    ]

let main_with ?(cells = []) ?(groups = []) ?(continuous = []) control =
  context
    [
      component "main" |> with_cells cells |> with_groups groups
      |> with_continuous continuous |> with_control control;
    ]

(* ------------------------------------------------------------------ *)
(* CX020: par data races                                               *)
(* ------------------------------------------------------------------ *)

let test_par_race_write_write () =
  let ctx =
    main_with
      ~cells:[ reg "x" 8 ]
      ~groups:
        [
          write "one" ~reg:"x" ~value:(lit ~width:8 1);
          write "two" ~reg:"x" ~value:(lit ~width:8 2);
        ]
      (par [ enable "one"; enable "two" ])
  in
  has "write/write" "CX020" (lint ctx);
  Alcotest.(check bool)
    "compile rejects it" true
    (try
       ignore (Pipelines.compile ctx);
       false
     with Lint.Rejected _ -> true)

let test_par_race_comb_read () =
  (* Arm one drives the adder; arm two latches its combinational output. *)
  let ctx =
    main_with
      ~cells:[ reg "p" 8; reg "q" 8; prim "a" "std_add" [ 8 ] ]
      ~groups:
        [
          group "one"
            [
              assign (port "a" "left") (lit ~width:8 1);
              assign (port "a" "right") (lit ~width:8 2);
              assign (port "p" "in") (pa "a" "out");
              assign (port "p" "write_en") (bit true);
              assign (hole "one" "done") (pa "p" "done");
            ];
          write "two" ~reg:"q" ~value:(pa "a" "out");
        ]
      (par [ enable "one"; enable "two" ])
  in
  has "combinational read/write" "CX020" (lint ctx)

let test_par_shift_idiom_clean () =
  (* One arm writes a register another arm reads: the systolic shift
     idiom. Register outputs hold last cycle's value, so this is fine. *)
  let ctx =
    main_with
      ~cells:[ reg "x" 8; reg "y" 8 ]
      ~groups:
        [
          write "one" ~reg:"x" ~value:(lit ~width:8 1);
          write "two" ~reg:"y" ~value:(pa "x" "out");
        ]
      (par [ enable "one"; enable "two" ])
  in
  clean "register shift across arms" (lint ctx)

let test_par_disjoint_clean () =
  clean "disjoint par writes" (lint (Progs.two_writes_par ()))

(* ------------------------------------------------------------------ *)
(* CX021: combinational cycles                                         *)
(* ------------------------------------------------------------------ *)

let test_comb_cycle_continuous () =
  let ctx =
    main_with
      ~cells:[ prim "a" "std_add" [ 8 ] ]
      ~continuous:
        [
          assign (port "a" "left") (pa "a" "out");
          assign (port "a" "right") (lit ~width:8 1);
          assign (this "done") (bit true);
        ]
      Empty
  in
  has "self-feeding adder" "CX021" (lint ctx)

let test_comb_cycle_in_group () =
  (* The cycle goes through two combinational cells and only closes when
     the group's assignments join the continuous ones. *)
  let ctx =
    main_with
      ~cells:[ reg "r" 8; prim "a" "std_add" [ 8 ]; prim "b" "std_add" [ 8 ] ]
      ~continuous:[ assign (port "b" "left") (pa "a" "out") ]
      ~groups:
        [
          group "g"
            [
              assign (port "a" "left") (pa "b" "out");
              assign (port "a" "right") (lit ~width:8 1);
              assign (port "b" "right") (lit ~width:8 1);
              assign (port "r" "in") (pa "a" "out");
              assign (port "r" "write_en") (bit true);
              assign (hole "g" "done") (pa "r" "done");
            ];
        ]
      (enable "g")
  in
  let ds = lint ctx in
  has "cross-scope cycle" "CX021" ds;
  Alcotest.(check bool)
    "located in the group" true
    (List.exists
       (fun d ->
         match d.Diagnostics.loc with
         | Diagnostics.Group { group = "g"; _ } -> true
         | _ -> false)
       ds)

let test_register_breaks_cycle () =
  (* a.left = r.out; r.in = a.out — sequential feedback, not a cycle. *)
  let ctx =
    main_with
      ~cells:[ reg "r" 8; prim "a" "std_add" [ 8 ] ]
      ~groups:
        [
          group "g"
            [
              assign (port "a" "left") (pa "r" "out");
              assign (port "a" "right") (lit ~width:8 1);
              assign (port "r" "in") (pa "a" "out");
              assign (port "r" "write_en") (bit true);
              assign (hole "g" "done") (pa "r" "done");
            ];
        ]
      (enable "g")
  in
  clean "register feedback" (lint ctx)

(* ------------------------------------------------------------------ *)
(* CX022: overlapping guarded drivers                                  *)
(* ------------------------------------------------------------------ *)

let overlap_prog ?(cells = [ reg "r" 8; reg "c" 1; reg "d" 1 ]) guard1 guard2
    =
  main_with ~cells
    ~groups:
      [
        group "g"
          [
            assign ~guard:guard1 (port "r" "in") (lit ~width:8 1);
            assign ~guard:guard2 (port "r" "in") (lit ~width:8 2);
            assign (port "r" "write_en") (bit true);
            assign (hole "g" "done") (pa "r" "done");
          ];
      ]
    (enable "g")

let test_overlap_flagged () =
  (* Guards over two unrelated registers: nothing proves exclusivity. *)
  let ds = lint (overlap_prog (g_port "c" "out") (g_port "d" "out")) in
  has "unrelated guards" "CX022" ds;
  Alcotest.(check bool)
    "only a warning" true
    (Diagnostics.errors_of ds = [])

let test_overlap_with_continuous () =
  (* Conflicting drivers split across a group and a continuous
     assignment. *)
  let main =
    component "main"
    |> with_cells [ reg "r" 8; reg "c" 1 ]
    |> with_continuous [ assign (port "r" "in") (lit ~width:8 7) ]
    |> with_groups
         [
           group "g"
             [
               assign ~guard:(g_port "c" "out") (port "r" "in")
                 (lit ~width:8 1);
               assign (port "r" "write_en") (bit true);
               assign (hole "g" "done") (pa "r" "done");
             ];
         ]
    |> with_control (enable "g")
  in
  has "group vs continuous" "CX022" (lint (context [ main ]))

let one_bit_cells = [ reg "r" 8; reg "c" 1 ]

let test_complementary_guards_clean () =
  clean "g vs !g"
    (lint
       (overlap_prog ~cells:one_bit_cells (g_port "c" "out")
          (g_not (g_port "c" "out"))))

let test_distinct_constants_clean () =
  clean "x == 0 vs x == 1"
    (lint
       (overlap_prog ~cells:one_bit_cells
          (g_eq (pa "c" "out") (lit ~width:1 0))
          (g_eq (pa "c" "out") (lit ~width:1 1))))

let test_complementary_cmps_clean () =
  clean "x < y vs x >= y"
    (lint
       (overlap_prog
          (g_lt (pa "c" "out") (pa "d" "out"))
          (g_ge (pa "c" "out") (pa "d" "out"))))

(* ------------------------------------------------------------------ *)
(* CX023 / CX024: dead code                                            *)
(* ------------------------------------------------------------------ *)

let test_dead_group () =
  let ctx =
    main_with
      ~cells:[ reg "x" 8 ]
      ~groups:
        [
          write "used" ~reg:"x" ~value:(lit ~width:8 1);
          write "zombie" ~reg:"x" ~value:(lit ~width:8 2);
        ]
      (enable "used")
  in
  let ds = lint ctx in
  check_codes "dead group" [ "CX023" ] ds;
  has "dead group" "CX023" ds

let test_dead_cell () =
  let ctx =
    main_with
      ~cells:[ reg "x" 8; reg "zombie" 8 ]
      ~groups:[ write "g" ~reg:"x" ~value:(lit ~width:8 1) ]
      (enable "g")
  in
  check_codes "dead cell" [ "CX024" ] (lint ctx)

let test_external_memory_not_dead () =
  (* External memories are the design's interface: never dead. *)
  let ctx =
    main_with
      ~cells:
        [ reg "x" 8; mem_d1 ~external_:true "m" ~width:8 ~size:4 ~idx:2 ]
      ~groups:[ write "g" ~reg:"x" ~value:(lit ~width:8 1) ]
      (enable "g")
  in
  clean "external memory" (lint ctx)

(* ------------------------------------------------------------------ *)
(* CX025: latency contracts                                            *)
(* ------------------------------------------------------------------ *)

let test_latency_contract_violation () =
  let ctx =
    main_with
      ~cells:[ reg "x" 8 ]
      ~groups:
        [
          write
            ~attrs:(Attrs.with_static 3 Attrs.empty)
            "g" ~reg:"x" ~value:(lit ~width:8 1);
        ]
      (enable "g")
  in
  has "group annotated 3, derives 1" "CX025" (lint ctx)

let test_latency_annotation_correct () =
  let ctx =
    main_with
      ~cells:[ reg "x" 8 ]
      ~groups:
        [
          write
            ~attrs:(Attrs.with_static 1 Attrs.empty)
            "g" ~reg:"x" ~value:(lit ~width:8 1);
        ]
      (enable "g")
  in
  clean "correct annotation" (lint ctx)

let test_component_latency_contract () =
  let main =
    component ~attrs:(Attrs.with_static 5 Attrs.empty) "main"
    |> with_cells [ reg "x" 8 ]
    |> with_groups
         [
           write
             ~attrs:(Attrs.with_static 1 Attrs.empty)
             "one" ~reg:"x" ~value:(lit ~width:8 1);
           write
             ~attrs:(Attrs.with_static 1 Attrs.empty)
             "two" ~reg:"x" ~value:(lit ~width:8 2);
         ]
    |> with_control (seq [ enable "one"; enable "two" ])
  in
  let ds = lint (context [ main ]) in
  has "component annotated 5, control takes 2" "CX025" ds

(* ------------------------------------------------------------------ *)
(* Well-formedness companions: invoke outputs, condition ports         *)
(* ------------------------------------------------------------------ *)

let sub_component () =
  component "sub" ~inputs:[ ("x", 8) ] ~outputs:[ ("res", 8) ]
  |> with_continuous
       [ assign (this "res") (lit ~width:8 0); assign (this "done") (bit true) ]

let invoke_prog outputs =
  context
    [
      sub_component ();
      component "main"
      |> with_cells [ instance "s" "sub"; reg "r" 8 ]
      |> with_control (invoke ~outputs "s" [ ("x", lit ~width:8 1) ]);
    ]

let wf ctx = Well_formed.diagnostics ctx

let test_invoke_outputs_ok () =
  clean "valid output binding"
    (wf (invoke_prog [ ("res", port "r" "in") ]))

let test_invoke_output_unknown_port () =
  has "no such output" "CX011" (wf (invoke_prog [ ("nope", port "r" "in") ]))

let test_invoke_output_unwritable_dst () =
  has "destination not writable" "CX011"
    (wf (invoke_prog [ ("res", port "r" "out") ]))

let test_invoke_output_width_mismatch () =
  let ctx =
    context
      [
        sub_component ();
        component "main"
        |> with_cells [ instance "s" "sub"; reg "r" 4 ]
        |> with_control
             (invoke ~outputs:[ ("res", port "r" "in") ] "s"
                [ ("x", lit ~width:8 1) ]);
      ]
  in
  has "width mismatch" "CX011" (wf ctx)

let test_cond_port_not_readable () =
  let ctx =
    main_with
      ~cells:[ reg "x" 8; prim "lt" "std_lt" [ 8 ] ]
      ~groups:[ write "g" ~reg:"x" ~value:(lit ~width:8 1) ]
      (while_ (Cell_port ("lt", "left")) (enable "g"))
  in
  has "condition reads an input port" "CX010" (wf ctx)

(* Bit vectors hold 1 to 64 bits, so a primitive whose parameters size a
   port outside that range is rejected up front rather than crashing the
   simulator or the emitter. *)
let test_prim_width_out_of_range () =
  let prog width =
    Parser.parse_string
      (Printf.sprintf
         "component main(go: 1) -> (done: 1) { cells { r = std_reg(%d); } \
          wires { group g { r.write_en = 1'd1; g[done] = r.done; } } \
          control { g; } }"
         width)
  in
  has "std_reg(100)" "CX002" (wf (prog 100));
  has "std_reg(0)" "CX002" (wf (prog 0));
  clean "std_reg(64)" (wf (prog 64))

let test_signature_width_out_of_range () =
  let prog ports =
    Parser.parse_string
      (Printf.sprintf
         "component main(%s) -> (done: 1) { cells {} wires {} control {} }"
         ports)
  in
  has "input x: 100" "CX002" (wf (prog "go: 1, x: 100"));
  has "input x: 0" "CX002" (wf (prog "go: 1, x: 0"));
  clean "input x: 64" (wf (prog "go: 1, x: 64"));
  (* The CLI turns [Malformed] into exit 1; before this check the
     simulator died on the port with an uncaught [Bitvec.Width_error]. *)
  match Calyx_sim.Sim.create (Pipelines.compile (prog "go: 1, x: 100")) with
  | exception Well_formed.Malformed _ -> ()
  | _ -> Alcotest.fail "a 100-bit signature port compiled"

(* End-to-end: the corpus stays warning-free. *)
let example file =
  (* dune runtest runs in the test directory; dune exec from the root. *)
  List.find Sys.file_exists
    [ "../examples/sources/" ^ file; "examples/sources/" ^ file ]

let test_examples_clean () =
  List.iter
    (fun file ->
      let ctx = Parser.parse_file (example file) in
      clean file (lint ctx))
    [ "counter.futil"; "invoke.futil" ]

let test_systolic_clean () =
  let ctx =
    Systolic.generate { Systolic.rows = 2; cols = 2; depth = 2; width = 32 }
  in
  clean "generated systolic array" (lint ctx)

let () =
  Alcotest.run "lint"
    [
      ( "par races",
        [
          Alcotest.test_case "write/write flagged" `Quick
            test_par_race_write_write;
          Alcotest.test_case "combinational read flagged" `Quick
            test_par_race_comb_read;
          Alcotest.test_case "register shift clean" `Quick
            test_par_shift_idiom_clean;
          Alcotest.test_case "disjoint arms clean" `Quick
            test_par_disjoint_clean;
        ] );
      ( "combinational cycles",
        [
          Alcotest.test_case "continuous cycle flagged" `Quick
            test_comb_cycle_continuous;
          Alcotest.test_case "group cycle flagged" `Quick
            test_comb_cycle_in_group;
          Alcotest.test_case "register feedback clean" `Quick
            test_register_breaks_cycle;
        ] );
      ( "overlapping drivers",
        [
          Alcotest.test_case "unrelated guards flagged" `Quick
            test_overlap_flagged;
          Alcotest.test_case "group vs continuous flagged" `Quick
            test_overlap_with_continuous;
          Alcotest.test_case "complementary guards clean" `Quick
            test_complementary_guards_clean;
          Alcotest.test_case "distinct constants clean" `Quick
            test_distinct_constants_clean;
          Alcotest.test_case "complementary comparisons clean" `Quick
            test_complementary_cmps_clean;
        ] );
      ( "dead code",
        [
          Alcotest.test_case "dead group flagged" `Quick test_dead_group;
          Alcotest.test_case "dead cell flagged" `Quick test_dead_cell;
          Alcotest.test_case "external memory exempt" `Quick
            test_external_memory_not_dead;
        ] );
      ( "latency contracts",
        [
          Alcotest.test_case "wrong group annotation flagged" `Quick
            test_latency_contract_violation;
          Alcotest.test_case "correct annotation clean" `Quick
            test_latency_annotation_correct;
          Alcotest.test_case "wrong component annotation flagged" `Quick
            test_component_latency_contract;
        ] );
      ( "well-formedness",
        [
          Alcotest.test_case "invoke outputs accepted" `Quick
            test_invoke_outputs_ok;
          Alcotest.test_case "unknown output port" `Quick
            test_invoke_output_unknown_port;
          Alcotest.test_case "unwritable destination" `Quick
            test_invoke_output_unwritable_dst;
          Alcotest.test_case "output width mismatch" `Quick
            test_invoke_output_width_mismatch;
          Alcotest.test_case "unreadable condition port" `Quick
            test_cond_port_not_readable;
          Alcotest.test_case "primitive width out of range" `Quick
            test_prim_width_out_of_range;
          Alcotest.test_case "signature port width out of range" `Quick
            test_signature_width_out_of_range;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "example sources clean" `Quick
            test_examples_clean;
          Alcotest.test_case "systolic array clean" `Quick
            test_systolic_clean;
        ] );
    ]
