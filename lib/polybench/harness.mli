(** The kernel-specific half of a PolyBench run: the kernel's Calyx
    program, its deterministic inputs and its golden check.

    Compiling, simulating, validating and timing a kernel is
    [Calyx_farm.Job.run] on a [Polybench] job; this module supplies the
    data that job loads and checks. *)

val program : Kernels.kernel -> unrolled:bool -> Dahlia.Ast.prog
(** Parse the (possibly unrolled) source. Raises [Invalid_argument] when
    [unrolled] is requested but the kernel has no unrolled variant. *)

val build : Kernels.kernel -> unrolled:bool -> Calyx.Ir.context
(** The structured Calyx program (before the compilation pipeline). *)

val load_inputs : Kernels.kernel -> Dahlia.Ast.prog -> Calyx_sim.Testbench.io -> unit
(** Load the kernel's deterministic inputs through the bank-aware loader.
    Works on any {!Calyx_sim.Testbench.io}, so the same data drives the
    simulator and the RTL interpreter. *)

val verify : Kernels.kernel -> Dahlia.Ast.prog -> Calyx_sim.Testbench.io -> string list
(** Check every output memory against the golden reference; returns the
    names of those that differ. *)

val execute :
  ?engine:Calyx_sim.Sim.engine ->
  Kernels.kernel ->
  Dahlia.Ast.prog ->
  Calyx.Ir.context ->
  int * string list
(** Simulate [ctx] (structured or compiled): load the kernel's inputs,
    run to completion, verify outputs. Returns the cycle count and the
    names of mismatching output memories. [engine] defaults to
    [`Compiled]. *)
