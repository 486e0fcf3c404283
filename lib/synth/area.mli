(** Synthetic FPGA area model — the Vivado-synthesis substitute.

    Assigns LUT/flip-flop/DSP/BRAM costs to every primitive, to the
    multiplexers implied by multiple guarded drivers on one port, and to
    guard logic, with constants loosely calibrated to a Xilinx
    UltraScale+-style LUT6 fabric. The paper's area results are relative
    comparisons, which a uniform structural cost model preserves; absolute
    counts are explicitly out of scope (see DESIGN.md).

    Works on both structured and lowered programs, so the ablation
    experiments (Figure 9) can compare pass configurations at the same
    pipeline stage. *)

open Calyx

type usage = {
  luts : int;
  registers : int;  (** flip-flop bits *)
  register_cells : int;  (** number of [std_reg] cells (Figure 9b) *)
  dsps : int;
  brams : int;
}

val zero : usage
val add : usage -> usage -> usage

val primitive_usage : string -> int list -> usage
(** Cost of one primitive instance. Unknown primitives cost {!zero}. *)

val component_usage : Ir.context -> Ir.component -> usage
(** Full cost of a component, including instantiated sub-components,
    multiplexing, and guard logic. *)

val context_usage : Ir.context -> usage
(** {!component_usage} of the entrypoint, in one [synth.area] telemetry
    span. *)

val pp : Format.formatter -> usage -> unit
