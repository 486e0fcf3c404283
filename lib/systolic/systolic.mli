(** The systolic array generator (Section 6.1, Figures 5 and 6).

    Generates an output-stationary systolic array as a Calyx program: a
    [rows]×[cols] grid of processing elements computing
    [C = A·B] for [A : rows×depth] and [B : depth×cols]. Data moves
    left-to-right and top-to-bottom through per-PE input registers while
    PEs on the active anti-diagonals compute, following the wave schedule
    of Figure 6; results are drained into an output memory afterwards.

    The generator is PE-parametric: any component with the
    [(top, left, go) -> (out, done)] signature can serve as the processing
    element; {!matmul_pe} is the multiply–accumulate PE used in the paper's
    evaluation. No ["static"] attributes are emitted — the paper's point is
    that {!Calyx.Infer_latency} recovers all of them (Section 6.1,
    "Inferring latencies"). *)

open Calyx

type dims = {
  rows : int;
  cols : int;
  depth : int;  (** The shared dimension [K]. *)
  width : int;  (** Data width in bits. *)
}

val matmul_pe : width:int -> Ir.component
(** The multiply–accumulate PE: [acc += left * top] per activation, using
    the 4-cycle pipelined multiplier. Named ["mac_pe"]. *)

val sad_pe : width:int -> Ir.component
(** A sum-of-absolute-differences PE ([acc += |left - top|], one cycle per
    activation), demonstrating PE-parametricity. Named ["sad_pe"]. *)

val max_dimension : int
(** The largest accepted [rows], [cols] and [depth]: 32, which compiles in
    seconds (compile time grows with the array's volume). *)

val generate : ?pe:Ir.component -> dims -> Ir.context
(** The full program; the entrypoint is ["main"]. [pe] defaults to
    {!matmul_pe} at the array's width. Raises [Invalid_argument], naming
    the parameter, if any dimension or the width is below 1, or if
    [rows], [cols] or [depth] exceeds {!max_dimension}. *)

(** {1 Test-bench interface (external memory names)} *)

val left_memory : int -> string
(** [left_memory r] holds row [r] of A ([depth] elements). *)

val top_memory : int -> string
(** [top_memory c] holds column [c] of B. *)

val out_memory : string
(** The [rows]×[cols] result memory (row-major). *)

val steps : dims -> int
(** Number of wave steps in the schedule. *)
