(** Translation validation: run a compiled program under both the
    cycle-accurate simulator ({!Calyx_sim.Sim}) and the RTL interpreter
    ({!Vinterp}) over the emitted SystemVerilog, on identical inputs, and
    require exact agreement on the cycle count and on every architectural
    state element — the final value of every [std_reg] and the final
    contents of every memory, enumerated recursively over the lowered
    design's cell hierarchy (FSM and schedule registers included, so the
    check covers the control path as well as the data path). *)

open Calyx

type mismatch = {
  path : string;  (** Dotted cell path, or ["cycles"]. *)
  kind : [ `Cycles | `Register | `Memory ];
  sim_value : string;
  rtl_value : string;
}

type report = {
  ok : bool;
  cycles_sim : int;
  cycles_rtl : int;
  mismatches : mismatch list;
  registers_checked : int;
  memories_checked : int;
  nets : int;  (** Elaborated RTL nets. *)
  procs : int;  (** Elaborated RTL evaluation processes. *)
  sim_io : Calyx_sim.Testbench.io;  (** Post-run simulator state access. *)
  rtl_io : Calyx_sim.Testbench.io;  (** Post-run RTL state access. *)
}

val rtl_io : Vinterp.t -> Calyx_sim.Testbench.io
(** The RTL interpreter's poke/peek operations as a {!Calyx_sim.Testbench.io},
    so data loaders written against the simulator drive the RTL too. *)

val state_cells : Ir.context -> string list * string list
(** [(registers, memories)]: dotted paths of every [std_reg] and every
    memory cell reachable from the entrypoint of a lowered context. *)

val validate :
  ?engine:Calyx_sim.Sim.engine ->
  ?load:(Calyx_sim.Testbench.io -> unit) ->
  Ir.context ->
  report
(** Simulate [ctx] (which must already be lowered — see {!Verilog.emit})
    on a fresh simulator ([engine] defaults to [`Compiled]) after applying
    [load] (default: nothing), then check that run with {!against_sim}.
    Both sides run under their default 5,000,000-cycle budget.
    Raises whatever either backend raises ([Sim.Timeout], {!Vinterp.Unstable},
    ...) — a crash on one side is a validation failure the caller reports. *)

val against_sim :
  ?load:(Calyx_sim.Testbench.io -> unit) ->
  Ir.context ->
  sim:Calyx_sim.Sim.t ->
  cycles:int ->
  report
(** The comparison half of {!validate}, for a caller that has already
    simulated [ctx]: [sim] must have been built from [ctx], loaded with
    [load] and run to completion in [cycles] cycles. Emits [ctx] to
    SystemVerilog, elaborates it with {!Vinterp}, applies [load] to the
    RTL, runs it and compares it against [sim]'s final state. Traced as
    one [verilog.validate] span grouping [verilog.emit],
    [verilog.rtl_load] and [verilog.rtl_sim]; it carries the
    [mismatches] and [cycles] metrics. *)

val pp_report : Format.formatter -> report -> unit
(** A short human-readable summary (cycle counts, state-element counts,
    and every mismatch). *)
