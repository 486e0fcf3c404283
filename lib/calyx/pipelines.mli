(** Standard pass pipelines (the command-line's [-p] aliases).

    The full compilation flow of the paper is
    {!optimize} (resource sharing, register sharing, latency inference)
    followed by {!lower} (GoInsertion, optional latency-sensitive
    compilation, CompileControl, RemoveGroups, cleanup). Every knob of the
    evaluation section maps to a flag here. *)

type config = {
  infer_latency : bool;  (** Section 5.3. *)
  resource_sharing : bool;  (** Section 5.1. *)
  register_sharing : bool;  (** Section 5.2. *)
  static_timing : bool;  (** Section 4.4, the Sensitive pass. *)
  lint : bool;
      (** Run {!Lint.check} before optimizing; error-severity lint
          diagnostics abort the compile ([--no-lint] turns this off). *)
}

val default_config : config
(** Everything on — the paper's "all optimizations" configuration. *)

val insensitive_config : config
(** Every optimization off: pure latency-insensitive compilation. Linting
    stays on. *)

val optimize : config -> Pass.t list
(** Starts with {!Compile_invoke} (always on), then the enabled
    optimizations. *)

val lower : config -> Pass.t list

val compile :
  ?config:config -> ?observe:(Pass.observation -> unit) -> Ir.context ->
  Ir.context
(** Run the whole pipeline; validates after every pass. Traced as one
    [calyx.compile] span grouping the [calyx.well_formed], [calyx.lint]
    and [calyx.pass.<name>] layer spans. [observe] receives
    one {!Pass.observation} per pass (see [Calyx_obs.Pass_stats] for a
    ready-made collector and renderers). *)

val passes : config -> Pass.t list
(** The passes {!compile} runs, in order. *)

val description : config -> string
(** The pass names {!compile} would run, joined with ["|"] — the readable
    form behind {!id}. *)

val id : config -> string
(** The pass-pipeline id: a stable 64-bit hash of {!description}, stamped
    into run manifests and intended as the cache-key component identifying
    which compiler configuration ran. *)
