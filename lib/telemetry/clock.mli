(** The single monotonic clock behind every wall-time measurement in the
    toolchain (pass observations, spans, the bench harness, [calyx stats]).
    Readings never decrease and are relative to process start. *)

val now_ns : unit -> float
(** Monotonic nanoseconds since process start. *)

val timed : (unit -> 'a) -> 'a * float
(** Run [f], returning its result and its duration in seconds. *)
