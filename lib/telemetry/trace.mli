(** Hierarchical pipeline spans with wall-time and GC attribution.

    One trace context covers a full toolchain run. Each layer (frontend,
    well-formedness, lint, each pass, sim instantiate/run, emit, RTL
    load/sim, timing, area) opens exactly one span via {!with_span}, and no
    caller wraps a layer in another (DESIGN.md lists the names). A span
    records wall time from the shared {!Clock} and, per [Gc.quick_stat],
    the minor and major words allocated inside it and the major-heap size
    delta. Nesting is tracked with an explicit stack; a closing span adds
    its duration to its parent's, so {!self_seconds} is computed here
    once and the self times of a tree sum to its root's duration.

    With telemetry disabled ({!Runtime.on} [= false]) [with_span] calls
    its thunk directly — one branch of overhead. Completed spans are
    buffered only when {!set_keep} asked for them (Chrome export); they
    are always passed to the {!set_on_close} hook, which {!Manifest} uses
    to stream per-stage JSONL events. *)

type arg = F of float | S of string

type span = {
  sp_id : int;
  sp_parent : int;  (** id of the enclosing span, [-1] for roots. *)
  sp_name : string;
  sp_cat : string;  (** ["stage"], ["pass"], or a site-specific label. *)
  sp_start_ns : float;
  mutable sp_end_ns : float;
  mutable sp_minor_words : float;
  mutable sp_major_words : float;
  mutable sp_heap_delta_words : int;
  mutable sp_child_ns : float;  (** Summed duration of closed children. *)
  mutable sp_args : (string * arg) list;
  sp_seq : int;  (** Global open order. *)
  mutable sp_seq_close : int;  (** Global close order. *)
}

val with_span : ?cat:string -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a new span. The span is closed (and reported)
    even when the thunk raises; the exception is recorded as an ["error"]
    arg and re-raised. *)

val add_metric : string -> float -> unit
(** Attach a numeric result (cycle count, LUTs, ...) to the innermost open
    span. No-op when telemetry is off or no span is open. *)

val add_tag : string -> string -> unit
(** Attach a string attribute (engine name, file, ...) likewise. *)

val seconds : span -> float

val self_seconds : span -> float
(** {!seconds} minus the time spent in child spans. *)

val args : span -> (string * arg) list
val find_arg : span -> string -> arg option

val metrics : span -> (string * float) list
(** The numeric args only. *)

val set_keep : bool -> unit
(** Whether completed spans are buffered for {!spans}/{!to_chrome}
    (default false — steady-state span emission stays O(1) memory). *)

val spans : unit -> span list
(** Buffered completed spans in open order. *)

val set_on_close : (span -> unit) -> unit
val clear_on_close : unit -> unit

val reset : unit -> unit
(** Drop buffered and open spans and restart ids (tests, golden gen). *)

val to_chrome : ?scrub:bool -> unit -> string
(** The buffered spans as Chrome JSON, through {!Trace_event}. [scrub]
    substitutes deterministic sequence numbers for wall-clock timestamps
    and drops GC/error args, producing byte-stable output for golden
    tests. *)
