(** The one Chrome [trace_event] JSON writer (open the file at
    ui.perfetto.dev): {!Trace.to_chrome} writes toolchain spans through
    it, [Calyx_cover.Spans.to_chrome] simulated control spans. *)

type meta = Process of string | Thread of int * string
(** A ["process_name"] (pid 1, tid 1) or ["thread_name"] metadata event. *)

type event = {
  name : string;
  cat : string;
  tid : int;
  ts : float;  (** Start, in µs; integral values print as integers. *)
  dur : float;  (** In µs. *)
  args : (string * string) list;  (** Pre-serialized {!Json} values. *)
}

val to_json : meta list -> event list -> string
(** The metadata events, then one complete (["X"]) event per element, in
    order, all on pid 1. *)
