(* Hierarchical spans: one trace context for a whole toolchain run.

   A span is opened and closed around each toolchain layer (frontend,
   well-formedness, lint, each pass, sim instantiate/run, emit, RTL
   load/sim, timing, area) and records wall time from
   the shared Clock plus GC deltas from Gc.quick_stat — minor and major
   words allocated and the major-heap size change. Spans nest through an
   explicit stack; completed spans are optionally buffered (for Chrome
   trace export) and always handed to the [on_close] hook, which is how
   Manifest streams one JSONL event per stage without any plumbing through
   the compiler's APIs.

   Self time is computed here and nowhere else: a closing span adds its
   duration to its parent, the span below it on the same stack.

   Domain safety (the compile farm runs pipelines on worker domains): span
   ids and sequence numbers are atomics, the open-span stack is
   domain-local state (each domain nests its own spans), and the completed
   buffer plus the [on_close] hook are serialized by a mutex — so spans
   traced on N worker domains merge into the one process-wide trace as
   they close, each with its parent links intact within its own domain. *)

type arg = F of float | S of string

type span = {
  sp_id : int;
  sp_parent : int;  (* -1 for roots *)
  sp_name : string;
  sp_cat : string;
  sp_start_ns : float;
  mutable sp_end_ns : float;
  mutable sp_minor_words : float;
  mutable sp_major_words : float;
  mutable sp_heap_delta_words : int;
  mutable sp_child_ns : float;  (* summed duration of closed children *)
  mutable sp_args : (string * arg) list;  (* reversed attachment order *)
  sp_seq : int;  (* global open order *)
  mutable sp_seq_close : int;
}

let next_id = Atomic.make 0
let next_seq = Atomic.make 0

(* Each domain nests its own spans: the open stack is domain-local, so a
   pipeline running on a farm worker cannot corrupt another worker's
   nesting. *)
let stack_key : span list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let stack () = Domain.DLS.get stack_key

(* The shared close-side state: the Chrome-trace buffer and the on_close
   hook (the Manifest bridge). Serialized so spans closing on different
   domains merge without tearing. *)
let close_mutex = Mutex.create ()
let completed : span list ref = ref []  (* reversed close order *)
let keep = ref false
let on_close : (span -> unit) ref = ref ignore

let set_keep b = keep := b
let set_on_close f = on_close := f
let clear_on_close () = on_close := ignore

let reset () =
  Atomic.set next_id 0;
  Atomic.set next_seq 0;
  stack () := [];
  Mutex.lock close_mutex;
  completed := [];
  Mutex.unlock close_mutex

let seconds sp = (sp.sp_end_ns -. sp.sp_start_ns) /. 1e9
let self_seconds sp = (sp.sp_end_ns -. sp.sp_start_ns -. sp.sp_child_ns) /. 1e9

let spans () =
  Mutex.lock close_mutex;
  let all = !completed in
  Mutex.unlock close_mutex;
  List.sort (fun a b -> compare a.sp_seq b.sp_seq) all

let add_arg key v =
  if Runtime.on () then
    match !(stack ()) with
    | [] -> ()
    | sp :: _ -> sp.sp_args <- (key, v) :: sp.sp_args

let add_metric key f = add_arg key (F f)
let add_tag key s = add_arg key (S s)

let args sp = List.rev sp.sp_args

let find_arg sp key = List.assoc_opt key (args sp)

let metrics sp =
  List.filter_map
    (fun (k, v) -> match v with F f -> Some (k, f) | S _ -> None)
    (args sp)

let with_span ?(cat = "span") name f =
  if not (Runtime.on ()) then f ()
  else begin
    let g0 = Gc.quick_stat () in
    let stack = stack () in
    let parent = match !stack with [] -> -1 | p :: _ -> p.sp_id in
    let id = Atomic.fetch_and_add next_id 1 in
    let seq = Atomic.fetch_and_add next_seq 1 in
    let sp =
      {
        sp_id = id;
        sp_parent = parent;
        sp_name = name;
        sp_cat = cat;
        sp_start_ns = Clock.now_ns ();
        sp_end_ns = 0.;
        sp_minor_words = 0.;
        sp_major_words = 0.;
        sp_heap_delta_words = 0;
        sp_child_ns = 0.;
        sp_args = [];
        sp_seq = seq;
        sp_seq_close = seq;
      }
    in
    stack := sp :: !stack;
    let finish () =
      sp.sp_end_ns <- Clock.now_ns ();
      let g1 = Gc.quick_stat () in
      sp.sp_minor_words <- g1.Gc.minor_words -. g0.Gc.minor_words;
      sp.sp_major_words <- g1.Gc.major_words -. g0.Gc.major_words;
      sp.sp_heap_delta_words <- g1.Gc.heap_words - g0.Gc.heap_words;
      sp.sp_seq_close <- Atomic.fetch_and_add next_seq 1;
      (* Pop this span — and, defensively, anything an exception left
         above it. *)
      let rec pop = function
        | s :: rest when s != sp -> pop rest
        | s :: rest when s == sp -> rest
        | l -> l
      in
      stack := pop !stack;
      (match !stack with
      | parent :: _ ->
          parent.sp_child_ns <-
            parent.sp_child_ns +. (sp.sp_end_ns -. sp.sp_start_ns)
      | [] -> ());
      (* Merge into the shared buffer and stream to the manifest under
         one lock: concurrent closes on worker domains serialize here. *)
      Mutex.lock close_mutex;
      if !keep then completed := sp :: !completed;
      let hook = !on_close in
      Mutex.unlock close_mutex;
      hook sp
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        sp.sp_args <- ("error", S (Printexc.to_string e)) :: sp.sp_args;
        finish ();
        raise e
  end

(* ------------------------------------------------------------------ *)
(* Chrome trace_event export                                           *)
(* ------------------------------------------------------------------ *)

let arg_json = function F f -> Json.float f | S s -> Json.str s

(* One complete event per span, on a single thread (the pipeline is one
   thread of work). [scrub] replaces wall-clock timestamps with the
   deterministic open/close sequence numbers and drops the GC and error
   args — the form committed as a golden test, which pins the span
   *structure* (names, categories, nesting, deterministic metrics like
   cycle counts) without the run-to-run timing noise. *)
let to_chrome ?(scrub = false) () =
  let event sp =
    let ts, dur =
      if scrub then
        (float_of_int sp.sp_seq, float_of_int (sp.sp_seq_close - sp.sp_seq))
      else (sp.sp_start_ns /. 1e3, (sp.sp_end_ns -. sp.sp_start_ns) /. 1e3)
    in
    let args =
      if scrub then List.filter (fun (k, _) -> k <> "error") (args sp)
      else
        args sp
        @ [
            ("gc_minor_words", F sp.sp_minor_words);
            ("gc_major_words", F sp.sp_major_words);
            ("gc_heap_delta_words", F (float_of_int sp.sp_heap_delta_words));
          ]
    in
    {
      Trace_event.name = sp.sp_name;
      cat = sp.sp_cat;
      tid = 1;
      ts;
      dur;
      args = List.map (fun (k, v) -> (k, arg_json v)) args;
    }
  in
  Trace_event.to_json
    [ Trace_event.Process "calyx toolchain" ]
    (List.map event (spans ()))
