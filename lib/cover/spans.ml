open Calyx
module Sim = Calyx_sim.Sim
module Json = Calyx_telemetry.Json
module Trace_event = Calyx_telemetry.Trace_event

type span = {
  sp_thread : string;
  sp_name : string;
  sp_path : string;
  sp_node : int;  (* preorder id; -1 for fsm-derived spans *)
  sp_enter : int;
  sp_exit : int;  (* inclusive: duration = exit - enter + 1 *)
}

type fsm_track = {
  ft_thread : string;
  ft_cell : string;
  ft_slot : int;
  mutable ft_since : (int * int) option;  (* current value, first cycle *)
}

type t = {
  labels : (string * int, string * string) Hashtbl.t;
      (* (instance, node) -> (control path, label) *)
  open_nodes : (string * int, int) Hashtbl.t;  (* -> enter cycle *)
  mutable closed : span list;  (* reverse completion order *)
  mutable last_cycle : int;  (* last observed cycle, -1 before any *)
  fsms : fsm_track list;
}

let thread_of inst cell = if inst = "" then cell else inst ^ "." ^ cell

let node_span t inst node ~enter ~exit =
  let path, label =
    try Hashtbl.find t.labels (inst, node)
    with Not_found -> ("?", Printf.sprintf "node %d" node)
  in
  {
    sp_thread = inst;
    sp_name = label;
    sp_path = path;
    sp_node = node;
    sp_enter = enter;
    sp_exit = exit;
  }

let ctrl_sink t (ce : Sim.ctrl_event) =
  t.last_cycle <- max t.last_cycle ce.Sim.ce_cycle;
  let key = (ce.Sim.ce_instance, ce.Sim.ce_node) in
  match ce.Sim.ce_phase with
  | Sim.Ctrl_enter -> Hashtbl.replace t.open_nodes key ce.Sim.ce_cycle
  | Sim.Ctrl_exit ->
      let enter =
        match Hashtbl.find_opt t.open_nodes key with
        | Some c -> c
        | None -> ce.Sim.ce_cycle
      in
      Hashtbl.remove t.open_nodes key;
      (* A zero-work node (e.g. an empty seq reached mid-run) exits at the
         edge before its stamped enter cycle; clamp to a 1-cycle span. *)
      t.closed <-
        node_span t ce.Sim.ce_instance ce.Sim.ce_node ~enter
          ~exit:(max ce.Sim.ce_cycle enter)
        :: t.closed
  | Sim.Ctrl_branch _ -> ()

let value_sink t (ev : Sim.event) =
  t.last_cycle <- max t.last_cycle ev.Sim.ev_cycle;
  List.iter
    (fun ft ->
      let v = Bitvec.to_int ev.Sim.ev_values.(ft.ft_slot) in
      match ft.ft_since with
      | Some (prev, _) when prev = v -> ()
      | Some (prev, since) ->
          t.closed <-
            {
              sp_thread = ft.ft_thread;
              sp_name = Printf.sprintf "%s=%d" ft.ft_cell prev;
              sp_path = ft.ft_cell;
              sp_node = -1;
              sp_enter = since;
              sp_exit = ev.Sim.ev_cycle - 1;
            }
            :: t.closed;
          ft.ft_since <- Some (v, ev.Sim.ev_cycle)
      | None -> ft.ft_since <- Some (v, ev.Sim.ev_cycle))
    t.fsms

let create ctx sim =
  let labels = Hashtbl.create 32 in
  List.iter
    (fun (inst, comp_name) ->
      match Ir.find_component_opt ctx comp_name with
      | None -> ()
      | Some comp ->
          List.iter
            (fun (id, path, node) ->
              Hashtbl.replace labels (inst, id)
                (path, Ir.control_node_label node))
            (Ir.control_preorder comp.Ir.control))
    (Sim.instances sim);
  let t =
    {
      labels;
      open_nodes = Hashtbl.create 16;
      closed = [];
      last_cycle = -1;
      fsms = [];
    }
  in
  Sim.add_ctrl_sink sim (ctrl_sink t);
  Sim.add_sink sim (fun ev -> t.last_cycle <- max t.last_cycle ev.Sim.ev_cycle);
  t

let create_fsm ctx sim =
  let t =
    {
      labels = Hashtbl.create 1;
      open_nodes = Hashtbl.create 1;
      closed = [];
      last_cycle = -1;
      fsms =
        List.map
          (fun (inst, cell, slot) ->
            {
              ft_thread = thread_of inst cell;
              ft_cell = cell;
              ft_slot = slot;
              ft_since = None;
            })
          (Coverage.fsm_registers ctx sim);
    }
  in
  Sim.add_sink sim (value_sink t);
  t

(* Residual spans (still open at the last observed cycle — a timed-out run,
   or fsm values held through the final cycle) are closed at export time so
   partial traces stay loadable. *)
let spans t =
  let residual =
    Hashtbl.fold
      (fun (inst, node) enter acc ->
        if t.last_cycle < enter then acc
        else node_span t inst node ~enter ~exit:t.last_cycle :: acc)
      t.open_nodes []
  in
  let fsm_residual =
    List.filter_map
      (fun ft ->
        match ft.ft_since with
        | Some (v, since) when t.last_cycle >= since ->
            Some
              {
                sp_thread = ft.ft_thread;
                sp_name = Printf.sprintf "%s=%d" ft.ft_cell v;
                sp_path = ft.ft_cell;
                sp_node = -1;
                sp_enter = since;
                sp_exit = t.last_cycle;
              }
        | _ -> None)
      t.fsms
  in
  List.rev_append t.closed (residual @ fsm_residual)

(* ------------------------------------------------------------------ *)
(* Chrome trace_event export, through the toolchain's shared writer    *)
(* ------------------------------------------------------------------ *)

let thread_display name = if name = "" then "<entry>" else name

let to_chrome t =
  let all = spans t in
  let threads =
    List.mapi
      (fun i th -> (th, i + 1))
      (List.sort_uniq compare (List.map (fun s -> s.sp_thread) all))
  in
  let tid th = List.assoc th threads in
  (* One complete ("X") event per span; 1 cycle = 1 µs. Sorted so nesting
     renders correctly: by thread, then start time, longest span first. *)
  let ordered =
    List.sort
      (fun a b ->
        match compare (tid a.sp_thread) (tid b.sp_thread) with
        | 0 -> (
            match compare a.sp_enter b.sp_enter with
            | 0 -> (
                let dur s = s.sp_exit - s.sp_enter in
                match compare (dur b) (dur a) with
                | 0 -> compare a.sp_node b.sp_node
                | c -> c)
            | c -> c)
        | c -> c)
      all
  in
  let event s =
    {
      Trace_event.name = s.sp_name;
      cat = (if s.sp_node >= 0 then "control" else "fsm");
      tid = tid s.sp_thread;
      ts = float_of_int s.sp_enter;
      dur = float_of_int (s.sp_exit - s.sp_enter + 1);
      args =
        ("path", Json.str s.sp_path)
        :: (if s.sp_node >= 0 then [ ("node", Json.int s.sp_node) ] else []);
    }
  in
  Trace_event.to_json
    (List.map (fun (th, i) -> Trace_event.Thread (i, thread_display th))
       threads)
    (List.map event ordered)
