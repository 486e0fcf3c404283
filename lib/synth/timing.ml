open Calyx
open Calyx.Ir
module Json = Calyx_telemetry.Json

type path = {
  p_start : string;
  p_end : string;
  p_delay_ps : int;
  p_levels : int;
  p_ports : string list;
}

type report = {
  levels : int;
  critical : string list;
  delay_ps : int;
  fmax_mhz : float;
  paths : path list;
}

exception Combinational_loop of string

(* ------------------------------------------------------------------ *)
(* Delay model (picoseconds)                                           *)
(* ------------------------------------------------------------------ *)

(* Calibrated alongside Area's LUT6 constants: relative, not absolute.
   The table is mirrored in DESIGN.md. *)
let t_lut = 450 (* one LUT6 level including local routing *)
let t_carry = 120 (* one carry-lookahead stage (log-depth adder model) *)
let t_dsp = 2900 (* DSP48 combinational multiply *)
let t_dsp_cascade = 700 (* each further DSP block of a wide multiply *)
let t_mem = 1200 (* LUTRAM/BRAM asynchronous read *)
let t_mem_addr = 60 (* address decode, per address bit *)
let t_clk_q = 150 (* register clock-to-Q *)
let t_setup = 100 (* register setup *)
let min_period_ps = 1000 (* fabric floor: 1 GHz *)

let delay_constants =
  [
    ("t_lut", t_lut);
    ("t_carry", t_carry);
    ("t_dsp", t_dsp);
    ("t_dsp_cascade", t_dsp_cascade);
    ("t_mem", t_mem);
    ("t_mem_addr", t_mem_addr);
    ("t_clk_q", t_clk_q);
    ("t_setup", t_setup);
    ("min_period_ps", min_period_ps);
  ]

let cdiv a b = (a + b - 1) / b

let clog2 n =
  let rec go bits cap = if cap >= n then bits else go (bits + 1) (cap * 2) in
  go 1 2

(* Levels of a 6-ary LUT reduction tree over [n] inputs. *)
let lut_tree_depth n =
  let rec go levels m = if m <= 1 then levels else go (levels + 1) (cdiv m 6) in
  go 0 n

let adder_ps w = t_lut + (t_carry * clog2 (max 2 w))
let eq_ps w = t_lut * (1 + lut_tree_depth (cdiv (max 1 w) 3))
let shift_ps w = t_lut * clog2 (max 2 w)
let mult_ps w = t_dsp + (t_dsp_cascade * (cdiv (max 1 w) 18 - 1))
let mem_ps size = t_mem + (t_mem_addr * clog2 (max 2 size))
let reduce_ps w = if w <= 1 then 0 else t_lut * lut_tree_depth w

(* A k:1 mux tree packs roughly 4 ways per LUT6 level. *)
let mux_ps drivers =
  if drivers <= 1 then 0
  else
    let rec go levels m = if m <= 1 then levels else go (levels + 1) (cdiv m 4) in
    t_lut * go 0 drivers

(* Exact input->output combinational arcs of a primitive:
   [(in, out, ps, levels)]. Sequential primitives expose only their
   genuinely combinational arcs (a memory's asynchronous read); a
   register's [write_en] or [in] never reaches [out]. *)
let prim_arcs name params =
  let w = match params with w :: _ -> w | [] -> 1 in
  let binop ps lv = [ ("left", "out", ps, lv); ("right", "out", ps, lv) ] in
  match name with
  | "std_add" | "std_sub" -> binop (adder_ps w) 1
  | "std_lt" | "std_gt" | "std_le" | "std_ge" -> binop (adder_ps w) 1
  | "std_eq" | "std_neq" -> binop (eq_ps w) 1
  | "std_and" | "std_or" | "std_xor" -> binop t_lut 1
  | "std_not" -> [ ("in", "out", t_lut, 1) ]
  | "std_lsh" | "std_rsh" -> binop (shift_ps w) 2
  | "std_mult" -> binop (mult_ps w) 3
  | "std_wire" | "std_slice" | "std_pad" -> [ ("in", "out", 0, 0) ]
  | "std_const" -> []
  | "std_reg" | "std_mult_pipe" | "std_div_pipe" | "std_sqrt" -> []
  | "std_mem_d1" ->
      let size = match params with [ _; s; _ ] -> s | _ -> 1 in
      [ ("addr0", "read_data", mem_ps size, 1) ]
  | "std_mem_d2" ->
      let size = match params with [ _; d0; d1; _; _ ] -> d0 * d1 | _ -> 1 in
      [
        ("addr0", "read_data", mem_ps size, 1);
        ("addr1", "read_data", mem_ps size, 1);
      ]
  | name ->
      (* Unknown combinational primitive: conservative full bipartite. *)
      let info = Prims.info name in
      if not info.Prims.combinational then []
      else
        let ports = info.Prims.make_ports params in
        List.concat_map
          (fun (i : Prims.prim_port) ->
            if i.Prims.pp_dir <> Prims.In then []
            else
              List.filter_map
                (fun (o : Prims.prim_port) ->
                  if o.Prims.pp_dir = Prims.Out then
                    Some (i.Prims.pp_name, o.Prims.pp_name, t_lut, 1)
                  else None)
                ports)
          ports

(* Guard logic depth feeding a mux select: atoms pay an OR-reduction to
   one bit, comparisons pay their operator, each connective a LUT level
   (negation folds into the LUT). *)
let rec guard_ps ctx comp = function
  | True -> 0
  | Atom a -> reduce_ps (atom_width ctx comp a)
  | Cmp (op, a, b) ->
      let w = max (atom_width ctx comp a) (atom_width ctx comp b) in
      (match op with Eq | Neq -> eq_ps w | Lt | Gt | Le | Ge -> adder_ps w)
  | And (g1, g2) | Or (g1, g2) ->
      t_lut + max (guard_ps ctx comp g1) (guard_ps ctx comp g2)
  | Not g -> guard_ps ctx comp g

(* ------------------------------------------------------------------ *)
(* The flattened port graph                                            *)
(* ------------------------------------------------------------------ *)

type node = {
  mutable n_edges : (string * int * int) list; (* dst, ps, levels *)
  mutable n_source : int option; (* launch offset (clock-to-Q) *)
  mutable n_setup : int; (* capture cost when a path ends here *)
  mutable n_driven : bool;
}

type graph = (string, node) Hashtbl.t

let node (g : graph) name =
  match Hashtbl.find_opt g name with
  | Some n -> n
  | None ->
      let n = { n_edges = []; n_source = None; n_setup = 0; n_driven = false } in
      Hashtbl.replace g name n;
      n

let join prefix name = if prefix = "" then name else prefix ^ "." ^ name

(* Components are flattened under their dotted instance prefix, so a child
   instance [c]'s signature port [p] and the parent's [c.p] cell port are
   the same node — hierarchical binding falls out of the naming. *)
let rec add_component (g : graph) ctx ~prefix ~top comp =
  let name_of = function
    | Cell_port (c, p) -> join prefix (c ^ "." ^ p)
    | This p -> join prefix p
    | Hole (grp, h) -> join prefix (grp ^ "[" ^ h ^ "]")
  in
  let edge src dst ps lv =
    let s = node g src in
    s.n_edges <- (dst, ps, lv) :: s.n_edges;
    (node g dst).n_driven <- true
  in
  (* Interface ports of the analysis root launch and capture paths. *)
  if top then begin
    List.iter
      (fun (p : port_def) -> (node g (name_of (This p.pd_name))).n_source <- Some 0)
      comp.inputs;
    List.iter
      (fun (p : port_def) -> ignore (node g (name_of (This p.pd_name))))
      comp.outputs
  end;
  (* Group go holes are FSM-driven once compiled: they launch paths. *)
  List.iter
    (fun grp ->
      (node g (name_of (Hole (grp.group_name, "go")))).n_source <- Some t_clk_q)
    comp.groups;
  (* Assignments: data rides the destination's mux tree, guard reads
     additionally pay the guard logic into the mux select. *)
  let assigns = all_assignments comp in
  let drivers = Hashtbl.create 64 in
  List.iter
    (fun a ->
      let d = name_of a.dst in
      Hashtbl.replace drivers d
        (1 + Option.value ~default:0 (Hashtbl.find_opt drivers d)))
    assigns;
  List.iter
    (fun a ->
      let dst = name_of a.dst in
      (node g dst).n_driven <- true;
      let mux = mux_ps (Option.value ~default:1 (Hashtbl.find_opt drivers dst)) in
      (match a.src with
      | Port p -> edge (name_of p) dst mux 1
      | Lit _ -> ());
      match a.guard with
      | True -> ()
      | guard ->
          let gps = guard_ps ctx comp guard + mux in
          List.iter
            (fun atom ->
              match atom with
              | Port p -> edge (name_of p) dst gps 1
              | Lit _ -> ())
            (guard_atoms guard))
    assigns;
  (* Cells: primitives contribute their exact arcs and launch/capture
     points; sub-components are flattened in place. *)
  List.iter
    (fun c ->
      match c.cell_proto with
      | Prim (name, params) ->
          let info = Prims.info name in
          let ports = info.Prims.make_ports params in
          let pname p = join prefix (c.cell_name ^ "." ^ p) in
          if info.Prims.stateful then
            List.iter
              (fun (p : Prims.prim_port) ->
                match p.Prims.pp_dir with
                | Prims.Out -> (node g (pname p.Prims.pp_name)).n_source <- Some t_clk_q
                | Prims.In -> (node g (pname p.Prims.pp_name)).n_setup <- t_setup)
              ports;
          if name = "std_const" then
            (node g (pname "out")).n_source <- Some 0;
          List.iter
            (fun (i, o, ps, lv) -> edge (pname i) (pname o) ps lv)
            (prim_arcs name params)
      | Comp cname -> (
          let child = find_component ctx cname in
          let cprefix = join prefix c.cell_name in
          match child.is_extern with
          | Some _ ->
              (* Black box: its outputs launch, its inputs capture. *)
              List.iter
                (fun (p : port_def) ->
                  let n = node g (join cprefix p.pd_name) in
                  match p.pd_dir with
                  | Output -> n.n_source <- Some t_clk_q
                  | Input -> n.n_setup <- t_setup)
                (signature_ports child)
          | None -> add_component g ctx ~prefix:cprefix ~top:false child))
    comp.cells

let build ctx comp =
  let g : graph = Hashtbl.create 256 in
  add_component g ctx ~prefix:"" ~top:true comp;
  g

(* ------------------------------------------------------------------ *)
(* Longest paths                                                       *)
(* ------------------------------------------------------------------ *)

(* Memoized DFS: for each node, the worst (ps, levels, chain) of any path
   continuing downstream from it, maximizing picoseconds (levels break
   ties). The chain excludes the node itself. A path may always terminate
   in place, paying the node's setup cost. *)
let longest_from (g : graph) =
  let memo : (string, int * int * string list) Hashtbl.t = Hashtbl.create 256 in
  let visiting : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let rec down name =
    match Hashtbl.find_opt memo name with
    | Some r -> r
    | None ->
        if Hashtbl.mem visiting name then raise (Combinational_loop name);
        Hashtbl.replace visiting name ();
        let info = node g name in
        let best =
          List.fold_left
            (fun (bps, blv, bchain) (dst, ps, lv) ->
              let dps, dlv, dchain = down dst in
              let cps = ps + dps and clv = lv + dlv in
              if cps > bps || (cps = bps && clv > blv) then
                (cps, clv, dst :: dchain)
              else (bps, blv, bchain))
            (info.n_setup, 0, [])
            info.n_edges
        in
        Hashtbl.remove visiting name;
        Hashtbl.replace memo name best;
        best
  in
  down

(* Separate maximization of logic levels (the legacy [levels] measure
   counts the deepest path by levels, which need not be the slowest). *)
let deepest_from (g : graph) =
  let memo : (string, int) Hashtbl.t = Hashtbl.create 256 in
  let visiting : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let rec down name =
    match Hashtbl.find_opt memo name with
    | Some r -> r
    | None ->
        if Hashtbl.mem visiting name then raise (Combinational_loop name);
        Hashtbl.replace visiting name ();
        let best =
          List.fold_left
            (fun b (dst, _, lv) -> max b (lv + down dst))
            0 (node g name).n_edges
        in
        Hashtbl.remove visiting name;
        Hashtbl.replace memo name best;
        best
  in
  down

let fmax_of_ps ps = 1e6 /. float_of_int (max ps min_period_ps)

let component_timing ?(paths = 5) ctx comp =
  let g = build ctx comp in
  let down = longest_from g in
  let deep = deepest_from g in
  (* Paths launch at declared sources (register outputs, constants, the
     root's inputs, go holes) and at any undriven port. *)
  let starts =
    Hashtbl.fold
      (fun name n acc ->
        match n.n_source with
        | Some offset -> (name, offset) :: acc
        | None -> if n.n_driven then acc else (name, 0) :: acc)
      g []
  in
  let candidates =
    List.map
      (fun (name, offset) ->
        let ps, lv, chain = down name in
        let ports = name :: chain in
        {
          p_start = name;
          p_end = List.nth ports (List.length ports - 1);
          p_delay_ps = offset + ps;
          p_levels = lv;
          p_ports = ports;
        })
      starts
    |> List.sort (fun a b ->
           match compare b.p_delay_ps a.p_delay_ps with
           | 0 -> compare (a.p_start, a.p_end) (b.p_start, b.p_end)
           | c -> c)
  in
  (* A source with no combinational fanout is not a path; drop the
     degenerate single-port candidates unless nothing else exists. *)
  let candidates =
    let real = List.filter (fun p -> List.length p.p_ports > 1) candidates in
    if real = [] then candidates else real
  in
  (* Keep the worst path per distinct endpoint. *)
  let seen = Hashtbl.create 16 in
  let worst =
    List.filter
      (fun p ->
        if Hashtbl.mem seen p.p_end then false
        else begin
          Hashtbl.replace seen p.p_end ();
          true
        end)
      candidates
  in
  let kept = List.filteri (fun i _ -> i < max paths 1) worst in
  let levels =
    Hashtbl.fold (fun name _ acc -> max acc (deep name)) g 0
  in
  let delay_ps = match worst with [] -> 0 | p :: _ -> p.p_delay_ps in
  {
    levels;
    critical = (match kept with [] -> [] | p :: _ -> p.p_ports);
    delay_ps;
    fmax_mhz = fmax_of_ps delay_ps;
    paths = (if paths <= 0 then [] else kept);
  }

let context_timing ?paths ctx =
  Calyx_telemetry.Trace.with_span ~cat:"stage" "synth.timing" @@ fun () ->
  let t = component_timing ?paths ctx (entry ctx) in
  if Calyx_telemetry.Runtime.on () then begin
    Calyx_telemetry.Trace.add_metric "delay_ps" (float_of_int t.delay_ps);
    Calyx_telemetry.Trace.add_metric "levels" (float_of_int t.levels)
  end;
  t

let period_ps r = max r.delay_ps min_period_ps
let period_ns r = float_of_int (period_ps r) /. 1000.
let wall_ns r ~cycles = float_of_int cycles *. period_ns r
let slack_ps r ~period_ps = period_ps - r.delay_ps

let port_edges ctx comp =
  let g = build ctx comp in
  Hashtbl.fold
    (fun src n acc ->
      List.fold_left (fun acc (dst, _, _) -> (src, dst) :: acc) acc n.n_edges)
    g []
  |> List.sort_uniq compare

(* ------------------------------------------------------------------ *)
(* Attribution back to cells, groups, and control                      *)
(* ------------------------------------------------------------------ *)

type attribution = {
  at_cell : string;
  at_groups : string list;
  at_control : string list;
}

(* The cell (or group hole) a dotted port path belongs to: strip the final
   port segment; hole nodes ("g[go]") name their group directly. *)
let owner_of_port name =
  match String.index_opt name '[' with
  | Some i -> Some (String.sub name 0 i)
  | None -> (
      match String.rindex_opt name '.' with
      | None -> None (* a signature port of the root *)
      | Some i -> Some (String.sub name 0 i))

let assignment_mentions cell (a : assignment) =
  let of_port = function Cell_port (c, _) -> c = cell | _ -> false in
  let of_atom = function Port p -> of_port p | Lit _ -> false in
  of_port a.dst || of_atom a.src
  || List.exists of_atom (guard_atoms a.guard)

(* Control statements of [comp] that enable group [gname]. *)
let enabling_control comp gname =
  List.filter_map
    (fun (_, path, node) ->
      let here =
        match node with
        | Enable (g, _) -> g = gname
        | If { cond_group = Some g; _ } | While { cond_group = Some g; _ } ->
            g = gname
        | _ -> false
      in
      if here then
        Some
          (Printf.sprintf "%s @ %s" (control_node_label node)
             (if path = "" then "root" else path))
      else None)
    (control_preorder comp.control)

(* Resolve a dotted cell path from the entrypoint down the instance
   hierarchy; returns the defining component, the instance prefix, and
   the local cell name. *)
let resolve_cell ctx path =
  let rec go comp prefix = function
    | [] -> None
    | [ cell ] -> Some (comp, prefix, cell)
    | seg :: rest -> (
        match find_cell_opt comp seg with
        | Some { cell_proto = Comp cname; _ } ->
            go (find_component ctx cname) (join prefix seg) rest
        | _ -> None)
  in
  go (entry ctx) "" (String.split_on_char '.' path)

let attribute ctx ports =
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun port ->
      match owner_of_port port with
      | None -> None
      | Some owner ->
          if Hashtbl.mem seen owner then None
          else begin
            Hashtbl.replace seen owner ();
            match resolve_cell ctx owner with
            | None -> Some { at_cell = owner; at_groups = []; at_control = [] }
            | Some (comp, prefix, local) ->
                let qualify n = if prefix = "" then n else prefix ^ "." ^ n in
                (* A hole node's "cell" is its group. *)
                let groups =
                  if find_group_opt comp local <> None then [ local ]
                  else
                    List.filter_map
                      (fun grp ->
                        if List.exists (assignment_mentions local) grp.assigns
                        then Some grp.group_name
                        else None)
                      comp.groups
                in
                let at_control =
                  List.concat_map (enabling_control comp) groups
                  |> List.sort_uniq compare
                in
                Some
                  {
                    at_cell = owner;
                    at_groups = List.map qualify groups;
                    at_control;
                  }
          end)
    ports

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let render ?attribute_ctx ?target_period_ps r =
  let buf = Buffer.create 512 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "critical path:  %d ps (%.2f ns)\n" r.delay_ps
    (float_of_int r.delay_ps /. 1000.);
  pf "Fmax estimate:  %.1f MHz (period %.2f ns)\n" r.fmax_mhz (period_ns r);
  pf "logic levels:   %d\n" r.levels;
  (match target_period_ps with
  | None -> ()
  | Some p ->
      let s = slack_ps r ~period_ps:p in
      pf "slack @ %.2f ns: %s%d ps%s\n"
        (float_of_int p /. 1000.)
        (if s >= 0 then "+" else "")
        s
        (if s < 0 then "  VIOLATED" else ""));
  if r.paths <> [] then begin
    pf "worst paths:\n";
    List.iteri
      (fun i p ->
        pf "  #%d  %6d ps  %2d levels  %s -> %s\n" (i + 1) p.p_delay_ps
          p.p_levels p.p_start p.p_end;
        let ports =
          if List.length p.p_ports > 8 then
            List.filteri (fun i _ -> i < 8) p.p_ports @ [ "..." ]
          else p.p_ports
        in
        pf "      via %s\n" (String.concat " -> " ports);
        match attribute_ctx with
        | None -> ()
        | Some ctx ->
            List.iter
              (fun at ->
                if at.at_groups <> [] then
                  pf "      %s: group %s%s\n" at.at_cell
                    (String.concat ", " at.at_groups)
                    (match at.at_control with
                    | [] -> ""
                    | cs -> " (" ^ String.concat "; " cs ^ ")"))
              (attribute ctx p.p_ports))
      r.paths
  end;
  Buffer.contents buf

let to_json ?attribute_ctx ?target_period_ps r =
  let path_json p =
    let cells =
      match attribute_ctx with
      | None -> []
      | Some ctx ->
          [
            ( "cells",
              Json.arr
                (List.map
                   (fun at ->
                     Json.obj
                       [
                         ("cell", Json.str at.at_cell);
                         ( "groups",
                           Json.arr (List.map Json.str at.at_groups) );
                         ( "control",
                           Json.arr (List.map Json.str at.at_control) );
                       ])
                   (attribute ctx p.p_ports)) );
          ]
    in
    Json.obj
      ([
         ("start", Json.str p.p_start);
         ("end", Json.str p.p_end);
         ("delay_ps", Json.int p.p_delay_ps);
         ("levels", Json.int p.p_levels);
         ("ports", Json.arr (List.map Json.str p.p_ports));
       ]
      @ cells)
  in
  let slack =
    match target_period_ps with
    | None -> []
    | Some p ->
        [
          ("target_period_ps", Json.int p);
          ("slack_ps", Json.int (slack_ps r ~period_ps:p));
          ("met", Json.bool (slack_ps r ~period_ps:p >= 0));
        ]
  in
  Json.obj
    ([
       ("delay_ps", Json.int r.delay_ps);
       ("period_ns", Json.float (period_ns r));
       ("fmax_mhz", Json.float r.fmax_mhz);
       ("levels", Json.int r.levels);
       ("paths", Json.arr (List.map path_json r.paths));
     ]
    @ slack)
