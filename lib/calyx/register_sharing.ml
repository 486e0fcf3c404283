open Ir

let sharing_map (_ctx : context) comp =
  let { Liveness.registers; conflict_cliques; _ } = Liveness.analyze comp in
  let graph = Graph_coloring.of_nodes registers in
  List.iter (Graph_coloring.add_clique_ids graph) conflict_cliques;
  let widths = Hashtbl.create 64 in
  let order =
    List.filter_map
      (fun c ->
        match c.cell_proto with
        | Prim ("std_reg", [ w ]) ->
            if not (Hashtbl.mem widths c.cell_name) then
              Hashtbl.add widths c.cell_name (string_of_int w);
            Some c.cell_name
        | Prim ("std_reg", _) ->
            ir_error "register-sharing: %s is not a register" c.cell_name
        | _ -> None)
      comp.cells
  in
  Graph_coloring.greedy graph ~cls:(Hashtbl.find widths) ~order

let share (ctx : context) comp =
  Resource_sharing.apply_map comp (sharing_map ctx comp)

let pass =
  Pass.make ~name:"register-sharing"
    ~description:"merge registers with disjoint live ranges"
    (Pass.per_component share)
