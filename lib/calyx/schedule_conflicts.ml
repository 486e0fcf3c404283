module SS = Ir.String_set

let subtree_groups ctrl =
  let acc = ref SS.empty in
  Ir.iter_control
    (function
      | Ir.Enable (g, _) -> acc := SS.add g !acc
      | Ir.If { cond_group = Some g; _ } | Ir.While { cond_group = Some g; _ }
        ->
          acc := SS.add g !acc
      | _ -> ())
    ctrl;
  !acc

let par_arms ctrl =
  let pars = ref [] in
  Ir.iter_control
    (function
      | Ir.Par (children, _) ->
          pars := List.map subtree_groups children :: !pars
      | _ -> ())
    ctrl;
  List.rev !pars
