open Ir
module SS = String_set

type result = {
  registers : string array;
  live_in : SS.t;
  conflict_cliques : Bitset.t list;
}

let analyze comp =
  let regs = Read_write_set.registers comp in
  (* Registers are interned to dense ids once; live sets are bitsets over
     them, so the many unions and differences along the control tree cost
     a pass over [|regs| / 8] bytes each. *)
  let names = Array.of_list (SS.elements regs) in
  let ids = Hashtbl.create (Array.length names) in
  Array.iteri (fun i n -> Hashtbl.replace ids n i) names;
  let of_names s =
    SS.fold
      (fun c acc -> Bitset.add_into acc (Hashtbl.find ids c))
      s
      (Bitset.create (Array.length names))
  in
  let to_names s =
    let acc = ref SS.empty in
    Bitset.iter (fun i -> acc := SS.add names.(i) !acc) s;
    !acc
  in
  let union = Bitset.union in
  let groups = Hashtbl.create 64 in
  List.iter
    (fun g ->
      if not (Hashtbl.mem groups g.group_name) then
        Hashtbl.add groups g.group_name g)
    comp.groups;
  (* reads, may-writes and must-writes of each group, computed once. *)
  let sets_tbl = Hashtbl.create 64 in
  let sets g =
    match Hashtbl.find_opt sets_tbl g with
    | Some s -> s
    | None ->
        let group =
          match Hashtbl.find_opt groups g with
          | Some group -> group
          | None -> find_group comp g
        in
        let s =
          ( of_names (Read_write_set.reads regs group),
            of_names (Read_write_set.may_writes regs group),
            of_names (Read_write_set.must_writes regs group) )
        in
        Hashtbl.replace sets_tbl g s;
        s
  in
  let reads g = match sets g with r, _, _ -> r in
  let may_writes g = match sets g with _, w, _ -> w in
  let must_writes g = match sets g with _, _, w -> w in
  (* Registers read from continuous assignments are observable at any time
     (e.g. they feed output ports); they interfere with everything. *)
  let always_live =
    of_names
      (List.fold_left
         (fun acc a ->
           List.fold_left
             (fun acc atom ->
               match atom with
               | Port (Cell_port (c, _)) when SS.mem c regs -> SS.add c acc
               | _ -> acc)
             acc (a.src :: guard_atoms a.guard))
         SS.empty comp.continuous)
  in
  let cliques = ref [] in
  let seen_cliques = Hashtbl.create 64 in
  let clique s =
    if Bitset.at_least_two s then begin
      (* Live sets repeat heavily across groups; deduplicate. *)
      let k = Bitset.key s in
      if not (Hashtbl.mem seen_cliques k) then begin
        Hashtbl.replace seen_cliques k ();
        cliques := s :: !cliques
      end
    end
  in
  (* Touched registers of a subtree (for parallel interference). *)
  let touched ctrl =
    SS.fold
      (fun g acc ->
        Bitset.union_into (Bitset.union_into acc (reads g)) (may_writes g))
      (Schedule_conflicts.subtree_groups ctrl)
      (Bitset.create (Array.length names))
  in
  let visit_group g live_after =
    let live_in =
      Bitset.union_into
        (Bitset.diff_into (Bitset.copy live_after) (must_writes g))
        (reads g)
    in
    (* At this node, everything written interferes with everything live
       across or out of the node. *)
    clique (Bitset.union_into (union live_in (may_writes g)) always_live);
    live_in
  in
  let rec flow ctrl live_after =
    match ctrl with
    | Empty -> live_after
    | Invoke { invoke_inputs; invoke_outputs; _ } ->
        (* Reads its argument registers; writes the invoked cell and any
           registers bound as output destinations. *)
        let read =
          List.fold_left
            (fun acc (_, a) ->
              match a with
              | Port (Cell_port (c, "out")) when SS.mem c regs -> SS.add c acc
              | _ -> acc)
            SS.empty invoke_inputs
        in
        let written =
          List.fold_left
            (fun acc (_, dst) ->
              match dst with
              | Cell_port (c, _) when SS.mem c regs -> SS.add c acc
              | _ -> acc)
            SS.empty invoke_outputs
        in
        (* Conservative: output writes are not treated as must-writes (no
           kill), but they interfere with everything live across the call. *)
        let live_in = union (of_names read) live_after in
        clique
          (Bitset.union_into (union live_in (of_names written)) always_live);
        live_in
    | Enable (g, _) -> visit_group g live_after
    | Seq (cs, _) -> List.fold_right flow cs live_after
    | Par (cs, _) ->
        (* Each child sees the liveness leaving the par (writes in one child
           are visible after the block; Section 5.2). *)
        let ins = List.map (fun c -> flow c live_after) cs in
        (* Registers touched by sibling arms interfere. The pairwise
           cliques touched(cᵢ) ∪ touched(cⱼ), i ≠ j, cover exactly the
           edges of one clique over everything the block touches: two
           registers in one arm also share a clique with any other arm. *)
        (match cs with
        | _ :: _ :: _ ->
            clique
              (List.fold_left
                 (fun acc c -> Bitset.union_into acc (touched c))
                 (Bitset.create (Array.length names))
                 cs)
        | _ -> ());
        List.fold_left union live_after ins
    | If { cond_group; tbranch; fbranch; _ } ->
        let lt = flow tbranch live_after in
        let lf = flow fbranch live_after in
        let l = union lt lf in
        (match cond_group with Some cg -> visit_group cg l | None -> l)
    | While { cond_group; body; _ } ->
        (* live_in = reads(cond) ∪ live_after ∪ live_in(body applied to
           live_in) — iterate to a fixpoint. *)
        let rec iterate current =
          let body_in = flow body current in
          let next =
            let l = union live_after body_in in
            match cond_group with Some cg -> visit_group cg l | None -> l
          in
          if Bitset.equal next current then next
          else iterate (union next current)
        in
        iterate
          (match cond_group with
          | Some cg -> union (reads cg) live_after
          | None -> live_after)
  in
  let live_in = flow comp.control always_live in
  { registers = names; live_in = to_names live_in; conflict_cliques = !cliques }
