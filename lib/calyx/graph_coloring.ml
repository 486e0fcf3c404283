module SM = Ir.String_map

(* Nodes are interned to dense ids in insertion order; each node's
   neighbours are a bitset row over those ids. *)
type t = {
  ids : (string, int) Hashtbl.t;
  mutable rows : Bitset.t array;  (* rows.(id) = neighbours of id *)
  mutable size : int;
}

let create () = { ids = Hashtbl.create 64; rows = [||]; size = 0 }

let intern g n =
  match Hashtbl.find_opt g.ids n with
  | Some id -> id
  | None ->
      let id = g.size in
      if id = Array.length g.rows then begin
        let rows = Array.make (max 16 (2 * id)) Bitset.empty in
        Array.blit g.rows 0 rows 0 id;
        g.rows <- rows
      end;
      Hashtbl.replace g.ids n id;
      g.size <- id + 1;
      id

let add_node g n = ignore (intern g n)

let add_edge g a b =
  if not (String.equal a b) then begin
    let a = intern g a and b = intern g b in
    g.rows.(a) <- Bitset.add_into g.rows.(a) b;
    g.rows.(b) <- Bitset.add_into g.rows.(b) a
  end

(* [others] joins every row of [ids] except each member itself: self-edges
   never exist. *)
let join_rows g ids others =
  List.iter
    (fun id ->
      let row = Bitset.union_into g.rows.(id) others in
      g.rows.(id) <- Bitset.remove_into row id)
    ids

let mask ids = List.fold_left Bitset.add_into Bitset.empty ids

let add_clique g names =
  let ids = List.map (intern g) names in
  join_rows g ids (mask ids)

let of_nodes names =
  let g = create () in
  Array.iter (add_node g) names;
  g

let add_clique_ids g s =
  let ids = ref [] in
  Bitset.iter (fun id -> ids := id :: !ids) s;
  join_rows g !ids s

(* With masks u_1..u_k, part i gains the union of every u_j, j ≠ i: prefix
   and suffix unions make that linear in k. *)
let add_cross g parts =
  let parts = Array.of_list (List.map (List.map (intern g)) parts) in
  let k = Array.length parts in
  if k >= 2 then begin
    let masks = Array.map mask parts in
    let suffix = Array.make (k + 1) Bitset.empty in
    for i = k - 1 downto 0 do
      suffix.(i) <- Bitset.union suffix.(i + 1) masks.(i)
    done;
    let prefix = ref Bitset.empty in
    Array.iteri
      (fun i ids ->
        join_rows g ids (Bitset.union !prefix suffix.(i + 1));
        prefix := Bitset.union_into !prefix masks.(i))
      parts
  end

(* A representative fits a node when the node is outside the union of its
   members' neighbour rows; the union grows as members join. Candidates
   are the representatives of the node's class, oldest first. *)
type rep = { rep_name : string; mutable forbidden : Bitset.t }
type reps = { mutable items : rep array; mutable len : int }

let greedy g ~cls ~order =
  let classes : (string, reps) Hashtbl.t = Hashtbl.create 16 in
  List.fold_left
    (fun assignment node ->
      let id = intern g node in
      let reps =
        let node_class = cls node in
        match Hashtbl.find_opt classes node_class with
        | Some reps -> reps
        | None ->
            let reps = { items = [||]; len = 0 } in
            Hashtbl.replace classes node_class reps;
            reps
      in
      let rec first i =
        if i = reps.len then begin
          let rep = { rep_name = node; forbidden = Bitset.empty } in
          if reps.len = Array.length reps.items then begin
            let items = Array.make (max 8 (2 * reps.len)) rep in
            Array.blit reps.items 0 items 0 reps.len;
            reps.items <- items
          end;
          reps.items.(i) <- rep;
          reps.len <- i + 1;
          rep
        end
        else if Bitset.mem reps.items.(i).forbidden id then first (i + 1)
        else reps.items.(i)
      in
      let rep = first 0 in
      rep.forbidden <- Bitset.union_into rep.forbidden g.rows.(id);
      SM.add node rep.rep_name assignment)
    SM.empty order
