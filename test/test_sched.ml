(* The compiled engine's scheduler in isolation: unit tests for the Sched
   graph module (levelization, dirty-set evaluation, cyclic-remainder
   worklist), checked on random graphs against a transitive-closure
   reference. The engine's observable equivalence with the fixpoint oracle
   is covered by test_compiled and test_random. *)

module Sched = Calyx_sim.Sched

(* ------------------------------------------------------------------ *)
(* Sched: the graph scheduler in isolation                             *)
(* ------------------------------------------------------------------ *)

(* A diamond DAG over slots a=0 b=1 c=2 d=3:
     node 0 writes a; nodes 1,2 read a and write b,c; node 3 reads b,c. *)
let diamond () =
  Sched.build ~slots:4
    ~nodes:[| ([], [ 0 ]); ([ 0 ], [ 1 ]); ([ 0 ], [ 2 ]); ([ 1; 2 ], [ 3 ]) |]

let test_levels () =
  let g = diamond () in
  Alcotest.(check int) "source level" 0 (Sched.level g 0);
  Alcotest.(check int) "left level" 1 (Sched.level g 1);
  Alcotest.(check int) "right level" 1 (Sched.level g 2);
  Alcotest.(check int) "sink level" 2 (Sched.level g 3);
  for k = 0 to 3 do
    Alcotest.(check bool) "acyclic" false (Sched.cyclic g k)
  done

(* Dirty-set evaluation over the diamond: each acyclic node evaluates at
   most once per settle, and evaluation order respects levels. *)
let test_dirty_order () =
  let g = diamond () in
  Sched.mark_all g;
  let order = ref [] in
  let n = Sched.run g ~eval:(fun k -> order := k :: !order) ~max_passes:10 in
  Alcotest.(check int) "all evaluated once" 4 n;
  let pos k =
    let rec go i = function
      | [] -> Alcotest.failf "node %d not evaluated" k
      | x :: _ when x = k -> i
      | _ :: rest -> go (i + 1) rest
    in
    go 0 (List.rev !order)
  in
  Alcotest.(check bool) "source before left" true (pos 0 < pos 1);
  Alcotest.(check bool) "source before right" true (pos 0 < pos 2);
  Alcotest.(check bool) "left before sink" true (pos 1 < pos 3);
  Alcotest.(check bool) "right before sink" true (pos 2 < pos 3);
  (* Nothing dirty: the next settle touches nothing. *)
  Alcotest.(check int) "settled" 0
    (Sched.run g ~eval:(fun _ -> ()) ~max_passes:10);
  (* Marking one slot re-evaluates only its downstream readers. *)
  Sched.mark_slot g 1;
  Alcotest.(check int) "incremental" 1
    (Sched.run g ~eval:(fun _ -> ()) ~max_passes:10)

(* A 2-node cycle (0 reads b writes a, 1 reads a writes b) feeding an
   acyclic reader. The worklist must converge once values stabilise. *)
let test_cycle_converges () =
  let g =
    Sched.build ~slots:3
      ~nodes:[| ([ 1 ], [ 0 ]); ([ 0 ], [ 1 ]); ([ 0; 1 ], [ 2 ]) |]
  in
  Alcotest.(check bool) "member cyclic" true (Sched.cyclic g 0);
  Alcotest.(check bool) "member cyclic" true (Sched.cyclic g 1);
  Alcotest.(check bool) "reader acyclic" false (Sched.cyclic g 2);
  Alcotest.(check bool) "reader downstream" true
    (Sched.level g 2 > Sched.level g 0);
  (* max-propagation to a fixed point: a = max(a, b), b = max(a, b). *)
  let slots = [| 5; 3; 0 |] in
  let eval k =
    match k with
    | 0 ->
        let v = max slots.(0) slots.(1) in
        if v <> slots.(0) then begin
          slots.(0) <- v;
          Sched.mark_slot g 0
        end
    | 1 ->
        let v = max slots.(0) slots.(1) in
        if v <> slots.(1) then begin
          slots.(1) <- v;
          Sched.mark_slot g 1
        end
    | 2 -> slots.(2) <- slots.(0) + slots.(1)
    | _ -> assert false
  in
  Sched.mark_all g;
  ignore (Sched.run g ~eval ~max_passes:100);
  Alcotest.(check int) "converged a" 5 slots.(0);
  Alcotest.(check int) "converged b" 5 slots.(1);
  Alcotest.(check int) "reader saw settled values" 10 slots.(2)

(* A cycle whose members re-mark each other forever must trip the budget. *)
let test_cycle_diverges () =
  let g = Sched.build ~slots:2 ~nodes:[| ([ 1 ], [ 0 ]); ([ 0 ], [ 1 ]) |] in
  Sched.mark_all g;
  Alcotest.check_raises "budget exceeded" Sched.Diverged (fun () ->
      ignore
        (Sched.run g
           ~eval:(fun k -> Sched.mark_slot g (if k = 0 then 0 else 1))
           ~max_passes:10))

(* Self-edges count as cyclic even in a singleton component. *)
let test_self_edge () =
  let g = Sched.build ~slots:1 ~nodes:[| ([ 0 ], [ 0 ]) |] in
  Alcotest.(check bool) "self-edge cyclic" true (Sched.cyclic g 0)

(* No nodes at all: nothing to levelize and nothing to evaluate. *)
let test_empty () =
  let g = Sched.build ~slots:0 ~nodes:[||] in
  Alcotest.(check int) "no nodes" 0 (Sched.node_count g);
  Sched.mark_all g;
  Alcotest.(check int) "nothing evaluated" 0
    (Sched.run g ~eval:(fun _ -> Alcotest.fail "eval called") ~max_passes:10)

(* A chain 0 -> 1 -> 2 -> 3 -> 4 sits on one level per node, and component
   ids decrease along every edge. *)
let test_chain () =
  let n = 5 in
  let g =
    Sched.build ~slots:n
      ~nodes:(Array.init n (fun k -> ((if k = 0 then [] else [ k - 1 ]), [ k ])))
  in
  for k = 0 to n - 1 do
    Alcotest.(check int) (Printf.sprintf "level %d" k) k (Sched.level g k);
    Alcotest.(check bool) "acyclic" false (Sched.cyclic g k)
  done;
  for k = 1 to n - 1 do
    Alcotest.(check bool) "ids decrease along edges" true
      (Sched.scc g k < Sched.scc g (k - 1))
  done

(* Two unconnected chains levelize independently, and invalidating one
   leaves the other untouched. *)
let test_independent () =
  let g =
    Sched.build ~slots:4
      ~nodes:[| ([], [ 0 ]); ([ 0 ], [ 1 ]); ([], [ 2 ]); ([ 2 ], [ 3 ]) |]
  in
  Alcotest.(check (list int)) "levels" [ 0; 1; 0; 1 ]
    (List.init 4 (Sched.level g));
  let seen = ref [] in
  Sched.mark_slot g 2;
  Alcotest.(check int) "one reader" 1
    (Sched.run g ~eval:(fun k -> seen := k :: !seen) ~max_passes:10);
  Alcotest.(check (list int)) "only the second chain" [ 3 ] !seen

(* Two writers of one slot: the reader sits above both of them. *)
let test_shared_writers () =
  let g =
    Sched.build ~slots:3
      ~nodes:[| ([], [ 0 ]); ([ 1 ], [ 0 ]); ([], [ 1 ]); ([ 0 ], [ 2 ]) |]
  in
  Alcotest.(check int) "first writer" 0 (Sched.level g 0);
  Alcotest.(check int) "second writer" 1 (Sched.level g 1);
  Alcotest.(check int) "reader" 2 (Sched.level g 3)

(* Marking is idempotent while a node is queued, and a slot nobody reads
   invalidates nothing. *)
let test_marks () =
  let g = Sched.build ~slots:3 ~nodes:[| ([ 0; 0 ], [ 1 ]); ([ 1 ], []) |] in
  Sched.mark_node g 0;
  Sched.mark_node g 0;
  Sched.mark_slot g 0;
  Alcotest.(check int) "queued once" 1
    (Sched.run g ~eval:(fun _ -> ()) ~max_passes:10);
  Sched.mark_slot g 2;
  Alcotest.(check int) "unread slot" 0
    (Sched.run g ~eval:(fun _ -> ()) ~max_passes:10)

(* A cycle {1, 2} between a source 0 and a sink 3: the members share a
   component and a level, and ids are reverse topological. *)
let test_components () =
  let g =
    Sched.build ~slots:4
      ~nodes:
        [| ([], [ 0 ]); ([ 0; 2 ], [ 1 ]); ([ 1 ], [ 2 ]); ([ 2 ], [ 3 ]) |]
  in
  Alcotest.(check int) "members share a component" (Sched.scc g 1)
    (Sched.scc g 2);
  Alcotest.(check int) "members share a level" (Sched.level g 1)
    (Sched.level g 2);
  Alcotest.(check bool) "members cyclic" true
    (Sched.cyclic g 1 && Sched.cyclic g 2);
  Alcotest.(check bool) "source and sink acyclic" false
    (Sched.cyclic g 0 || Sched.cyclic g 3);
  Alcotest.(check bool) "source id above the cycle" true
    (Sched.scc g 0 > Sched.scc g 1);
  Alcotest.(check bool) "sink id below the cycle" true
    (Sched.scc g 3 < Sched.scc g 1);
  Alcotest.(check (list int)) "levels" [ 0; 1; 1; 2 ]
    (List.init 4 (Sched.level g))

(* ------------------------------------------------------------------ *)
(* Random graphs against a transitive-closure reference                *)
(* ------------------------------------------------------------------ *)

(* Up to 10 nodes over 6 slots, each reading and writing up to 3 slots. *)
let graph_gen =
  QCheck.Gen.(
    let slots = list_size (int_bound 3) (int_bound 5) in
    array_size (int_range 1 10) (pair slots slots))

let graph_arb =
  QCheck.make graph_gen ~print:(fun nodes ->
      String.concat "; "
        (Array.to_list
           (Array.mapi
              (fun k (r, w) ->
                let ints l = String.concat "," (List.map string_of_int l) in
                Printf.sprintf "%d: r[%s] w[%s]" k (ints r) (ints w))
              nodes)))

(* [edge.(p).(k)]: node p writes a slot node k reads. *)
let edges nodes =
  let n = Array.length nodes in
  Array.init n (fun p ->
      Array.init n (fun k ->
          List.exists (fun s -> List.mem s (fst nodes.(k))) (snd nodes.(p))))

let closure nodes =
  let reach = Array.map Array.copy (edges nodes) in
  let n = Array.length nodes in
  for m = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if reach.(i).(m) && reach.(m).(j) then reach.(i).(j) <- true
      done
    done
  done;
  reach

(* Components, cyclicity, reverse-topological ids and longest-path levels
   all match a transitive-closure reference. *)
let prop_matches_reference =
  QCheck.Test.make ~count:300 ~name:"random graphs match the reference"
    graph_arb (fun nodes ->
      let n = Array.length nodes in
      let g = Sched.build ~slots:6 ~nodes in
      let edge = edges nodes and reach = closure nodes in
      let same i j = i = j || (reach.(i).(j) && reach.(j).(i)) in
      let level = Array.make n 0 in
      let changed = ref true in
      while !changed do
        changed := false;
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            let want =
              if same i j then level.(i)
              else if edge.(i).(j) then level.(i) + 1
              else 0
            in
            if want > level.(j) then begin
              level.(j) <- want;
              changed := true
            end
          done
        done
      done;
      let ok = ref (Sched.node_count g = n) in
      for i = 0 to n - 1 do
        if Sched.cyclic g i <> reach.(i).(i) then ok := false;
        if Sched.level g i <> level.(i) then ok := false;
        for j = 0 to n - 1 do
          if (Sched.scc g i = Sched.scc g j) <> same i j then ok := false;
          if edge.(i).(j) && (not (same i j)) && Sched.scc g j >= Sched.scc g i
          then ok := false
        done
      done;
      !ok)

(* One settle from all-dirty evaluates every node exactly once when no
   value changes, writers of an edge between components before readers. *)
let prop_settle_order =
  QCheck.Test.make ~count:300 ~name:"random graphs settle in level order"
    graph_arb (fun nodes ->
      let n = Array.length nodes in
      let g = Sched.build ~slots:6 ~nodes in
      let edge = edges nodes in
      let pos = Array.make n (-1) and next = ref 0 in
      Sched.mark_all g;
      let calls =
        Sched.run g
          ~eval:(fun k ->
            if pos.(k) < 0 then pos.(k) <- !next;
            incr next)
          ~max_passes:10
      in
      let ok = ref (calls = n) in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if edge.(i).(j) && Sched.scc g i <> Sched.scc g j && pos.(i) >= pos.(j)
          then ok := false
        done
      done;
      !ok)

let () =
  Alcotest.run "sched"
    [
      ( "graph",
        [
          Alcotest.test_case "diamond levels" `Quick test_levels;
          Alcotest.test_case "dirty-set order" `Quick test_dirty_order;
          Alcotest.test_case "cycle converges" `Quick test_cycle_converges;
          Alcotest.test_case "cycle diverges" `Quick test_cycle_diverges;
          Alcotest.test_case "self edge" `Quick test_self_edge;
          Alcotest.test_case "empty graph" `Quick test_empty;
          Alcotest.test_case "chain levels" `Quick test_chain;
          Alcotest.test_case "independent components" `Quick test_independent;
          Alcotest.test_case "shared writers" `Quick test_shared_writers;
          Alcotest.test_case "idempotent marks" `Quick test_marks;
          Alcotest.test_case "component ids" `Quick test_components;
        ] );
      ( "random",
        [
          QCheck_alcotest.to_alcotest prop_matches_reference;
          QCheck_alcotest.to_alcotest prop_settle_order;
        ] );
    ]
