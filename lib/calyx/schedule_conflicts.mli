(** May-run-in-parallel analysis over the execution schedule (Section 5.1).

    Two groups conflict when the control program may activate them in the
    same cycle: they live under different arms of some [par] block.
    Condition groups of [if]/[while] count as members of their subtree. *)

val subtree_groups : Ir.control -> Ir.String_set.t
(** Every group referenced in a control subtree (enables and [with]s). *)

val par_arms : Ir.control -> Ir.String_set.t list list
(** For every [par] block in the subtree, in pre-order, the
    {!subtree_groups} of each of its arms. Groups [a] and [b] conflict
    exactly when some block lists them under two different arms; a
    consumer unions per-arm facts once instead of enumerating the
    (quadratically many) conflicting group pairs. *)
