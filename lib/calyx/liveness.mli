(** Live-range analysis over parallel control flow (Section 5.2).

    A structured backward dataflow over the control tree. [par] blocks are
    handled in the spirit of Srinivasan–Wolfe parallel CFGs: each child is
    analyzed against the liveness leaving the whole block, and registers
    touched by sibling children additionally interfere with each other.
    [while] loops iterate to a fixpoint.

    The result is the interference relation the register-sharing pass
    colors: two registers conflict when one is defined (or live) at a point
    where the other is live, or when parallel branches touch both.

    Live sets are {!Bitset}s over registers interned once per component.
    For a [par], the interference between arms is one clique over every
    register the block touches: the union of the pairwise cliques
    touched(cᵢ) ∪ touched(cⱼ), i ≠ j, has exactly that edge set. *)

type result = {
  registers : string array;
      (** The component's [std_reg] cells in ascending name order; a
          register's index here is its id in {!conflict_cliques}. *)
  live_in : Ir.String_set.t;
      (** Registers live on entry to the whole control program. *)
  conflict_cliques : Bitset.t list;
      (** Sets of register ids; each set is pairwise-interfering. No two
          are equal. *)
}

val analyze : Ir.component -> result
(** Analyze a component's control program over its [std_reg] cells.
    Registers referenced by continuous assignments are treated as live
    everywhere (they join every clique). *)
