(** Greedy graph coloring over named resources (Sections 5.1–5.2).

    Nodes are resource names (cells or registers); edges mean "may not share".
    Coloring uses the nodes themselves as colors: each node is mapped to the
    first already-chosen representative of the same class it does not
    conflict with, or to itself.

    Names are interned to dense ids once, in the order they are first seen,
    and each node's neighbours are a bitset row over those ids, so a clique
    costs one mask OR per member rather than one hash entry per pair. *)

type t

val create : unit -> t
val add_node : t -> string -> unit
val add_edge : t -> string -> string -> unit
(** Symmetric; implicitly adds the nodes. Self-edges are ignored. *)

val add_clique : t -> string list -> unit
(** Pairwise edges among all listed nodes (duplicates and self-edges are
    ignored). *)

val of_nodes : string array -> t
(** A graph whose nodes are the given names, with [names.(i)] as id [i]
    (names must be distinct). *)

val add_clique_ids : t -> Bitset.t -> unit
(** {!add_clique} over ids of a graph made by {!of_nodes}: for analyses
    that already work on the same dense ids. *)

val add_cross : t -> string list list -> unit
(** [add_cross g parts] adds an edge between every two nodes that lie in
    different parts — the complete multipartite graph over [parts] — and
    none within a part. A node listed in two parts gets no self-edge. *)

val greedy : t -> cls:(string -> string) -> order:string list -> string Ir.String_map.t
(** [greedy g ~cls ~order] colors the nodes in [order]. Two nodes may
    share a representative only when [cls] agrees and no member already
    assigned to the representative conflicts with the node. [cls] is called
    once per node of [order] and must be pure. Returns the complete
    node-to-representative map (identity for unshared nodes). *)
