(** Bitsets over dense integer ids, stored as bytes.

    The §5 analyses intern cell and register names to ids once per
    component and then work on these sets: a union or a clique costs one
    pass over [n/8] bytes instead of one set or hash operation per
    element. A set is as long as its highest id needs, and absent bytes
    read as zero.

    Operations ending in [_into] update their first argument in place and
    return it, or a longer copy when it has to grow: always use the
    returned set. *)

type t

val empty : t
(** The empty set. Growing it allocates, so it is safe to share. *)

val create : int -> t
(** [create n] is an empty set with room for ids [0 .. n-1]. *)

val copy : t -> t
val mem : t -> int -> bool

val add_into : t -> int -> t
val remove_into : t -> int -> t
val union_into : t -> t -> t
(** [union_into a b] is [a ∪ b], in place in [a] where it fits. *)

val diff_into : t -> t -> t
(** [diff_into a b] is [a \ b], in place in [a]. *)

val union : t -> t -> t
(** A fresh [a ∪ b]; neither argument changes. *)

val equal : t -> t -> bool
(** Same elements, whatever the lengths. *)

val key : t -> string
(** A string that is equal for two sets exactly when they are {!equal}:
    the bytes without trailing zero bytes. *)

val at_least_two : t -> bool
val iter : (int -> unit) -> t -> unit
(** Ascending ids. *)
