(** Interpretations (sets of true atoms) over a fixed universe, as immutable
    bitsets.

    All binary operations require both operands to share the same universe
    size and raise [Invalid_argument] otherwise. *)

type t

val empty : int -> t
(** No atom true, universe of the given size. *)

val full : int -> t
(** Every atom true. *)

val singleton : int -> int -> t
(** [singleton n x]: only [x] true in a universe of size [n]. *)

val universe_size : t -> int

val mem : t -> int -> bool
val add : t -> int -> t
val remove : t -> int -> t

val equal : t -> t -> bool
val compare : t -> t -> int
val is_empty : t -> bool

val subset : t -> t -> bool
(** [subset a b] iff a ⊆ b. *)

val proper_subset : t -> t -> bool

val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
val complement : t -> t
val cardinal : t -> int

val subset_within : t -> t -> t -> bool
(** [subset_within mask a b] iff a ∩ mask ⊆ b ∩ mask.  This is the building
    block of the (P;Z)-minimality preorder. *)

val equal_within : t -> t -> t -> bool
(** [equal_within mask a b] iff a ∩ mask = b ∩ mask. *)

val iter : (int -> unit) -> t -> unit
val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val for_all : (int -> bool) -> t -> bool
val exists : (int -> bool) -> t -> bool
val to_list : t -> int list
val of_list : int -> int list -> t
val of_pred : int -> (int -> bool) -> t

val all : int -> t list
(** All [2^n] interpretations, for reference-engine enumeration.
    @raise Invalid_argument when the universe exceeds the word size. *)

val pp : ?vocab:Vocab.t -> Format.formatter -> t -> unit
val to_string : ?vocab:Vocab.t -> t -> string

module Set : Set.S with type elt = t
