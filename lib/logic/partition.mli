(** Partitions ⟨P;Q;Z⟩ of the universe for circumscription-style semantics:
    P minimized, Q fixed, Z floating. *)

type t

val make : p:Interp.t -> q:Interp.t -> z:Interp.t -> t
(** @raise Invalid_argument unless P, Q, Z are disjoint and cover the
    universe. *)

val of_lists : int -> p:int list -> q:int list -> z:int list -> t

val minimize_all : int -> t
(** ⟨V; ∅; ∅⟩ — the GCWA/EGCWA case. *)

val universe_size : t -> int
val p : t -> Interp.t
val q : t -> Interp.t
val z : t -> Interp.t

val le : t -> Interp.t -> Interp.t -> bool
(** [le part m n]: M ≤_{P;Z} N, i.e. M∩Q = N∩Q and M∩P ⊆ N∩P. *)

val lt : t -> Interp.t -> Interp.t -> bool
(** Strict part of [le]. *)

val same_section : t -> Interp.t -> Interp.t -> bool
(** Equal on P ∪ Q (interchangeable up to the floating atoms). *)

val pp : ?vocab:Vocab.t -> Format.formatter -> t -> unit
