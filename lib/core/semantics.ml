open Ddb_logic
open Ddb_db

(* The uniform face of a disjunctive database semantics, as studied by the
   paper: a (possibly empty) set of intended models inducing the three
   decision problems — literal inference, formula inference, model
   existence — and the search behind them.

   Every upper bound in the paper is "guess a model, check it".  The
   guessed model is a witness for brave inference and a countermodel for
   cautious inference, so each semantics has one search primitive,
   [witness db f]: an intended model satisfying F, or [None].  Cautious
   inference is [witness db ¬F = None] (PDSM keeps its own 3-valued
   inference: the duality fails at value ½).

   Every semantics module provides two engines:
     - the *oracle engine* (the default): realizes the paper's upper-bound
       algorithm by SAT / minimality-oracle calls;
     - the *reference engine*: explicit model enumeration over 2^V (or 3^V),
       used as ground truth on small universes by the tests and the
       engine-ablation bench. *)

type model = Two_valued of Interp.t | Three_valued of Three_valued.t

type t = {
  name : string;
  long_name : string;
  (* Which databases the semantics is defined for (e.g. DDR needs a DDDB,
     ICWA a stratified database). *)
  applicable : Db.t -> bool;
  has_model : Db.t -> bool;
  infer_formula : Db.t -> Formula.t -> bool;
  infer_literal : Db.t -> Lit.t -> bool;
  witness : Db.t -> Formula.t -> model option;
  reference_models : Db.t -> Interp.t list;
}

let two_valued w = Option.map (fun m -> Two_valued m) w

(* Pad the database universe so that query atoms beyond it are legal. *)
let for_query db f =
  Db.with_universe db (max (Db.num_vars db) (Formula.max_atom f + 1))

(* The registry's packing of a partition-parametric semantics: the padded
   database at ⟨V;∅;∅⟩. *)
let at_total formula_of k db q =
  let db = for_query db (formula_of q) in
  k db (Partition.minimize_all (Db.num_vars db)) q

(* Route a semantics through the memoizing oracle engine without
   decomposing its decision procedure: every decision problem is scoped
   (instrumented per semantics) and its answer memoized under the
   database's canonical key; the witness search is scoped.  Semantics whose
   procedures the engine does decompose (the closed-world family) define
   richer [semantics_in] versions in their own modules instead. *)
let via_engine eng (s : t) : t =
  let open Ddb_engine in
  {
    s with
    has_model =
      (fun db ->
        Engine.scoped eng s.name (fun () ->
            Engine.cached_bool eng ~sem:s.name ~op:"exists" db (fun () ->
                s.has_model db)));
    infer_formula =
      (fun db f ->
        Engine.scoped eng s.name (fun () ->
            Engine.cached_bool eng ~sem:s.name ~op:"formula" ~formula:f db
              (fun () -> s.infer_formula db f)));
    infer_literal =
      (fun db l ->
        Engine.scoped eng s.name (fun () ->
            Engine.cached_bool eng ~sem:s.name ~op:"literal"
              ~formula:(Formula.of_lit l) db (fun () -> s.infer_literal db l)));
    witness =
      (fun db f -> Engine.scoped eng s.name (fun () -> s.witness db f));
  }
