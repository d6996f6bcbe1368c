(* Name → semantics, for the CLI, examples and benches.

   The partition-parametric semantics (CCWA, ECWA, CIRC, ICWA) appear with
   their canonical total partition ⟨V;∅;∅⟩, and [find ~part] makes them
   at any other ⟨P;Q;Z⟩.  At the total partition CCWA is GCWA and ECWA is
   EGCWA, so the "gcwa" and "egcwa" records are the CCWA and ECWA records
   under their own names; those two are defined at ⟨V;∅;∅⟩ only.

   Every record is a constant: the module's record wrapped by
   [Fastpath.wrap], once, when this module is initialised.  Its fields
   take the oracle engine as their first argument, so [find] and [all]
   hand out the records themselves and a one-shot query
   ([infer_literal_in] and friends) calls one on the caller's engine.  No
   record holds state of its own (all of it lives in the engine), so the
   registry keeps no engine and creates none. *)

(* A record is a constant, and a parametric one is made at a ⟨P;Q;Z⟩. *)
type make =
  | Total of Semantics.t
  | Parametric of (?part:Ddb_logic.Partition.t -> unit -> Semantics.t)

(* Registry order, name → record.  Records additionally go through the
   fragment fast-path dispatcher: tractable (semantics, problem, fragment)
   cells are answered by the polynomial algorithms of [Ddb_frag],
   everything else falls back to the generic oracle procedures.
   [Ddb_engine.Engine.create ~fastpath:false] turns the dispatcher off, which
   restores the pre-dispatch behaviour exactly. *)
let entries : (string * make) array =
  (* GCWA/EGCWA: the CCWA/ECWA records under their own names, at ⟨V;∅;∅⟩ *)
  [|
    ("cwa", Total Cwa.semantics);
    ( "gcwa",
      Total
        (Ccwa.semantics ~name:"gcwa"
           ~long_name:"Generalized Closed World Assumption (Minker)" ()) );
    ("ddr", Total Ddr.semantics);
    ("pws", Total Pws.semantics);
    ( "egcwa",
      Total
        (Ecwa.semantics ~name:"egcwa"
           ~long_name:"Extended Generalized CWA (Yahya & Henschen)" ()) );
    ( "ccwa",
      Parametric
        (Ccwa.semantics ~name:"ccwa"
           ~long_name:
             "Careful Closed World Assumption (Gelfond & Przymusinska)") );
    ( "ecwa",
      Parametric
        (Ecwa.semantics ~name:"ecwa"
           ~long_name:"Extended CWA (Gelfond, Przymusinska & Przymusinski)") );
    ("circ", Parametric Circ.semantics);
    ("icwa", Parametric Icwa.semantics);
    ("perf", Total Perf.semantics);
    ("dsm", Total Dsm.semantics);
    ("pdsm", Total Pdsm.semantics);
  |]

let names = Array.to_list (Array.map fst entries)

(* The entry's position, or -1: a loop over its arguments, so a one-shot
   question's lookup allocates nothing. *)
let rec index_from i name =
  if i = Array.length entries then -1
  else if String.equal (fst entries.(i)) name then i
  else index_from (i + 1) name

let index name = index_from 0 name

(* Every record wrapped once, in registry order. *)
let records =
  Array.map
    (fun (_, mk) ->
      Fastpath.wrap (match mk with Total s -> s | Parametric mk -> mk ()))
    entries

let all = Array.to_list records

(* At a given partition only the four parametric records exist; each
   question makes its own. *)
let find ?part name =
  match (part, index name) with
  | _, -1 -> None
  | None, i -> Some records.(i)
  | Some part, i -> (
    match snd entries.(i) with
    | Parametric mk -> Some (Fastpath.wrap ~part (mk ~part ()))
    | Total _ -> None)

(* The lookup perfbench's [core.registry_lookup_us] times: [find], its
   engine ignored. *)
let find_in ?part _ name = find ?part name

(* No semantics' [applicable] test touches an engine. *)
let applicable_names db =
  List.filteri (fun i _ -> records.(i).Semantics.applicable db) names

(* One-shot boolean evaluation by name on a caller-supplied engine: the
   primitive query.  A budget wraps it from outside
   ([Engine.budgeted eng limits ~sem (fun () -> infer_literal_in ...)]);
   the batch layer's sweeps run every cell that way, on the worker's
   engine, and these are the sequential baseline its determinism tests
   compare against. *)

let record_exn name =
  match index name with
  | -1 -> invalid_arg (Printf.sprintf "Registry: unknown semantics %S" name)
  | i -> records.(i)

let infer_literal_in eng ~sem db l =
  (record_exn sem).Semantics.infer_literal eng db l

let infer_formula_in eng ~sem db f =
  (record_exn sem).Semantics.infer_formula eng db f

let has_model_in eng ~sem db = (record_exn sem).Semantics.has_model eng db
