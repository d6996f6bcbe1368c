(* Model-based diagnosis with circumscription (ECWA/CCWA): find the minimal
   sets of faulty gates explaining a wrong output of a ripple-carry adder.

   This is the classic application of minimizing abnormality atoms with
   floating internal wires: the (P;Z)-minimal models of the behaviour
   database are exactly the minimal diagnoses.

     dune exec examples/diagnosis.exe                                      *)

open Ddb_logic
open Ddb_db
open Ddb_workload

let () =
  let bits = 3 in
  let a_val = 5 and b_val = 3 in
  (* Observe the adder computing 5 + 3 with sum bit 1 flipped. *)
  let circuit, observations =
    Diagnosis.faulty_adder_observations ~bits ~a_val ~b_val ~flip_bit:1
  in
  Fmt.pr "Ripple-carry adder, %d bits, %d gates; observing %d + %d with sum \
          bit 1 corrupted.@.@."
    bits
    (List.length circuit.Diagnosis.gates)
    a_val b_val;

  let db, _part, abs = Diagnosis.instance circuit ~observations in
  let vocab = Db.vocab db in
  Fmt.pr "Database: %d clauses over %d atoms; minimized (ab) atoms: %d@.@."
    (Db.size db) (Db.num_vars db) (Interp.cardinal abs);

  (* Minimal diagnoses = (P;Z)-minimal models projected to the ab atoms. *)
  let diagnoses = Diagnosis.minimal_diagnoses circuit ~observations in
  Fmt.pr "Minimal diagnoses (%d):@." (List.length diagnoses);
  List.iter
    (fun d -> Fmt.pr "  %a@." (Interp.pp ~vocab) d)
    diagnoses;
  Fmt.pr "@.";

  (* CCWA queries: which gates are certainly healthy (in no minimal
     diagnosis)?  This is exactly the Π₂ᵖ-style literal inference of the
     paper's CCWA row, on a natural workload. *)
  Fmt.pr "Certainly-healthy gates (CCWA |= ~ab_g):@.";
  let eng = Ddb_engine.Engine.create () in
  List.iteri
    (fun g _ ->
      if Diagnosis.certainly_healthy eng circuit ~observations g then
        Fmt.pr "  gate %d@." g)
    circuit.Diagnosis.gates;

  (* Sanity: at least one diagnosis must blame some gate. *)
  assert (diagnoses <> []);
  assert (List.for_all (fun d -> not (Interp.is_empty d)) diagnoses);
  Fmt.pr "@.Every minimal diagnosis blames at least one gate — the fault is \
          real and localized.@."
