open Ddb_core
open Ddb_workload

(* The hardness side of the tables: run the paper's reductions on random
   2-QBFs and confirm the database-side answers track the QBF answers (so
   the hard cells really are fed instances as hard as ∃∀-QBF), reporting
   the solve times on the reduced instances. *)

let run () =
  Fmt.pr "@.=== Hardness reductions: QBF -> database decision problems ===@.";
  Fmt.pr "  %-14s %-8s %-8s %-8s %-10s@." "family" "xs+ys" "agree" "valid%"
    "avg ms";
  let sizes = [ (2, 2); (3, 3); (4, 4) ] in
  let per_size = 10 in
  List.iter
    (fun (xs, ys) ->
      (* GCWA literal inference vs QBF validity *)
      let agree = ref 0 and valid = ref 0 and total_ms = ref 0. in
      for seed = 0 to per_size - 1 do
        let qbf = Qbf_family.random_ef ~seed ~xs ~ys in
        let db, w = Reductions.qbf_to_gcwa qbf in
        let reference = Ddb_qbf.Cegar.valid qbf in
        let answered =
          Harness.timed (fun () ->
              Registry.infer_literal_in (Harness.base ()) ~sem:"gcwa" db
                (Ddb_logic.Lit.Neg w))
        in
        total_ms := !total_ms +. answered.ms;
        if answered.value = not reference then incr agree;
        if reference then incr valid
      done;
      Fmt.pr "  %-14s %-8d %d/%-6d %-8d %-10.2f@." "qbf->gcwa" (xs + ys)
        !agree per_size
        (100 * !valid / per_size)
        (!total_ms /. float_of_int per_size))
    sizes;
  List.iter
    (fun (xs, ys) ->
      let agree = ref 0 and valid = ref 0 and total_ms = ref 0. in
      let per_size = 10 in
      for seed = 100 to 100 + per_size - 1 do
        let qbf = Qbf_family.random_ef ~seed ~xs ~ys in
        let db = Reductions.qbf_to_dsm_exists qbf in
        let reference = Ddb_qbf.Cegar.valid qbf in
        let answered =
          Harness.timed (fun () ->
              Registry.has_model_in (Harness.base ()) ~sem:"dsm" db)
        in
        total_ms := !total_ms +. answered.ms;
        if answered.value = reference then incr agree;
        if reference then incr valid
      done;
      Fmt.pr "  %-14s %-8d %d/%-6d %-8d %-10.2f@." "qbf->dsm-ex" (xs + ys)
        !agree per_size
        (100 * !valid / per_size)
        (!total_ms /. float_of_int per_size))
    [ (2, 2); (3, 3); (4, 4) ];
  (* SAT -> EGCWA existence on 3-colourability *)
  Fmt.pr "  %-14s %-8s %-8s %-8s@." "coloring->" "vertices" "colorable"
    "avg ms";
  List.iter
    (fun vertices ->
      let sat = ref 0 and total_ms = ref 0. in
      let per_size = 5 in
      for seed = 0 to per_size - 1 do
        let g = Graph.random_graph ~seed ~vertices ~edge_prob:0.3 in
        let colorable =
          Harness.timed (fun () ->
              Registry.has_model_in (Harness.base ()) ~sem:"egcwa"
                (Graph.coloring_db g))
        in
        if colorable.value then incr sat;
        total_ms := !total_ms +. colorable.ms
      done;
      Fmt.pr "  %-14s %-8d %d/%-6d %-8.2f@." "egcwa-exists" vertices !sat
        per_size
        (!total_ms /. float_of_int per_size))
    [ 10; 20; 30 ]
