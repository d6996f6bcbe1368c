open Ddb_logic

(* Pigeonhole CNF instances: PHP(n+1, n) is unsatisfiable and famously hard
   for resolution-based solvers — the CDCL solver's hard-UNSAT regression
   family in the test suite. *)

let var ~holes pigeon hole = (pigeon * holes) + hole

let cnf ~pigeons ~holes =
  let each_pigeon_somewhere =
    List.init pigeons (fun p ->
        List.init holes (fun h -> Lit.Pos (var ~holes p h)))
  in
  let no_sharing =
    List.concat_map
      (fun h ->
        List.concat_map
          (fun p1 ->
            List.filter_map
              (fun p2 ->
                if p2 > p1 then
                  Some [ Lit.Neg (var ~holes p1 h); Lit.Neg (var ~holes p2 h) ]
                else None)
              (List.init pigeons Fun.id))
          (List.init pigeons Fun.id))
      (List.init holes Fun.id)
  in
  (pigeons * holes, each_pigeon_somewhere @ no_sharing)

let unsat_instance n = cnf ~pigeons:(n + 1) ~holes:n
let sat_instance n = cnf ~pigeons:n ~holes:n
