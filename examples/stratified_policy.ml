(* A stratified access-control policy with defaults, evaluated under the
   stratified-negation semantics the paper studies: ICWA, PERF and DSM all
   agree on stratified databases, and the example shows negation-as-failure
   layering ("deny unless some rule grants") with a disjunctive twist
   (an unidentified admin is the DB admin or the network admin).

     dune exec examples/stratified_policy.exe                              *)

open Ddb_logic
open Ddb_db
open Ddb_core

let () =
  let db =
    Db.of_string
      {|
        % --- facts: staff and roles (stratum 1) ---
        employee.
        dbadmin | netadmin.       % the on-call admin is one of the two

        % --- derived access rights (stratum 2) ---
        read_logs :- dbadmin.
        read_logs :- netadmin.
        write_db  :- dbadmin.

        % --- defaults through negation (stratum 3) ---
        restricted :- not write_db.     % restrict unless db-write granted
        audit      :- write_db, not exempt.
      |}
  in
  let vocab = Db.vocab db in
  Fmt.pr "Policy database:@.%a@.@." Db.pp db;

  (* Stratification *)
  (match Stratify.compute db with
  | None -> assert false
  | Some s ->
    Fmt.pr "Stratification (%d strata):@." (List.length (Stratify.strata s));
    List.iteri
      (fun i stratum -> Fmt.pr "  S%d = %a@." (i + 1) (Interp.pp ~vocab) stratum)
      (Stratify.strata s));
  Fmt.pr "@.";

  (* Perfect models = intended meanings of the stratified policy *)
  let perfect = Perf.reference_models db in
  Fmt.pr "Perfect models (%d):@." (List.length perfect);
  List.iter (fun m -> Fmt.pr "  %a@." (Interp.pp ~vocab) m) perfect;
  Fmt.pr "@.";

  (* ICWA, PERF, DSM agree on stratified databases — show it. *)
  let part = Partition.minimize_all (Db.num_vars db) in
  let queries =
    [ "read_logs"; "audit"; "restricted"; "write_db"; "~exempt" ]
  in
  let sem name = Option.get (Registry.find name) in
  let perf_sem = sem "perf" and dsm_sem = sem "dsm" in
  Fmt.pr "%-14s %-6s %-6s %-6s@." "query" "icwa" "perf" "dsm";
  List.iter
    (fun q ->
      let f = Parse.formula vocab q in
      let icwa = Icwa.infer_formula db part f in
      let perf = perf_sem.infer_formula db f in
      let dsm = dsm_sem.infer_formula db f in
      Fmt.pr "%-14s %-6b %-6b %-6b@." q icwa perf dsm;
      assert (icwa = perf && perf = dsm))
    queries;
  Fmt.pr "@.All three stratified-negation semantics agree, as the paper's \
          Section 4 leads one to expect.@.";

  (* The disjunctive twist: read_logs follows under every admin choice, but
     audit depends on which admin is on call. *)
  assert (perf_sem.infer_formula db (Parse.formula vocab "read_logs"));
  assert (not (perf_sem.infer_formula db (Parse.formula vocab "audit")));
  assert (perf_sem.infer_formula db (Parse.formula vocab "write_db -> audit"))
