(* Quickstart: build a small disjunctive database, look at its models under
   several semantics, and ask the three decision questions the paper
   studies — watching the semantics genuinely disagree.

     dune exec examples/quickstart.exe                                     *)

open Ddb_logic
open Ddb_db
open Ddb_core
module Engine = Ddb_engine.Engine

let () =
  (* Somebody tracked mud inside — the dog or the cat did it.  A dog
     culprit means paw prints; a cat culprit means a knocked-over vase.
     The hamster, nobody accuses. *)
  let db =
    Db.of_string
      {|
        dog | cat.
        prints :- dog.
        vase :- cat.
        framed :- dog, cat.
      |}
  in
  let vocab = Db.vocab db in
  ignore (Vocab.intern vocab "hamster");
  let db = Db.with_universe db (Vocab.size vocab) in
  Fmt.pr "Database:@.%a@.@." Db.pp db;

  Fmt.pr "Classical models (%d):@." (List.length (Models.all_models db));
  List.iter
    (fun m -> Fmt.pr "  %a@." (Interp.pp ~vocab) m)
    (Models.all_models db);
  Fmt.pr "Minimal models (= EGCWA):@.";
  List.iter
    (fun m -> Fmt.pr "  %a@." (Interp.pp ~vocab) m)
    (Models.minimal_models db);
  Fmt.pr "Possible models (= PWS):@.";
  List.iter
    (fun m -> Fmt.pr "  %a@." (Interp.pp ~vocab) m)
    (Possible.possible_models db);
  Fmt.pr "@.";

  (* The semantics disagree in characteristic ways.  The closed-world
     procedures run on an oracle engine (memo tables, shared solver). *)
  let eng = Engine.create () in
  let sem name = Option.get (Registry.find name) in
  let gcwa = sem "gcwa" and egcwa = sem "egcwa" in
  let pws = sem "pws" and ddr = sem "ddr" in
  let ask name answer = Fmt.pr "  %-46s %b@." name answer in
  let q s = Parse.formula vocab s in
  Fmt.pr "Queries:@.";
  ask "GCWA  |= ~hamster   (innocent bystander)"
    (gcwa.infer_formula eng db (q "~hamster"));
  ask "GCWA  |= ~dog       (no: dog may be the culprit)"
    (gcwa.infer_formula eng db (q "~dog"));
  ask "EGCWA |= ~(dog & cat)  (exactly-one reading)"
    (egcwa.infer_formula eng db (q "~(dog & cat)"));
  ask "PWS   |= ~(dog & cat)  (possible-worlds: no!)"
    (pws.infer_formula eng db (q "~(dog & cat)"));
  ask "EGCWA |= prints | vase  (some evidence follows)"
    (egcwa.infer_formula eng db (q "prints | vase"));
  ask "GCWA  |= ~framed  (false in every minimal model)"
    (gcwa.infer_formula eng db (q "~framed"));
  ask "DDR   |= ~framed  (weak closure misses it)"
    (ddr.infer_formula eng db (q "~framed"));
  Fmt.pr "@.";
  (* 'framed' occurs in a derivable disjunction (hyperresolving the two
     evidence rules against dog v cat), so the DDR never closes it — the
     same blindness the paper's Example 3.1 exhibits. *)
  assert (gcwa.infer_formula eng db (q "~framed"));
  assert (not (ddr.infer_formula eng db (q "~framed")));

  (* Both-culprits is a possible model but never a minimal one: EGCWA and
     PWS genuinely differ. *)
  assert (egcwa.infer_formula eng db (q "~(dog & cat)"));
  assert (not (pws.infer_formula eng db (q "~(dog & cat)")));

  (* Model existence per semantics (the third column of the tables). *)
  Fmt.pr "Model existence:@.";
  List.iter
    (fun (s : Semantics.t) ->
      if s.Semantics.applicable db then
        Fmt.pr "  %-8s %b@." s.Semantics.name (s.Semantics.has_model eng db))
    Registry.all
