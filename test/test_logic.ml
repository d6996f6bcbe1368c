open Ddb_logic

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Interp --- *)

let interp_suite =
  let mk = Interp.of_list 10 in
  [
    Alcotest.test_case "empty/full" `Quick (fun () ->
        check_int "card empty" 0 (Interp.cardinal (Interp.empty 10));
        check_int "card full" 10 (Interp.cardinal (Interp.full 10));
        check "full mem" true (Interp.mem (Interp.full 10) 9);
        check "complement of empty is full" true
          (Interp.equal (Interp.complement (Interp.empty 10)) (Interp.full 10)));
    Alcotest.test_case "add/remove/mem" `Quick (fun () ->
        let s = mk [ 1; 3; 5 ] in
        check "mem 3" true (Interp.mem s 3);
        check "mem 2" false (Interp.mem s 2);
        check "remove" false (Interp.mem (Interp.remove s 3) 3);
        check "add" true (Interp.mem (Interp.add s 2) 2));
    Alcotest.test_case "subset" `Quick (fun () ->
        check "sub" true (Interp.subset (mk [ 1; 3 ]) (mk [ 1; 2; 3 ]));
        check "not sub" false (Interp.subset (mk [ 1; 4 ]) (mk [ 1; 2; 3 ]));
        check "proper" true (Interp.proper_subset (mk [ 1 ]) (mk [ 1; 2 ]));
        check "not proper (equal)" false
          (Interp.proper_subset (mk [ 1; 2 ]) (mk [ 1; 2 ])));
    Alcotest.test_case "algebra" `Quick (fun () ->
        let a = mk [ 1; 2; 3 ] and b = mk [ 3; 4 ] in
        check "union" true (Interp.equal (Interp.union a b) (mk [ 1; 2; 3; 4 ]));
        check "inter" true (Interp.equal (Interp.inter a b) (mk [ 3 ]));
        check "diff" true (Interp.equal (Interp.diff a b) (mk [ 1; 2 ])));
    Alcotest.test_case "masked comparisons" `Quick (fun () ->
        let mask = mk [ 0; 1; 2 ] in
        let a = mk [ 1; 5 ] and b = mk [ 1; 2; 7 ] in
        check "subset within" true (Interp.subset_within mask a b);
        check "equal within (no)" false (Interp.equal_within mask a b);
        check "equal within (yes)" true
          (Interp.equal_within (mk [ 1 ]) a b));
    Alcotest.test_case "word boundary (65 atoms)" `Quick (fun () ->
        let s = Interp.add (Interp.add (Interp.empty 65) 62) 64 in
        check "mem 62" true (Interp.mem s 62);
        check "mem 63" false (Interp.mem s 63);
        check "mem 64" true (Interp.mem s 64);
        check_int "card" 2 (Interp.cardinal s);
        check "complement card" true
          (Interp.cardinal (Interp.complement s) = 63));
    Alcotest.test_case "full/complement across word boundaries" `Quick
      (fun () ->
        (* regression: [full] silently lost every 63rd atom when a "full
           word" was computed as [-1 lsr 1] against 63-bit words *)
        List.iter
          (fun n ->
            let full = Interp.full n in
            check_int (Printf.sprintf "card full %d" n) n (Interp.cardinal full);
            check
              (Printf.sprintf "full %d = of_list" n)
              true
              (Interp.equal full (Interp.of_list n (List.init n Fun.id)));
            check
              (Printf.sprintf "complement empty %d" n)
              true
              (Interp.equal (Interp.complement (Interp.empty n)) full);
            for x = 0 to n - 1 do
              let c = Interp.complement (Interp.singleton n x) in
              if Interp.cardinal c <> n - 1 || Interp.mem c x then
                Alcotest.failf "complement broken at n=%d x=%d" n x
            done)
          [ 1; 61; 62; 63; 64; 80; 123; 124; 125; 130 ]);
    Alcotest.test_case "union covers across boundaries" `Quick (fun () ->
        let n = 80 in
        let evens = Interp.of_pred n (fun x -> x mod 2 = 0) in
        let odds = Interp.of_pred n (fun x -> x mod 2 = 1) in
        check "partition covers" true
          (Interp.equal (Interp.union evens odds) (Interp.full n)));
    Alcotest.test_case "all 2^4" `Quick (fun () ->
        check_int "count" 16 (List.length (Interp.all 4)));
    Alcotest.test_case "to_list/of_list roundtrip" `Quick (fun () ->
        let l = [ 0; 4; 9 ] in
        Alcotest.(check (list int)) "roundtrip" l (Interp.to_list (mk l)));
  ]

(* --- Clause --- *)

let clause_suite =
  [
    Alcotest.test_case "normalization" `Quick (fun () ->
        let c = Clause.make ~head:[ 3; 1; 3 ] ~pos:[ 2; 2 ] ~neg:[ 0 ] in
        Alcotest.(check (list int)) "head" [ 1; 3 ] (Clause.head c);
        Alcotest.(check (list int)) "pos" [ 2 ] (Clause.body_pos c);
        Alcotest.(check (list int)) "neg" [ 0 ] (Clause.body_neg c));
    Alcotest.test_case "classification" `Quick (fun () ->
        check "integrity" true
          (Clause.is_integrity (Clause.integrity ~pos:[ 1 ] ~neg:[]));
        check "positive" true
          (Clause.is_positive (Clause.make ~head:[ 1 ] ~pos:[ 2 ] ~neg:[]));
        check "not positive" false
          (Clause.is_positive (Clause.make ~head:[ 1 ] ~pos:[] ~neg:[ 2 ]));
        check "definite" true
          (Clause.is_definite (Clause.make ~head:[ 1 ] ~pos:[ 2 ] ~neg:[]));
        check "disjunctive" true (Clause.is_disjunctive (Clause.fact [ 1; 2 ])));
    Alcotest.test_case "satisfaction" `Quick (fun () ->
        let c = Clause.make ~head:[ 0 ] ~pos:[ 1 ] ~neg:[ 2 ] in
        let m = Interp.of_list 3 in
        (* body true, head false: violated *)
        check "violated" false (Clause.satisfied_by (m [ 1 ]) c);
        (* body true, head true: ok *)
        check "head true" true (Clause.satisfied_by (m [ 0; 1 ]) c);
        (* body blocked by neg: ok *)
        check "neg blocks" true (Clause.satisfied_by (m [ 1; 2 ]) c);
        (* body missing pos: ok *)
        check "pos missing" true (Clause.satisfied_by (m []) c));
    Alcotest.test_case "integrity semantics" `Quick (fun () ->
        let c = Clause.integrity ~pos:[ 0; 1 ] ~neg:[] in
        let m = Interp.of_list 2 in
        check "both true: violated" false (Clause.satisfied_by (m [ 0; 1 ]) c);
        check "one true: ok" true (Clause.satisfied_by (m [ 0 ]) c));
    Alcotest.test_case "to_lits round" `Quick (fun () ->
        let c = Clause.make ~head:[ 0 ] ~pos:[ 1 ] ~neg:[ 2 ] in
        Alcotest.(check (list string))
          "lits"
          [ "0"; "~1"; "2" ]
          (List.map Lit.to_string (Clause.to_lits c)));
    Alcotest.test_case "reduce (GL)" `Quick (fun () ->
        let c = Clause.make ~head:[ 0 ] ~pos:[ 1 ] ~neg:[ 2 ] in
        let m = Interp.of_list 3 in
        check "kept" true (Clause.reduce (m [ 1 ]) c <> None);
        check "dropped" true (Clause.reduce (m [ 2 ]) c = None);
        (match Clause.reduce (m []) c with
        | Some c' -> check "neg erased" true (Clause.body_neg c' = [])
        | None -> Alcotest.fail "should be kept"));
    Alcotest.test_case "to_string: one line with both body kinds" `Quick
      (fun () ->
        (* long enough that a break hint between the two body kinds
           would be taken *)
        let pos = List.init 30 (fun i -> 100 + i)
        and neg = List.init 30 (fun i -> 200 + i) in
        let s = Clause.to_string (Clause.make ~head:[ 0 ] ~pos ~neg) in
        Alcotest.(check bool) "no newline" false (String.contains s '\n');
        let body =
          List.map string_of_int pos
          @ List.map (fun x -> "not " ^ string_of_int x) neg
        in
        Alcotest.(check string)
          "printed" ("0 :- " ^ String.concat ", " body ^ ".") s);
    Alcotest.test_case "shift_negation" `Quick (fun () ->
        let c = Clause.make ~head:[ 0 ] ~pos:[ 1 ] ~neg:[ 2; 3 ] in
        let c' = Clause.shift_negation c in
        Alcotest.(check (list int)) "head" [ 0; 2; 3 ] (Clause.head c');
        Alcotest.(check (list int)) "neg" [] (Clause.body_neg c'));
  ]

(* --- Formula --- *)

let formula_suite =
  let open Formula in
  [
    Alcotest.test_case "eval" `Quick (fun () ->
        let f = Imp (Atom 0, And (Atom 1, Not (Atom 2))) in
        let m = Interp.of_list 3 in
        check "antecedent false" true (eval (m []) f);
        check "consequent ok" true (eval (m [ 0; 1 ]) f);
        check "consequent bad" false (eval (m [ 0; 1; 2 ]) f));
    Alcotest.test_case "smart constructors" `Quick (fun () ->
        check "and false" true (equal (and_ (Atom 1) False) False);
        check "or true" true (equal (or_ (Atom 1) True) True);
        check "double neg" true (equal (not_ (not_ (Atom 1))) (Atom 1)));
    Alcotest.test_case "cnf equivalence (exhaustive, 3 atoms)" `Quick (fun () ->
        let candidates =
          [
            Iff (Atom 0, Or (Atom 1, Not (Atom 2)));
            Imp (And (Atom 0, Atom 1), Atom 2);
            Not (Iff (Atom 0, Atom 1));
            Or (And (Atom 0, Atom 1), And (Not (Atom 0), Atom 2));
          ]
        in
        List.iter
          (fun f ->
            let cnf = cnf f in
            List.iter
              (fun m ->
                let direct = eval m f in
                let via_cnf =
                  List.for_all (fun c -> List.exists (Lit.holds m) c) cnf
                in
                check (to_string f) direct via_cnf)
              (Interp.all 3))
          candidates);
    Alcotest.test_case "dnf equivalence (exhaustive, 3 atoms)" `Quick (fun () ->
        let f = Iff (Atom 0, Or (Atom 1, Not (Atom 2))) in
        let dnf = dnf f in
        List.iter
          (fun m ->
            let via_dnf =
              List.exists (fun t -> List.for_all (Lit.holds m) t) dnf
            in
            check "dnf" (eval m f) via_dnf)
          (Interp.all 3));
    Alcotest.test_case "atoms" `Quick (fun () ->
        Alcotest.(check (list int))
          "atoms" [ 0; 1; 2 ]
          (atoms (Imp (Atom 2, And (Atom 0, Atom 1)))));
  ]

(* --- Parse --- *)

let parse_suite =
  [
    Alcotest.test_case "program" `Quick (fun () ->
        let vocab = Vocab.create () in
        let clauses =
          Parse.program vocab
            "% a comment\n\
             a | b :- c, not d.\n\
             :- a, b.\n\
             c.\n\
             a | b.\n"
        in
        check_int "4 clauses" 4 (List.length clauses);
        let a = Vocab.intern vocab "a"
        and b = Vocab.intern vocab "b"
        and c = Vocab.intern vocab "c"
        and d = Vocab.intern vocab "d" in
        (match clauses with
        | [ c1; c2; c3; c4 ] ->
          check "rule" true
            (Clause.equal c1 (Clause.make ~head:[ a; b ] ~pos:[ c ] ~neg:[ d ]));
          check "integrity" true
            (Clause.equal c2 (Clause.integrity ~pos:[ a; b ] ~neg:[]));
          check "fact" true (Clause.equal c3 (Clause.fact [ c ]));
          check "disj fact" true (Clause.equal c4 (Clause.fact [ a; b ]))
        | _ -> Alcotest.fail "clause count"));
    Alcotest.test_case "formula" `Quick (fun () ->
        let vocab = Vocab.create () in
        let f = Parse.formula vocab "~a & (b | c) -> d <-> e" in
        let expect =
          let atom name = Formula.Atom (Vocab.intern vocab name) in
          Formula.Iff
            ( Formula.Imp
                ( Formula.And
                    (Formula.Not (atom "a"), Formula.Or (atom "b", atom "c")),
                  atom "d" ),
              atom "e" )
        in
        check "precedence" true (Formula.equal f expect));
    Alcotest.test_case "literal" `Quick (fun () ->
        let vocab = Vocab.create () in
        check "pos" true (Parse.literal vocab "a" = Lit.Pos 0);
        check "neg" true (Parse.literal vocab "~b" = Lit.Neg 1);
        check "rejects" true
          (try
             ignore (Parse.literal vocab "a & b");
             false
           with Parse.Error _ -> true));
    Alcotest.test_case "errors" `Quick (fun () ->
        let vocab = Vocab.create () in
        let fails s =
          try
            ignore (Parse.program vocab s);
            false
          with Parse.Error _ -> true
        in
        check "missing dot" true (fails "a | b");
        check "empty clause" true (fails ".");
        check "bad char" true (fails "a @ b."));
    Alcotest.test_case ".ddb/.dl readings" `Quick (fun () ->
        (* Each program text is read as a .ddb program and as a .dl program.
           A reading is [Ok printed]: the clauses (then, after '%', the
           atoms in id order) or the rules (a variable printed as ?X); or
           [Error "line:col"], where the message must start. *)
        let show head pos neg =
          let body = pos @ List.map (( ^ ) "not ") neg in
          String.concat " | " head
          ^ (if body = [] then ""
             else
               (if head = [] then ":- " else " :- ") ^ String.concat ", " body)
          ^ "."
        in
        let ddb src =
          let vocab = Vocab.create () in
          let names = List.map (Vocab.name vocab) in
          match Parse.program vocab src with
          | clauses ->
            let clause c =
              show (names (Clause.head c)) (names (Clause.body_pos c))
                (names (Clause.body_neg c))
            in
            Ok
              (String.concat " " (List.map clause clauses)
              ^ " % "
              ^ String.concat " " (names (List.init (Vocab.size vocab) Fun.id)))
          | exception Parse.Error msg -> Error msg
        in
        let dl src =
          let atom (a : Ast.atom) =
            Ast.name a.pred
              (List.map
                 (function Ast.Var v -> "?" ^ v | Ast.Const c -> c)
                 a.args)
          in
          let rule (r : Ast.rule) =
            show (List.map atom r.head) (List.map atom r.pos)
              (List.map atom r.neg)
          in
          match Parse.datalog src with
          | rules -> Ok (String.concat " " (List.map rule rules))
          | exception Parse.Error msg -> Error msg
        in
        let agrees what expected got =
          match (expected, got) with
          | Ok e, Ok g -> Alcotest.(check string) what e g
          | Error at, Error msg ->
            if not (String.starts_with ~prefix:(at ^ ":") msg) then
              Alcotest.failf "%s: error %S is not at %s" what msg at
          | Ok e, Error msg ->
            Alcotest.failf "%s: rejected (%s), expected %s" what msg e
          | Error at, Ok g ->
            Alcotest.failf "%s: read %s, expected an error at %s" what g at
        in
        List.iter
          (fun (src, as_ddb, as_dl) ->
            agrees (".ddb " ^ src) as_ddb (ddb src);
            agrees (".dl " ^ src) as_dl (dl src))
          [
            (* names: an argument list is part of a .ddb atom's name; an
               uppercase word is an atom in .ddb, a variable in .dl *)
            ("p(a, b).", Ok "p(a,b). % p(a,b)", Ok "p(a,b).");
            ("A :- p(A).", Ok "A :- p(A). % A p(A)", Error "1:1");
            ( "p(A) :- q(A, b), not r(_x).",
              Ok "p(A) :- q(A,b), not r(_x). % p(A) q(A,b) r(_x)",
              Ok "p(?A) :- q(?A,b), not r(?_x)." );
            ("_p.", Ok "_p. % _p", Error "1:1");
            (* kept rejections: .ddb atom names starting with a digit or
               named true/false; 'not' names no atom *)
            ("1a.", Error "1:1", Ok "1a.");
            ("a :- b, 2.", Error "1:9", Ok "a :- b, 2.");
            ("true.", Error "1:1", Ok "true.");
            ("a :- false.", Error "1:6", Ok "a :- false.");
            ("a :- not not b.", Error "1:10", Error "1:10");
            (* newly accepted with the shared grammar: in .ddb, whitespace
               in and before an argument list; in .dl, '~' for 'not', and
               'not' or a primed word as an argument *)
            ( "p( a , b ) | q.",
              Ok "p(a,b) | q. % p(a,b) q",
              Ok "p(a,b) | q." );
            ("p (a,\n b).", Ok "p(a,b). % p(a,b)", Ok "p(a,b).");
            ("a :- ~b.", Ok "a :- not b. % a b", Ok "a :- not b.");
            ("p(not, 'x).", Ok "p(not,'x). % p(not,'x)", Ok "p(not,'x).");
            (* atoms are interned in textual order *)
            ( "a :- not b, c.",
              Ok "a :- c, not b. % a b c",
              Ok "a :- c, not b." );
            (* errors carry line:col *)
            ("a.\na :- not a,\nb | c.", Error "3:3", Error "3:3");
            ("p(a.", Error "1:4", Error "1:4");
            ("p(a)", Error "1:5", Error "1:5");
            ("p(a) @ q.", Error "1:6", Error "1:6");
            ("p().", Error "1:3", Error "1:3");
            (".", Error "1:1", Error "1:1");
          ];
        (* queries read atoms as .ddb programs do *)
        let vocab = Vocab.create () in
        let p_ab = Formula.Atom (Vocab.intern vocab "p(a,b)") in
        List.iter
          (fun q ->
            check q true (Formula.equal (Parse.formula vocab q) p_ab))
          [ "p(a,b)"; "p(a, b)"; "p( a,b)"; "p (a,b)" ];
        List.iter
          (fun (q, at) ->
            agrees q (Error at)
              (match Parse.formula vocab q with
              | f -> Ok (Formula.to_string f)
              | exception Parse.Error msg -> Error msg))
          [
            ("1a | b", "1:1"); ("a &\n (b | p(a)) c", "2:13"); ("p()", "1:3");
          ]);
    Alcotest.test_case "pp/parse roundtrip" `Quick (fun () ->
        let vocab = Vocab.create () in
        let clauses =
          Parse.program vocab "a | b :- c, not d. :- a. e."
        in
        let printed =
          String.concat " " (List.map (Clause.to_string ~vocab) clauses)
        in
        let reparsed = Parse.program vocab printed in
        check "roundtrip" true (List.for_all2 Clause.equal clauses reparsed));
  ]

(* --- Three-valued --- *)

let three_valued_suite =
  let open Three_valued in
  [
    Alcotest.test_case "value order" `Quick (fun () ->
        check "F<U" true (value_le F U && not (value_le U F));
        check "U<T" true (value_le U T && not (value_le T U));
        check "neg" true (value_neg U = U && value_neg T = F));
    Alcotest.test_case "interpretation order" `Quick (fun () ->
        let n = 3 in
        let i1 = make ~tru:(Interp.of_list n [ 0 ]) ~und:(Interp.of_list n [ 1 ]) in
        let i2 = make ~tru:(Interp.of_list n [ 0; 1 ]) ~und:(Interp.empty n) in
        check "le" true (le i1 i2);
        check "lt" true (lt i1 i2);
        check "not le back" false (le i2 i1));
    Alcotest.test_case "clause satisfaction" `Quick (fun () ->
        let n = 3 in
        let c = Clause.make ~head:[ 0 ] ~pos:[ 1 ] ~neg:[ 2 ] in
        (* val(1)=1, val(2)=0 -> body=1; head must be 1 *)
        let i_bad = make ~tru:(Interp.of_list n [ 1 ]) ~und:(Interp.empty n) in
        check "violated" false (satisfies_clause i_bad c);
        let i_half =
          make ~tru:(Interp.of_list n [ 1 ]) ~und:(Interp.of_list n [ 0 ])
        in
        (* head=1/2 < body=1: still violated *)
        check "half violated" false (satisfies_clause i_half c);
        let i_body_half =
          make ~tru:(Interp.empty n) ~und:(Interp.of_list n [ 0; 1 ])
        in
        (* body=1/2, head=1/2: satisfied *)
        check "half ok" true (satisfies_clause i_body_half c));
    Alcotest.test_case "all 3^n" `Quick (fun () ->
        check_int "3^3" 27 (List.length (all 3)));
    Alcotest.test_case "total iff no undefined" `Quick (fun () ->
        let n = 2 in
        check "total" true (is_total (of_two_valued (Interp.of_list n [ 0 ])));
        check "not total" false (is_total (all_undefined n)));
  ]

let suites =
  [
    ("logic.interp", interp_suite);
    ("logic.clause", clause_suite);
    ("logic.formula", formula_suite);
    ("logic.parse", parse_suite);
    ("logic.three_valued", three_valued_suite);
  ]
