(* Hand-written lexer and recursive-descent parser for programs (.ddb and
   .dl) and query formulas; the grammar is in parse.mli.  The clause rule
   takes the reading of an atom as a parameter and calls it on the atoms in
   textual order, so the propositional reading interns atoms in the order
   they are written. *)

exception Error of string

type loc = int * int (* line, column *)

let error_at (line, col) fmt =
  Fmt.kstr (fun s -> raise (Error (Printf.sprintf "%d:%d: %s" line col s))) fmt

type token =
  | WORD of string
  | PIPE
  | AMP
  | COMMA
  | DOT
  | TILDE
  | ARROW (* -> *)
  | DARROW (* <-> *)
  | IF (* :- *)
  | LPAREN
  | RPAREN
  | EOF

let token_to_string = function
  | WORD s -> Printf.sprintf "identifier %S" s
  | PIPE -> "'|'"
  | AMP -> "'&'"
  | COMMA -> "','"
  | DOT -> "'.'"
  | TILDE -> "'~'"
  | ARROW -> "'->'"
  | DARROW -> "'<->'"
  | IF -> "':-'"
  | LPAREN -> "'('"
  | RPAREN -> "')'"
  | EOF -> "end of input"

let is_lower c = c >= 'a' && c <= 'z'
let is_upper c = c >= 'A' && c <= 'Z'
let is_digit c = c >= '0' && c <= '9'

let is_word_char c =
  is_lower c || is_upper c || is_digit c || c = '_' || c = '\''

let tokenize src =
  let n = String.length src in
  let toks = ref [] in
  let i = ref 0 and line = ref 1 and line_start = ref 0 in
  let here () = (!line, !i - !line_start + 1) in
  let emit t len =
    toks := (t, here ()) :: !toks;
    i := !i + len
  in
  let starts s =
    !i + String.length s <= n && String.sub src !i (String.length s) = s
  in
  while !i < n do
    let c = src.[!i] in
    if c = '\n' then begin
      incr i;
      incr line;
      line_start := !i
    end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '%' then
      while !i < n && src.[!i] <> '\n' do
        incr i
      done
    else if is_word_char c then begin
      let j = ref !i in
      while !j < n && is_word_char src.[!j] do
        incr j
      done;
      emit (WORD (String.sub src !i (!j - !i))) (!j - !i)
    end
    else if starts "<->" then emit DARROW 3
    else if starts "->" then emit ARROW 2
    else if starts ":-" then emit IF 2
    else
      emit
        (match c with
        | '|' | ';' -> PIPE
        | '&' | '^' -> AMP
        | ',' -> COMMA
        | '.' -> DOT
        | '~' | '!' -> TILDE
        | '(' -> LPAREN
        | ')' -> RPAREN
        | _ -> error_at (here ()) "unexpected character %C" c)
        1
  done;
  List.rev ((EOF, here ()) :: !toks)

(* The token list always ends with EOF, which is never consumed. *)
type stream = { mutable toks : (token * loc) list }

let peek s = fst (List.hd s.toks)

let loc s = snd (List.hd s.toks)

let advance s =
  match s.toks with _ :: (_ :: _ as rest) -> s.toks <- rest | _ -> ()

let accept s t =
  let found = peek s = t in
  if found then advance s;
  found

let expect s t =
  if not (accept s t) then
    error_at (loc s) "expected %s but found %s" (token_to_string t)
      (token_to_string (peek s))

(* One or more [item]s separated by [sep]. *)
let sep_by sep item s =
  let rec more acc =
    if accept s sep then more (item s :: acc) else List.rev acc
  in
  more [ item s ]

let word what s =
  match peek s with
  | WORD w ->
    advance s;
    w
  | t -> error_at (loc s) "expected %s but found %s" what (token_to_string t)

let whole parse src =
  let s = { toks = tokenize src } in
  let x = parse s in
  expect s EOF;
  x

let of_file parse path =
  let src = In_channel.with_open_text path In_channel.input_all in
  try parse src with Error msg -> raise (Error (path ^ ":" ^ msg))

(* --- atoms and clauses --- *)

(* word[(word, ..., word)]: where the atom starts, its name, its arguments. *)
let atom s =
  let at = loc s in
  let pred = word "an atom name" s in
  if pred = "not" then error_at at "'not' is not an atom name";
  let args =
    if accept s LPAREN then begin
      let args = sep_by COMMA (word "an argument") s in
      expect s RPAREN;
      args
    end
    else []
  in
  (at, pred, args)

(* head :- body.  [read] reads each atom, in textual order; [make] builds
   the clause from the head, the positive and the negative body. *)
let clauses read make =
  let body_literal s =
    let negated =
      match peek s with
      | WORD "not" | TILDE ->
        advance s;
        true
      | _ -> false
    in
    (negated, read s)
  in
  let clause s =
    let at = loc s in
    let head = match peek s with IF | DOT -> [] | _ -> sep_by PIPE read s in
    let body = if accept s IF then sep_by COMMA body_literal s else [] in
    expect s DOT;
    if head = [] && body = [] then
      error_at at "clause with empty head and empty body";
    let neg, pos = List.partition fst body in
    make head (List.map snd pos) (List.map snd neg)
  in
  whole (fun s ->
      let rec go acc =
        if peek s = EOF then List.rev acc else go (clause s :: acc)
      in
      go [])

(* The propositional reading: intern the atom's name. *)
let intern vocab s =
  let at, pred, args = atom s in
  let c = pred.[0] in
  if not (is_lower c || is_upper c || c = '_') then
    error_at at "atom name %S does not start with a letter or '_'" pred;
  if pred = "true" || pred = "false" then
    error_at at "'%s' is a constant, not an atom name" pred;
  Vocab.intern vocab (Ast.name pred args)

let program vocab =
  clauses (intern vocab) (fun head pos neg -> Clause.make ~head ~pos ~neg)

let program_of_file vocab = of_file (program vocab)

(* The Datalog reading: a word starting like a variable is a [Var]. *)
let is_var w = is_upper w.[0] || w.[0] = '_'

let datalog_atom s =
  let at, pred, args = atom s in
  if not (is_lower pred.[0] || is_digit pred.[0]) then
    error_at at "predicate %S does not start with a lowercase letter or a digit"
      pred;
  Ast.atom pred
    (List.map (fun w -> if is_var w then Ast.Var w else Ast.Const w) args)

let datalog = clauses datalog_atom (fun head pos neg -> { Ast.head; pos; neg })

let datalog_of_file = of_file datalog

(* --- formulas --- *)

let rec iff vocab s =
  let lhs = imp vocab s in
  if accept s DARROW then Formula.Iff (lhs, iff vocab s) else lhs

and imp vocab s =
  let lhs = disj vocab s in
  if accept s ARROW then Formula.Imp (lhs, imp vocab s) else lhs

and disj vocab s =
  let rec more lhs =
    if accept s PIPE then more (Formula.Or (lhs, conj vocab s)) else lhs
  in
  more (conj vocab s)

and conj vocab s =
  let rec more lhs =
    if accept s AMP || accept s COMMA then
      more (Formula.And (lhs, unary vocab s))
    else lhs
  in
  more (unary vocab s)

and unary vocab s =
  match peek s with
  | TILDE | WORD "not" ->
    advance s;
    Formula.Not (unary vocab s)
  | WORD "true" ->
    advance s;
    Formula.True
  | WORD "false" ->
    advance s;
    Formula.False
  | LPAREN ->
    advance s;
    let f = iff vocab s in
    expect s RPAREN;
    f
  | WORD _ -> Formula.Atom (intern vocab s)
  | t -> error_at (loc s) "expected a formula but found %s" (token_to_string t)

let formula vocab = whole (iff vocab)

let literal vocab =
  whole (fun s ->
      let at = loc s in
      match iff vocab s with
      | Formula.Atom x -> Lit.Pos x
      | Formula.Not (Formula.Atom x) -> Lit.Neg x
      | _ -> error_at at "expected a literal (atom or ~atom)")
