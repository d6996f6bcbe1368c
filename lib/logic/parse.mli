(** Parsers for the textual formats: propositional programs ([.ddb]),
    non-ground disjunctive Datalog programs ([.dl]) and query formulas.
    The three share one lexer, and the two program formats share one
    clause grammar:

    {v
    program ::= clause*
    clause  ::= head [':-' body] '.'       (head and body not both empty)
    head    ::= atom ('|' atom)*  |  (empty)
    body    ::= literal (',' literal)*
    literal ::= atom  |  'not' atom  |  '~' atom
    atom    ::= word ['(' word (',' word)* ')']

    formula ::= imp ['<->' formula]
    imp     ::= disj ['->' imp]
    disj    ::= conj ('|' conj)*
    conj    ::= unary (('&' | ',') unary)*
    unary   ::= ('~' | 'not') unary | 'true' | 'false' | '(' formula ')'
              | atom
    v}

    A word is [[A-Za-z0-9_']+]; ['%'] comments to end of line;
    [';'] also reads as ['|'], ['^'] as ['&'] and ['!'] as ['~'].  No atom
    is named [not].

    In programs and queries ({!program}, {!formula}, {!literal}) an atom
    [p(c1, ..., ck)] is the propositional atom named
    {!Ast.name}[ p [c1; ...; ck]], e.g. [win(b)] as the grounder names it.
    Its name starts with a letter or ['_'] and is not [true] or [false].
    Atoms are interned into the given vocabulary in textual order.

    In Datalog programs ({!datalog}) a predicate starts with a lowercase
    letter or a digit, and an argument that starts with an uppercase letter
    or ['_'] is a variable.

    Every error message starts with [line:col: ] (both counted from 1); the
    [_of_file] readers prefix the file name, [file:line:col: ]. *)

exception Error of string

val program : Vocab.t -> string -> Clause.t list
(** Parse a whole program.  @raise Error on malformed input. *)

val program_of_file : Vocab.t -> string -> Clause.t list

val datalog : string -> Ast.program
(** Parse a non-ground Datalog program.  @raise Error on malformed input. *)

val datalog_of_file : string -> Ast.program

val formula : Vocab.t -> string -> Formula.t
(** Parse a query formula.  @raise Error on malformed input. *)

val literal : Vocab.t -> string -> Lit.t
(** Parse [atom] or [~atom].  @raise Error otherwise. *)
