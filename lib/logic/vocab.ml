(* Interning table mapping atom names to dense integer ids.

   Every database, interpretation and formula in this library speaks about
   atoms as integers [0 .. size-1]; the vocabulary is the single place that
   remembers their names.  Interning is append-only: ids are stable for the
   lifetime of the vocabulary. *)

type t = {
  tbl : (string, int) Hashtbl.t;
  mutable names : string array;
  mutable n : int;
}

let create ?(capacity = 64) () =
  { tbl = Hashtbl.create capacity; names = Array.make (max capacity 1) ""; n = 0 }

let size t = t.n

let grow t =
  let cap = Array.length t.names in
  if t.n >= cap then begin
    let names = Array.make (2 * cap) "" in
    Array.blit t.names 0 names 0 t.n;
    t.names <- names
  end

let intern t name =
  match Hashtbl.find_opt t.tbl name with
  | Some id -> id
  | None ->
    let id = t.n in
    grow t;
    t.names.(id) <- name;
    t.n <- t.n + 1;
    Hashtbl.add t.tbl name id;
    id

let find_opt t name = Hashtbl.find_opt t.tbl name

let name t id =
  if id < 0 || id >= t.n then invalid_arg "Vocab.name: id out of range";
  t.names.(id)

(* Fresh atom whose name does not collide with any interned one.  Used by
   reductions that need new atoms ("let a, b, c be new atoms..."). *)
let fresh t base =
  if not (Hashtbl.mem t.tbl base) then intern t base
  else
    let rec try_suffix k =
      let candidate = Printf.sprintf "%s_%d" base k in
      if Hashtbl.mem t.tbl candidate then try_suffix (k + 1)
      else intern t candidate
    in
    try_suffix 0

let copy t =
  { tbl = Hashtbl.copy t.tbl; names = Array.copy t.names; n = t.n }

(* Vocabulary with atoms named "x0".."x{n-1}"; handy in tests and generators. *)
let of_size ?(prefix = "x") n =
  let t = create ~capacity:(max n 1) () in
  for i = 0 to n - 1 do
    ignore (intern t (prefix ^ string_of_int i))
  done;
  t
