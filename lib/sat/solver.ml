open Ddb_logic

(* Conflict-driven clause learning SAT solver: two-watched-literal
   propagation, first-UIP learning with non-chronological backjumping,
   VSIDS-style variable activities, phase saving, Luby restarts, and
   incremental use (add clauses between solves, solve under assumptions).

   This solver is the "NP oracle" of the reproduction: every coNP / NP /
   Sigma2/Pi2 upper-bound algorithm in lib/core funnels its oracle queries
   through [solve], and the benches count those calls via {!Stats}. *)

type result = Sat | Unsat

type t = {
  mutable num_vars : int;
  (* Clause database.  Each clause is an array of packed literals; the first
     two positions are the watched literals. *)
  mutable clauses : int array array;
  mutable n_clauses : int;
  mutable n_problem_clauses : int; (* excludes learned clauses *)
  (* watches.(l) = indices of clauses currently watching packed literal l *)
  mutable watches : int list array;
  (* Per-variable state *)
  mutable assigns : int array; (* -1 unassigned, 0 false, 1 true *)
  mutable level : int array;
  mutable reason : int array; (* clause index or -1 *)
  mutable activity : float array;
  mutable saved_phase : bool array;
  mutable seen : bool array; (* scratch for conflict analysis *)
  (* Trail *)
  mutable trail : int array; (* packed literals, assignment order *)
  mutable trail_size : int;
  mutable trail_lim : int array; (* trail size at each decision *)
  mutable n_levels : int;
  mutable qhead : int;
  (* Heuristics *)
  mutable var_inc : float;
  (* Status and statistics *)
  mutable root_unsat : bool;
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
}

let var_decay = 0.95
let rescale_threshold = 1e100

let create ?(num_vars = 0) () =
  let cap = max num_vars 4 in
  {
    num_vars;
    clauses = Array.make 16 [||];
    n_clauses = 0;
    n_problem_clauses = 0;
    watches = Array.make (2 * cap) [];
    assigns = Array.make cap (-1);
    level = Array.make cap 0;
    reason = Array.make cap (-1);
    activity = Array.make cap 0.0;
    saved_phase = Array.make cap false;
    seen = Array.make cap false;
    trail = Array.make cap 0;
    trail_size = 0;
    trail_lim = Array.make 16 0;
    n_levels = 0;
    qhead = 0;
    var_inc = 1.0;
    root_unsat = false;
    conflicts = 0;
    decisions = 0;
    propagations = 0;
  }

let conflicts t = t.conflicts
let decisions t = t.decisions
let propagations t = t.propagations

let grow_array arr len fill =
  let cap = Array.length arr in
  if len <= cap then arr
  else begin
    let arr' = Array.make (max len (2 * cap)) fill in
    Array.blit arr 0 arr' 0 cap;
    arr'
  end

let ensure_vars t n =
  if n > t.num_vars then begin
    t.watches <- grow_array t.watches (2 * n) [];
    t.assigns <- grow_array t.assigns n (-1);
    t.level <- grow_array t.level n 0;
    t.reason <- grow_array t.reason n (-1);
    t.activity <- grow_array t.activity n 0.0;
    t.saved_phase <- grow_array t.saved_phase n false;
    t.seen <- grow_array t.seen n false;
    t.trail <- grow_array t.trail n 0;
    t.num_vars <- n
  end

let new_var t =
  let v = t.num_vars in
  ensure_vars t (v + 1);
  v

(* Value of a packed literal: -1 unknown, 0 false, 1 true. *)
let plit_value t l =
  let v = t.assigns.(Cnf.plit_var l) in
  if v < 0 then -1 else if Cnf.plit_sign l then v else 1 - v

let bump_var t v =
  t.activity.(v) <- t.activity.(v) +. t.var_inc;
  if t.activity.(v) > rescale_threshold then begin
    for i = 0 to t.num_vars - 1 do
      t.activity.(i) <- t.activity.(i) *. 1e-100
    done;
    t.var_inc <- t.var_inc *. 1e-100
  end

let decay_activities t = t.var_inc <- t.var_inc /. var_decay

let enqueue t l reason =
  let v = Cnf.plit_var l in
  t.assigns.(v) <- (if Cnf.plit_sign l then 1 else 0);
  t.level.(v) <- t.n_levels;
  t.reason.(v) <- reason;
  t.trail.(t.trail_size) <- l;
  t.trail_size <- t.trail_size + 1

let watch t l ci = t.watches.(l) <- ci :: t.watches.(l)

let attach_clause t lits =
  let ci = t.n_clauses in
  if ci >= Array.length t.clauses then begin
    let clauses = Array.make (2 * Array.length t.clauses) [||] in
    Array.blit t.clauses 0 clauses 0 t.n_clauses;
    t.clauses <- clauses
  end;
  t.clauses.(ci) <- lits;
  t.n_clauses <- t.n_clauses + 1;
  watch t lits.(0) ci;
  watch t lits.(1) ci;
  ci

(* Two-watched-literal unit propagation.  Returns the index of a conflicting
   clause, or -1 if a fixpoint is reached. *)
let propagate t =
  let conflict = ref (-1) in
  while !conflict < 0 && t.qhead < t.trail_size do
    let p = t.trail.(t.qhead) in
    t.qhead <- t.qhead + 1;
    t.propagations <- t.propagations + 1;
    Stats.bump_propagation ();
    let false_lit = Cnf.plit_negate p in
    let pending = t.watches.(false_lit) in
    t.watches.(false_lit) <- [];
    let rec go = function
      | [] -> ()
      | ci :: rest ->
        let c = t.clauses.(ci) in
        (* Make sure the false literal is in position 1. *)
        if c.(0) = false_lit then begin
          c.(0) <- c.(1);
          c.(1) <- false_lit
        end;
        if plit_value t c.(0) = 1 then begin
          (* Clause already satisfied; keep the watch. *)
          watch t false_lit ci;
          go rest
        end
        else begin
          (* Look for a new literal to watch. *)
          let len = Array.length c in
          let rec find k =
            if k >= len then -1
            else if plit_value t c.(k) <> 0 then k
            else find (k + 1)
          in
          let k = find 2 in
          if k >= 0 then begin
            c.(1) <- c.(k);
            c.(k) <- false_lit;
            watch t c.(1) ci;
            go rest
          end
          else begin
            (* Unit or conflicting. *)
            watch t false_lit ci;
            if plit_value t c.(0) = 0 then begin
              conflict := ci;
              (* Keep the remaining watches intact. *)
              List.iter (watch t false_lit) rest
            end
            else begin
              enqueue t c.(0) ci;
              go rest
            end
          end
        end
    in
    go pending
  done;
  !conflict

let backtrack t lvl =
  if t.n_levels > lvl then begin
    let bound = t.trail_lim.(lvl) in
    for i = t.trail_size - 1 downto bound do
      let v = Cnf.plit_var t.trail.(i) in
      t.saved_phase.(v) <- t.assigns.(v) = 1;
      t.assigns.(v) <- -1;
      t.reason.(v) <- -1
    done;
    t.trail_size <- bound;
    t.qhead <- bound;
    t.n_levels <- lvl
  end

let new_decision_level t =
  if t.n_levels >= Array.length t.trail_lim then begin
    let lim = Array.make (2 * Array.length t.trail_lim) 0 in
    Array.blit t.trail_lim 0 lim 0 t.n_levels;
    t.trail_lim <- lim
  end;
  t.trail_lim.(t.n_levels) <- t.trail_size;
  t.n_levels <- t.n_levels + 1

(* First-UIP conflict analysis.  Returns the learned clause (asserting
   literal first) and the backjump level. *)
let analyze t confl =
  let learnt = ref [] in
  let touched = ref [] in (* seen flags to clear afterwards *)
  let counter = ref 0 in
  let p = ref (-1) in
  let index = ref (t.trail_size - 1) in
  let confl = ref confl in
  let continue = ref true in
  while !continue do
    let c = t.clauses.(!confl) in
    Array.iter
      (fun q ->
        if q <> !p then begin
          let v = Cnf.plit_var q in
          if (not t.seen.(v)) && t.level.(v) > 0 then begin
            t.seen.(v) <- true;
            touched := v :: !touched;
            bump_var t v;
            if t.level.(v) >= t.n_levels then incr counter
            else learnt := q :: !learnt
          end
        end)
      c;
    (* Select the next literal to resolve on: the most recently assigned
       literal that is marked seen.  [seen] stays set so a variable is never
       processed twice. *)
    while not t.seen.(Cnf.plit_var t.trail.(!index)) do
      decr index
    done;
    p := t.trail.(!index);
    decr index;
    decr counter;
    if !counter = 0 then continue := false
    else confl := t.reason.(Cnf.plit_var !p)
  done;
  let learnt_lits = Cnf.plit_negate !p :: !learnt in
  (* Backjump level: highest level among the non-asserting literals. *)
  let bj =
    List.fold_left
      (fun acc q -> max acc (t.level.(Cnf.plit_var q)))
      0 !learnt
  in
  List.iter (fun v -> t.seen.(v) <- false) !touched;
  let arr = Array.of_list learnt_lits in
  (* Keep the watch invariant after backjumping: position 1 must hold a
     literal from the backjump level (the deepest among the rest). *)
  if Array.length arr > 2 then begin
    let best = ref 1 in
    for k = 2 to Array.length arr - 1 do
      if t.level.(Cnf.plit_var arr.(k)) > t.level.(Cnf.plit_var arr.(!best))
      then best := k
    done;
    let tmp = arr.(1) in
    arr.(1) <- arr.(!best);
    arr.(!best) <- tmp
  end;
  (arr, bj)

(* Add a clause (packed literals).  Must be called with the trail at level 0.
   Performs basic simplification against the level-0 assignment. *)
let add_plit_clause t plits =
  backtrack t 0;
  if not t.root_unsat then begin
    List.iter (fun l -> ensure_vars t (Cnf.plit_var l + 1)) plits;
    let lits = List.sort_uniq Int.compare plits in
    let tautological =
      let rec has_pair = function
        | a :: (b :: _ as rest) ->
          (a lxor b = 1 && a lsr 1 = b lsr 1) || has_pair rest
        | _ -> false
      in
      has_pair lits
    in
    let satisfied = List.exists (fun l -> plit_value t l = 1) lits in
    if not (tautological || satisfied) then begin
      let lits = List.filter (fun l -> plit_value t l <> 0) lits in
      match lits with
      | [] -> t.root_unsat <- true
      | [ l ] ->
        enqueue t l (-1);
        if propagate t >= 0 then t.root_unsat <- true
      | l0 :: l1 :: _ ->
        let arr = Array.of_list lits in
        arr.(0) <- l0;
        arr.(1) <- l1;
        ignore (attach_clause t arr);
        t.n_problem_clauses <- t.n_problem_clauses + 1
    end
  end

let add_clause t lits = add_plit_clause t (List.map Cnf.plit_of_lit lits)

let add_formula t ~next_var f =
  let clauses, next_var', out = Cnf.tseitin ~next_var f in
  ensure_vars t next_var';
  List.iter (add_clause t) clauses;
  add_clause t [ out ];
  next_var'

(* Decision: unassigned variable of maximal activity (linear scan — our
   universes are small enough that a heap is not worth the complexity). *)
let pick_branch_var t =
  let best = ref (-1) in
  let best_act = ref neg_infinity in
  for v = 0 to t.num_vars - 1 do
    if t.assigns.(v) < 0 && t.activity.(v) > !best_act then begin
      best := v;
      best_act := t.activity.(v)
    end
  done;
  !best

(* Luby sequence 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ..., 1-indexed via [i + 1]. *)
let luby i =
  let rec go i =
    (* smallest k with 2^k - 1 >= i *)
    let rec find k = if (1 lsl k) - 1 >= i then k else find (k + 1) in
    let k = find 1 in
    if (1 lsl k) - 1 = i then 1 lsl (k - 1)
    else go (i - (1 lsl (k - 1)) + 1)
  in
  go (i + 1)

exception Found_unsat
exception Found_sat
exception Assumption_failed

let solve_core ?(assumptions = []) t =
  Stats.bump_sat ();
  Ddb_budget.Budget.on_solve ();
  backtrack t 0;
  if t.root_unsat then Unsat
  else if propagate t >= 0 then begin
    t.root_unsat <- true;
    Unsat
  end
  else begin
    let assumptions = List.map Cnf.plit_of_lit assumptions in
    List.iter (fun l -> ensure_vars t (Cnf.plit_var l + 1)) assumptions;
    let n_assumptions = List.length assumptions in
    let assumption_arr = Array.of_list assumptions in
    let restart_count = ref 0 in
    (* Budget accounting: propagations are charged lazily, as the delta
       since the previous conflict, so the hot propagate loop stays
       untouched. *)
    let last_props = ref t.propagations in
    try
      while true do
        let conflict_budget = 64 * luby !restart_count in
        incr restart_count;
        let conflicts_here = ref 0 in
        backtrack t 0;
        (try
           while true do
             let confl = propagate t in
             if confl >= 0 then begin
               t.conflicts <- t.conflicts + 1;
               Stats.bump_conflict ();
               Ddb_budget.Budget.charge ~conflicts:1
                 ~propagations:(t.propagations - !last_props) ();
               last_props := t.propagations;
               incr conflicts_here;
               if t.n_levels <= 0 then begin
                 t.root_unsat <- true;
                 raise Found_unsat
               end;
               let learnt, bj = analyze t confl in
               (* Never backjump into nothing: if the learned clause is
                  unit, assert at level 0. *)
               backtrack t bj;
               decay_activities t;
               if Array.length learnt = 1 then begin
                 if plit_value t learnt.(0) = 0 then begin
                   t.root_unsat <- true;
                   raise Found_unsat
                 end
                 else if plit_value t learnt.(0) < 0 then enqueue t learnt.(0) (-1)
               end
               else begin
                 let ci = attach_clause t learnt in
                 enqueue t learnt.(0) ci
               end;
               if !conflicts_here > conflict_budget then raise Exit
             end
             else begin
               (* Assumptions first, then heuristic decisions. *)
               if t.n_levels < n_assumptions then begin
                 let a = assumption_arr.(t.n_levels) in
                 match plit_value t a with
                 | 1 -> new_decision_level t (* already true: dummy level *)
                 | 0 -> raise Assumption_failed
                 | _ ->
                   new_decision_level t;
                   enqueue t a (-1)
               end
               else begin
                 let v = pick_branch_var t in
                 if v < 0 then raise Found_sat;
                 t.decisions <- t.decisions + 1;
                 Stats.bump_decision ();
                 new_decision_level t;
                 let l =
                   if t.saved_phase.(v) then Cnf.plit_pos v else Cnf.plit_neg v
                 in
                 enqueue t l (-1)
               end
             end
           done
         with Exit -> () (* restart *))
      done;
      assert false
    with
    | Found_sat -> Sat
    | Found_unsat ->
      backtrack t 0;
      Unsat
    | Assumption_failed ->
      backtrack t 0;
      Unsat
  end

let n_solve = Ddb_obs.Trace.name "sat.solve"
let n_assumptions = Ddb_obs.Trace.name "assumptions"
let n_conflicts = Ddb_obs.Trace.name "conflicts"
let n_decisions = Ddb_obs.Trace.name "decisions"
let n_propagations = Ddb_obs.Trace.name "propagations"
let n_result = Ddb_obs.Trace.name "result"

let solve ?(assumptions = []) t =
  if not (Ddb_obs.Trace.enabled ()) then solve_core ~assumptions t
  else begin
    let open Ddb_obs.Trace in
    let c0 = t.conflicts and d0 = t.decisions and p0 = t.propagations in
    begin_args n_solve [ (n_assumptions, Int (List.length assumptions)) ];
    let finished = ref false in
    Fun.protect
      ~finally:(fun () -> if not !finished then end_ n_solve)
      (fun () ->
        let r = solve_core ~assumptions t in
        finished := true;
        end_args n_solve
          [
            (n_result, Str (match r with Sat -> "sat" | Unsat -> "unsat"));
            (n_conflicts, Int (t.conflicts - c0));
            (n_decisions, Int (t.decisions - d0));
            (n_propagations, Int (t.propagations - p0));
          ];
        r)
  end

(* The model found by the last successful [solve].  Universe size can be
   requested explicitly so that callers with auxiliary (Tseitin) variables can
   project onto the original atoms. *)
let model ?universe t =
  let n = match universe with Some n -> n | None -> t.num_vars in
  Interp.of_pred n (fun v -> v < t.num_vars && t.assigns.(v) = 1)

let is_root_unsat t = t.root_unsat

(* Convenience: fresh solver over the given clauses. *)
let of_clauses ~num_vars clauses =
  let t = create ~num_vars () in
  List.iter (add_clause t) clauses;
  t

(* An independent solver in exactly [t]'s state.  Propagation swaps
   literals inside clause arrays, so those are copied one by one; the
   watch lists are immutable and shared (a solver only ever replaces a
   watch-array slot, never mutates a list). *)
let copy t =
  {
    t with
    clauses = Array.map Array.copy t.clauses;
    watches = Array.copy t.watches;
    assigns = Array.copy t.assigns;
    level = Array.copy t.level;
    reason = Array.copy t.reason;
    activity = Array.copy t.activity;
    saved_phase = Array.copy t.saved_phase;
    seen = Array.copy t.seen;
    trail = Array.copy t.trail;
    trail_lim = Array.copy t.trail_lim;
  }
