(* The benchmark's seeded workloads.

   A workload is an array of units.  A unit is a short list of queries
   ("ops"), each one timed call into the public API that ddbtool uses, on
   databases generated from the run seed.  Every op also carries the route
   to its known answer, which the driver evaluates once per run (see
   [route_for]).

   Engine lifetime is part of a workload's definition: [Per_unit] gives
   each unit (one database's query pattern, two passes) a fresh engine,
   so pass 1 fills the memo and pass 2 reads it; [Per_op] gives every op a
   fresh engine, so every query is a memo miss.  Every op runs on the
   calling domain. *)

open Ddb_logic
open Ddb_db
module Engine = Ddb_engine.Engine
module Registry = Ddb_core.Registry
module Semantics = Ddb_core.Semantics
module Oracle = Ddb_core.Oracle_algorithms
module Qbf_encodings = Ddb_core.Qbf_encodings
module Ccwa = Ddb_core.Ccwa
module Random_db = Ddb_workload.Random_db

type outcome =
  | Bool of bool
  | Oracle of { answer : bool; queries : int; p_size : int }
      (** an [Oracle_algorithms] report: the answer and its Σ₂ᵖ calls *)
  | Raised of string

(* What an outcome claims, in the shape of a known answer. *)
let answer_of = function Oracle { answer; _ } -> Bool answer | o -> o

let render = function
  | Bool b -> if b then "1" else "0"
  | Oracle { answer; queries; p_size } ->
    Printf.sprintf "%d/%d/%d" (Bool.to_int answer) queries p_size
  | Raised msg -> "!" ^ msg

type op = {
  label : string;  (** the query, spelled out (instance digest) *)
  call : Engine.t -> outcome;  (** the timed public call *)
  reference : unit -> outcome;  (** the route to the known answer *)
}

type work = { dbs : Db.t list; ops : op array }
type lifetime = Per_unit | Per_op

type t = {
  units : work array;
  lifetime : lifetime;
  warmup : int * int;
      (** set-up warm-up: the first [ops] ops of every [stride]-th unit,
          so first touches reach many databases *)
  calib_every : int;  (** units between CPU-speed calibrations (~100 ms) *)
}

let names = [ "closed_world"; "tractable"; "sigma2_ladder" ]

(* Instance seeds: a hash of (run seed, family, index), so different run
   seeds give unrelated instances. *)
let inst_seed seed family i = Hashtbl.hash (seed, family, i)

let lits n = List.concat_map (fun x -> [ Lit.Neg x; Lit.Pos x ]) (List.init n Fun.id)

let sems_of db = List.filter (( <> ) "pdsm") (Registry.applicable_names db)

(* Known-answer routes. *)

let reference_models db =
  let tbl = Hashtbl.create 16 in
  fun sem ->
    match Hashtbl.find_opt tbl sem with
    | Some ms -> ms
    | None ->
      let s = Option.get (Registry.find sem) in
      let ms = s.Semantics.reference_models db in
      Hashtbl.add tbl sem ms;
      ms

(* Exhaustive enumeration on small universes, an engine without fast
   paths on the rest: uncached by default, so no memo table is trusted;
   [~cached:true] keeps the memo where an uncached reference would cost more
   than the run itself.  PWS's reference enumerates every split program,
   which is exponential in the disjunctive clauses rather than the
   universe, so PWS always takes the engine route. *)
type route = {
  exists : string -> bool;
  formula : string -> Formula.t -> bool;
  literal : string -> Lit.t -> bool;
}

let max_enumerated = 12

let route_for ?(cached = false) db =
  let models = reference_models db in
  let enumerated sem = Db.num_vars db <= max_enumerated && sem <> "pws" in
  let eng = lazy (Engine.create ~cache:cached ~fastpath:false ()) in
  {
    exists =
      (fun sem ->
        if enumerated sem then models sem <> []
        else Registry.has_model_in (Lazy.force eng) ~sem db);
    formula =
      (fun sem f ->
        if enumerated sem then List.for_all (fun m -> Formula.eval m f) (models sem)
        else Registry.infer_formula_in (Lazy.force eng) ~sem db f);
    literal =
      (fun sem l ->
        if enumerated sem then List.for_all (fun m -> Lit.holds m l) (models sem)
        else Registry.infer_literal_in (Lazy.force eng) ~sem db l);
  }

(* A known answer is evaluated at most once, however often its op runs. *)
let known f =
  let v = lazy (f ()) in
  fun () -> Lazy.force v

let lit_label l = match l with Lit.Pos x -> string_of_int x | Lit.Neg x -> "~" ^ string_of_int x

(* ICWA existence answers stratifiability, the paper's O(1) cell, which
   presumes a database without integrity clauses: a stratified database
   whose integrity clauses exclude every model still gets "yes", against
   an empty reference model set.  That query is left out until the library
   settles it. *)
let exists_defined db sem = not (sem = "icwa" && Db.has_integrity db)

(* The ddbtool stats query pattern on one database: under every applicable
   semantics but PDSM, existence, one formula and the ± literal sweep. *)
let stats_pattern ?cached db f =
  let r = route_for ?cached db in
  List.concat_map
    (fun sem ->
      (if exists_defined db sem then
         [
           {
             label = sem ^ " exists";
             call = (fun c -> Bool (Registry.has_model_in c ~sem db));
             reference = known (fun () -> Bool (r.exists sem));
           };
         ]
       else [])
      @ {
           label = sem ^ " formula " ^ Formula.to_string f;
           call = (fun c -> Bool (Registry.infer_formula_in c ~sem db f));
           reference = known (fun () -> Bool (r.formula sem f));
         }
      :: List.map
           (fun l ->
             {
               label = sem ^ " lit " ^ lit_label l;
               call = (fun c -> Bool (Registry.infer_literal_in c ~sem db l));
               reference = known (fun () -> Bool (r.literal sem l));
             })
           (lits (Db.num_vars db)))
    (sems_of db)

(* Two passes of the pattern on one engine: pass 1 fills the memo, pass 2
   reads it. *)
let two_passes ?cached db f =
  let pass = stats_pattern ?cached db f in
  { dbs = [ db ]; ops = Array.of_list (pass @ pass) }

let per_unit_engines ~warmup ~calib_every units =
  { units; lifetime = Per_unit; warmup; calib_every }

let closed_world ~seed =
  let n = 12 and per_family = 60 in
  let units =
    Array.init (2 * per_family) (fun i ->
        let s = inst_seed seed "closed_world" i in
        let db =
          if i mod 2 = 0 then Random_db.with_integrity ~seed:s ~num_vars:n
          else Random_db.normal ~seed:s ~num_vars:n
        in
        two_passes db (Random_db.formula ~seed:s ~num_vars:n ~depth:3))
  in
  per_unit_engines ~warmup:(26, 1) ~calib_every:8 units

let tractable ~seed =
  let n = 60 and per_family = 25 in
  let units =
    Array.init (2 * per_family) (fun i ->
        let s = inst_seed seed "tractable" i in
        let db =
          if i mod 2 = 0 then Random_db.definite ~integrity_ratio:0. ~seed:s ~num_vars:n ()
          else Random_db.stratified ~head_max:1 ~seed:s ~num_vars:n ()
        in
        two_passes ~cached:true db (Random_db.formula ~seed:s ~num_vars:n ~depth:3))
  in
  per_unit_engines ~warmup:(40, 1) ~calib_every:1 units

(* Table 1/2 hard cells.  Each unit pairs a negation-free database with
   integrity clauses (the GCWA/CCWA/EGCWA cells) with a normal one (PERF,
   DSM); every op runs on a fresh engine.  The normal databases are smaller
   because PERF and DSM queries on them dominate the latency tail. *)
let sigma2_ladder ~seed =
  let n = 32 and n_normal = 20 and count = 3000 in
  let ref_eng = Engine.create ~cache:false ~fastpath:false () in
  let unit_ i =
    let s = inst_seed seed "sigma2_ladder" i in
    let pos = Random_db.with_integrity ~seed:s ~num_vars:n in
    let nrm = Random_db.normal ~seed:(s + 1) ~num_vars:n_normal in
    let f = Random_db.formula ~seed:(s + 2) ~num_vars:n ~depth:3 in
    let f' = Random_db.formula ~seed:(s + 5) ~num_vars:n ~depth:3 in
    let g = Random_db.formula ~seed:(s + 3) ~num_vars:n_normal ~depth:3 in
    let part = Random_db.random_partition ~seed:(s + 4) ~num_vars:n in
    let x = s mod n and y = s / n mod n in
    let report (r : Oracle.report) =
      Oracle { answer = r.Oracle.answer; queries = r.Oracle.sigma2_queries; p_size = r.Oracle.p_size }
    in
    let lit sem db l =
      {
        label = sem ^ " lit " ^ lit_label l;
        call = (fun c -> Bool (Registry.infer_literal_in c ~sem db l));
        reference = known (fun () -> Bool (Registry.infer_literal_in ref_eng ~sem db l));
      }
    in
    let gcwa_neg_x = lit "gcwa" pos (Lit.Neg x) in
    {
      dbs = [ pos; nrm ];
      ops =
        Array.of_list
          (List.concat_map
             (fun f ->
               [
                 {
                   label = "gcwa_formula_in " ^ Formula.to_string f;
                   call = (fun c -> report (Oracle.gcwa_formula_in c pos f));
                   reference =
                     (fun () -> Bool (Registry.infer_formula_in ref_eng ~sem:"gcwa" pos f));
                 };
                 {
                   label = "ccwa_formula_in " ^ Formula.to_string f;
                   call = (fun c -> report (Oracle.ccwa_formula_in c pos part f));
                   reference = (fun () -> Bool (Ccwa.infer_formula pos part f));
                 };
               ])
             [ f; f' ]
          @ [
          gcwa_neg_x;
          {
            label = "gcwa_refutes_neg_literal_qbf " ^ string_of_int x;
            call = (fun _ -> Bool (Qbf_encodings.gcwa_refutes_neg_literal_qbf pos x));
            reference =
              (fun () ->
                match gcwa_neg_x.reference () with Bool b -> Bool (not b) | o -> o);
          };
          lit "egcwa" pos (Lit.Neg y);
          lit "perf" nrm (Lit.Neg (x mod n_normal));
          {
            label = "dsm formula " ^ Formula.to_string g;
            call = (fun c -> Bool (Registry.infer_formula_in c ~sem:"dsm" nrm g));
            reference = (fun () -> Bool (Registry.infer_formula_in ref_eng ~sem:"dsm" nrm g));
          };
        ]);
    }
  in
  {
    units = Array.init count unit_;
    lifetime = Per_op;
    warmup = (1, 10);
    calib_every = 20;
  }

let make name ~seed =
  match name with
  | "closed_world" -> closed_world ~seed
  | "tractable" -> tractable ~seed
  | "sigma2_ladder" -> sigma2_ladder ~seed
  | _ -> invalid_arg ("unknown workload " ^ name)

let ops t = Array.fold_left (fun acc u -> acc + Array.length u.ops) 0 t.units

(* Digest of every generated database and query, in order: equal for equal
   seeds, different for different ones. *)
let instance_digest t =
  let b = Buffer.create 4096 in
  Array.iter
    (fun u ->
      List.iter (fun db -> Buffer.add_string b (Db.to_string db)) u.dbs;
      Array.iter (fun op -> Buffer.add_string b op.label) u.ops)
    t.units;
  Digest.to_hex (Digest.string (Buffer.contents b))
