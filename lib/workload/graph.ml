open Ddb_logic
open Ddb_db

(* Graph workloads.

   Two encodings exercise different table cells:

   - 3-colourability (DDDB with integrity clauses): atom c_{v,i} says vertex
     v has colour i; each vertex owns a disjunctive fact over its three
     colours and each edge contributes three integrity clauses.  Model
     existence under EGCWA (= consistency) answers colourability — the
     Table 2 NP-complete existence cell on a natural workload.

   - vertex cover (positive DDB): each edge (u,v) is the disjunctive fact
     in_u ∨ in_v; minimal models are exactly the minimal vertex covers, so
     GCWA(DB) ⊨ ¬in_v asks "is v in no minimal cover?" — a natural Π₂ᵖ-style
     query family for Table 1. *)

type graph = { vertices : int; edges : (int * int) list }

let random_graph ~seed ~vertices ~edge_prob =
  let rng = Rng.create seed in
  let edges = ref [] in
  for u = 0 to vertices - 1 do
    for v = u + 1 to vertices - 1 do
      if Rng.float rng < edge_prob then edges := (u, v) :: !edges
    done
  done;
  { vertices; edges = List.rev !edges }

let cycle vertices =
  {
    vertices;
    edges = List.init vertices (fun i -> (i, (i + 1) mod vertices));
  }

let coloring_db ?(colors = 3) g =
  let vocab = Vocab.create () in
  let color v i = Vocab.intern vocab (Printf.sprintf "c_%d_%d" v i) in
  let vertex_facts =
    List.init g.vertices (fun v ->
        Clause.fact (List.init colors (fun i -> color v i)))
  in
  let edge_constraints =
    List.concat_map
      (fun (u, v) ->
        List.init colors (fun i ->
            Clause.integrity ~pos:[ color u i; color v i ] ~neg:[]))
      g.edges
  in
  Db.make ~vocab (vertex_facts @ edge_constraints)

let is_colorable ?(colors = 3) g =
  Models.has_model (coloring_db ~colors g)

let vertex_cover_db g =
  let vocab = Vocab.create () in
  let inv v = Vocab.intern vocab (Printf.sprintf "in_%d" v) in
  (* Intern all vertices first so isolated ones are part of the universe. *)
  List.iter (fun v -> ignore (inv v)) (List.init g.vertices Fun.id);
  Db.make ~vocab (List.map (fun (u, v) -> Clause.fact [ inv u; inv v ]) g.edges)

(* Minimal vertex covers = minimal models of the cover database. *)
let minimal_vertex_covers ?limit ?truncated g =
  Models.minimal_models ?limit ?truncated (vertex_cover_db g)

(* Is vertex v avoidable, i.e. outside some minimal cover?  GCWA view:
   avoidable iff NOT (GCWA ⊨ in_v)... more precisely the Π₂ᵖ query we bench
   is GCWA(DB) ⊨ ¬in_v: v belongs to no minimal cover. *)
let never_in_minimal_cover eng g v =
  Ddb_core.Registry.infer_literal_in eng ~sem:"gcwa" (vertex_cover_db g)
    (Lit.Neg v)
