(* Graph workloads under disjunctive semantics.

   (1) 3-colourability as EGCWA model existence on a DDDB with integrity
       clauses — the Table 2 NP-complete existence cell on a natural
       encoding (each vertex a disjunctive fact, each edge three integrity
       clauses).

   (2) Minimal vertex covers as minimal models of a positive DDB — the
       edges ARE the database (in_u ∨ in_v), and GCWA's negative literal
       inference answers "is this vertex in no minimal cover?".

     dune exec examples/graph_coloring.exe                                 *)

open Ddb_logic
open Ddb_db
open Ddb_core
open Ddb_workload
module Engine = Ddb_engine.Engine

let () =
  (* One oracle engine answers every query below. *)
  let eng = Engine.create () in
  (* --- 3-colourability --- *)
  let odd_cycle = Graph.cycle 5 in
  let even_cycle = Graph.cycle 6 in
  let k4 =
    { Graph.vertices = 4; edges = [ (0, 1); (0, 2); (0, 3); (1, 2); (1, 3); (2, 3) ] }
  in
  Fmt.pr "3-colourability via EGCWA model existence:@.";
  List.iter
    (fun (name, g) ->
      let db = Graph.coloring_db g in
      Fmt.pr "  %-12s %d vertices, %d clauses: %s@." name g.Graph.vertices
        (Db.size db)
        (if Registry.has_model_in eng ~sem:"egcwa" db then "3-colourable"
         else "not 3-colourable"))
    [ ("C5", odd_cycle); ("C6", even_cycle); ("K4", k4) ];
  (* K4 needs 4 colours *)
  assert (Graph.is_colorable ~colors:4 k4);
  assert (not (Graph.is_colorable ~colors:3 k4));
  Fmt.pr "@.";

  (* --- minimal vertex covers --- *)
  let g = Graph.random_graph ~seed:7 ~vertices:8 ~edge_prob:0.35 in
  let db = Graph.vertex_cover_db g in
  let vocab = Db.vocab db in
  Fmt.pr "Random graph: %d vertices, %d edges.@." g.Graph.vertices
    (List.length g.Graph.edges);
  let covers = Graph.minimal_vertex_covers g in
  Fmt.pr "Minimal vertex covers (= minimal models of the edge database): %d@."
    (List.length covers);
  List.iter (fun c -> Fmt.pr "  %a@." (Interp.pp ~vocab) c) covers;
  Fmt.pr "@.Vertices in no minimal cover (GCWA |= ~in_v):@.";
  List.iteri
    (fun v _ ->
      if Graph.never_in_minimal_cover eng g v then
        Fmt.pr "  vertex %d is never needed@." v)
    (List.init g.Graph.vertices Fun.id);
  (* cross-check one vertex against the explicit cover list *)
  List.iteri
    (fun v _ ->
      let in_some = List.exists (fun c -> Interp.mem c v) covers in
      assert (Graph.never_in_minimal_cover eng g v = not in_some))
    (List.init g.Graph.vertices Fun.id);
  Fmt.pr "@.(cross-checked against the explicit cover list)@."
