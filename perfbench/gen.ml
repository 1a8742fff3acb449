(* Seeded benchmark inputs.

   Every structure is fixed: the bundled mini-corpus, and one relational
   instance built from a constant internal seed.  The run's seed only
   renames vertices, variables and constants and reorders instances
   and rows, so two seeds give the same structures under different
   names and orders, and one seed gives byte-identical inputs.  Atoms
   keep their order: reordering them changes the solvers' tie-breaks,
   and with them the work on some instances by a factor of two, so runs
   with different seeds would measure different work. *)

module Hg = Hd_hypergraph.Hypergraph
module Cq = Hd_query.Cq

let rng seed salt = Random.State.make [| 0x68646263; seed; salt |]

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let permutation st n =
  let p = Array.init n Fun.id in
  shuffle st p;
  p

(* ------------------------------------------------------------------ *)
(* Corpus instances                                                    *)
(* ------------------------------------------------------------------ *)

type instance = {
  name : string;  (** collection/file of the bundled original *)
  text : string;  (** the renamed text the program parses *)
  is_cq : bool;  (** datalog rule rather than atom list *)
}

let render_atom b pred args =
  Buffer.add_string b pred;
  Buffer.add_char b '(';
  Buffer.add_string b (String.concat "," args);
  Buffer.add_char b ')'

(* An atom-format text with vertices renamed through a permutation;
   edge names and order are kept.  Vertices keep their order of first
   appearance, so the program numbers them as before and the solvers
   do the same work. *)
let rename_hg st h =
  let perm = permutation st (Hg.n_vertices h) in
  let b = Buffer.create 1024 in
  for e = 0 to Hg.n_edges h - 1 do
    if e > 0 then Buffer.add_string b ",\n";
    render_atom b (Hg.edge_name h e)
      (List.map (fun v -> Printf.sprintf "v%d" perm.(v)) (Hg.edge_list h e))
  done;
  Buffer.add_string b ".\n";
  Buffer.contents b

let render_cq ~var (q : Cq.t) body =
  let b = Buffer.create 512 in
  render_atom b q.Cq.head_pred (Array.to_list (Array.map var q.Cq.head));
  Buffer.add_string b " :-\n  ";
  List.iteri
    (fun k (a : Cq.atom) ->
      if k > 0 then Buffer.add_string b ",\n  ";
      render_atom b a.Cq.pred
        (Array.to_list
           (Array.map
              (function Cq.Var x -> var x | Cq.Const c -> c)
              a.Cq.args)))
    body;
  Buffer.add_string b ".\n";
  Buffer.contents b

(* A datalog text with variables renamed through a permutation. *)
let rename_cq st (q : Cq.t) =
  let vars = Cq.variables q in
  let perm = permutation st (Array.length vars) in
  let index = Hashtbl.create 16 in
  Array.iteri (fun i x -> Hashtbl.replace index x perm.(i)) vars;
  let var x = Printf.sprintf "V%d" (Hashtbl.find index x) in
  render_cq ~var q q.Cq.body

let corpus_salt = 1

(* The bundled corpus in a seeded order, each instance renamed. *)
let corpus ~seed =
  let st = rng seed corpus_salt in
  let all =
    List.concat_map
      (fun (collection, files) ->
        List.map
          (fun (file, text) ->
            let is_cq = Hd_corpus.Corpus.detect text = Hd_corpus.Corpus.Cq in
            {
              name = collection ^ "/" ^ Filename.remove_extension file;
              text =
                (if is_cq then rename_cq st (Cq.parse_string ~source:file text)
                 else rename_hg st (Hd_corpus.Corpus.parse_string ~source:file text));
              is_cq;
            })
          files)
      (Hd_instances.Mini_corpus.collections ())
    |> Array.of_list
  in
  shuffle st all;
  all

(* A fresh renaming of one corpus instance, for workloads that submit
   the same structure many times. *)
let rerename st (i : instance) =
  if i.is_cq then rename_cq st (Cq.parse_string i.text)
  else rename_hg st (Hd_corpus.Corpus.parse_string i.text)

(* ------------------------------------------------------------------ *)
(* Relational instance and query shapes                                *)
(* ------------------------------------------------------------------ *)

(* The fixed structure: a random directed graph without loops or
   parallel edges, and one of [labels] labels per vertex. *)
type graph = { n : int; edges : (int * int) array; label : int array }

let labels = 4

let graph ~n ~m =
  let st = rng 0 2 in
  let seen = Hashtbl.create (2 * m) in
  let edges = ref [] in
  while Hashtbl.length seen < m do
    let u = Random.State.int st n and v = Random.State.int st n in
    if u <> v && not (Hashtbl.mem seen (u, v)) then begin
      Hashtbl.replace seen (u, v) ();
      edges := (u, v) :: !edges
    end
  done;
  {
    n;
    edges = Array.of_list (List.rev !edges);
    label = Array.init n (fun _ -> Random.State.int st labels);
  }

type naming = { vertex : int -> string; label_name : int -> string }

let query_salt = 3

let naming ~seed g =
  let st = rng seed query_salt in
  let pv = permutation st g.n and pl = permutation st labels in
  {
    vertex = (fun v -> Printf.sprintf "n%d" pv.(v));
    label_name = (fun l -> Printf.sprintf "lab%d" pl.(l));
  }

(* The relation files of the instance: [(file, contents)], rows in a
   seeded order. *)
let relation_files ~seed g nm =
  let st = rng seed (query_salt + 1) in
  let csv rows =
    let rows = Array.of_list rows in
    shuffle st rows;
    String.concat "" (Array.to_list (Array.map (fun r -> r ^ "\n") rows))
  in
  [
    ( "e.csv",
      csv
        (Array.to_list
           (Array.map
              (fun (u, v) -> nm.vertex u ^ "," ^ nm.vertex v)
              g.edges)) );
    ( "l.csv",
      csv
        (List.init g.n (fun v -> nm.vertex v ^ "," ^ nm.label_name g.label.(v))) );
  ]

type shape = {
  shape : string;
  per_pass : int;  (** runs of the shape in one pass *)
  cyclic : bool;
  mode : Hd_query.Yannakakis.mode;
  template : naming -> string;  (** the query with its canonical names *)
}

(* The fixed query mix.  [start] is the path's constant vertex.  The
   per-pass multiplicities keep each median and the p90 inside one
   shape's cluster of latencies rather than on the gap between two
   clusters, where they would jump from run to run: the all-query
   median on triangle and 2-hop, the acyclic one on the labelled star,
   the cyclic one on the 4-cycle and the p90 on the 5-cycle. *)
let shapes =
  let open Hd_query.Yannakakis in
  let start = 0 in
  [
    { shape = "hop2"; per_pass = 4; cyclic = false; mode = Answers;
      template = (fun _ -> "ans(X,Z) :- e(X,Y), e(Y,Z).") };
    { shape = "path3_const"; per_pass = 4; cyclic = false; mode = Boolean;
      template =
        (fun nm ->
          Printf.sprintf "ans(Z) :- e(%s,X), e(X,Y), e(Y,Z)." (nm.vertex start)) };
    { shape = "labelled_star"; per_pass = 12; cyclic = false; mode = Count;
      template =
        (fun nm ->
          Printf.sprintf
            "ans(C,X,Y,Z) :- e(C,X), e(C,Y), e(C,Z), l(X,%s), l(Y,%s), l(Z,%s)."
            (nm.label_name 0) (nm.label_name 1) (nm.label_name 2)) };
    { shape = "triangle"; per_pass = 4; cyclic = true; mode = Count;
      template = (fun _ -> "ans(X,Y,Z) :- e(X,Y), e(Y,Z), e(Z,X).") };
    { shape = "cycle4"; per_pass = 8; cyclic = true; mode = Count;
      template = (fun _ -> "ans(A,B,C,D) :- e(A,B), e(B,C), e(C,D), e(D,A).") };
    { shape = "cycle5"; per_pass = 8; cyclic = true; mode = Count;
      template =
        (fun _ -> "ans(A,B,C,D,E) :- e(A,B), e(B,C), e(C,D), e(D,E), e(E,A).") };
    { shape = "labelled_triangle"; per_pass = 4; cyclic = true; mode = Answers;
      template =
        (fun nm ->
          Printf.sprintf "ans(X,Y,Z) :- e(X,Y), e(Y,Z), e(Z,X), l(X,%s)."
            (nm.label_name 0)) };
  ]

(* One repetition of a query: the template with fresh variable names
   drawn from [st], in the template's atom order, so every repetition
   gets the same plan. *)
let rename_query st template =
  let q = Cq.parse_string template in
  let names = Hashtbl.create 8 in
  let taken = Hashtbl.create 8 in
  Array.iter
    (fun x ->
      let rec fresh () =
        let c = Printf.sprintf "Q%d" (Random.State.int st 10_000) in
        if Hashtbl.mem taken c then fresh () else c
      in
      let c = fresh () in
      Hashtbl.replace taken c ();
      Hashtbl.replace names x c)
    (Cq.variables q);
  render_cq ~var:(Hashtbl.find names) q q.Cq.body
