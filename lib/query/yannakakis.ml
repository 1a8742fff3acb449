module Hypergraph = Hd_hypergraph.Hypergraph
module Acyclicity = Hd_hypergraph.Acyclicity
module Td = Hd_core.Tree_decomposition
module Ghd = Hd_core.Ghd
module Bitset = Hd_graph.Bitset
module St = Hd_search.Search_types
module Obs = Hd_obs.Obs

(* Observability: bag materialisation, semijoin passes, and the
   enumeration's tuple-producing work.  After full reduction the
   enumeration is backtrack-free, so query.enum_dead_ends stays 0 —
   the test suite asserts this. *)
let c_bag_tuples = Obs.Counter.make "query.bag_tuples"
let c_reduce_semijoins = Obs.Counter.make "query.reduce_semijoins"
let c_enum_rows = Obs.Counter.make "query.enum_rows"
let c_enum_dead_ends = Obs.Counter.make "query.enum_dead_ends"
let c_answers = Obs.Counter.make "query.answers"

(* row-engine probe attribution; shares the registry slot with
   Qrelation's handle *)
let c_hash_probes = Obs.Counter.make "query.hash_probes"
let h_bag_size = Obs.Histogram.make "query.bag_size"

type mode = Answers | Count | Boolean

type method_ = Auto | Min_fill | Bb_ghw | Portfolio

type engine = Columnar | Rows

type stats = {
  acyclic : bool;
  width : int;
  bags : int;
  tuples_materialized : int;
  tuples_after_reduction : int;
  semijoins : int;
}

type result = {
  mode : mode;
  answers : string array list;
  count : int;
  nonempty : bool;
  stats : stats;
}

exception Empty_result

(* a join tree of materialised relations: rels.(i)'s scope is node i's
   bag, parent.(i) = -1 for roots *)
type tree = { rels : Qrelation.t array; parent : int array }

(* children-before-parents order *)
let bottom_up_order parent =
  let m = Array.length parent in
  let depth = Array.make m (-1) in
  let rec depth_of i =
    if depth.(i) >= 0 then depth.(i)
    else begin
      let d = if parent.(i) = -1 then 0 else depth_of parent.(i) + 1 in
      depth.(i) <- d;
      d
    end
  in
  let order = Array.init m Fun.id in
  for i = 0 to m - 1 do
    ignore (depth_of i)
  done;
  Array.sort (fun a b -> compare depth.(b) depth.(a)) order;
  order

let total_tuples rels =
  Array.fold_left (fun acc r -> acc + Qrelation.cardinality r) 0 rels

(* ------------------------------------------------------------------ *)
(* Planning: hypergraph -> join tree of materialised bag relations     *)
(* ------------------------------------------------------------------ *)

let ordering_for ~method_ ~jobs ~seed ~time_limit h =
  let budget = St.with_time time_limit in
  let min_fill () =
    Hd_core.Ordering_heuristics.min_fill_hypergraph
      (Random.State.make [| seed |])
      h
  in
  match method_ with
  | Auto | Min_fill -> min_fill ()
  | Bb_ghw -> (
      (* through the engine: block-split the query hypergraph first,
         then run the registered BB-ghw on each biconnected piece *)
      Hd_search.Solvers.ensure ();
      let r =
        Hd_engine.Engine.run_by_name ~seed "bb-ghw"
          (Hd_engine.Budget.of_spec budget)
          (Hd_engine.Solver.Hypergraph h)
      in
      match r.Hd_engine.Solver.ordering with
      | Some sigma -> sigma
      | None -> min_fill ())
  | Portfolio -> (
      match
        (Hd_parallel.Portfolio.solve_ghw ~jobs ~budget ~seed h)
          .Hd_parallel.Portfolio.ordering
      with
      | Some sigma -> sigma
      | None -> min_fill ())

let observe_bag r =
  Obs.Counter.add c_bag_tuples (Qrelation.cardinality r);
  Obs.Histogram.observe h_bag_size (Qrelation.cardinality r)

let shared_vars sa sb =
  Array.of_list
    (List.filter (fun v -> Array.exists (( = ) v) sb) (Array.to_list sa))

let unit_bag () = Qrelation.make ~scope:[||] [ [||] ]

(* Row engine: one relation per GHD node, each on its own -- the
   lambda-label atom relations joined in label order, projected onto
   the bag.  Completion (Lemma 2) guarantees every atom is enforced
   unprojected at some node. *)
let materialize_rows ghd atom_rels =
  let td = ghd.Ghd.td in
  let rels =
    Array.init (Td.n_nodes td) (fun p ->
        let chi = Array.of_list (Bitset.elements (Td.bag td p)) in
        let r =
          match Array.to_list ghd.Ghd.lambda.(p) with
          | [] -> unit_bag ()
          | e :: rest ->
              let joined =
                List.fold_left
                  (fun acc e' -> Qrelation.join acc atom_rels.(e'))
                  atom_rels.(e) rest
              in
              Qrelation.project joined chi
        in
        observe_bag r;
        r)
  in
  { rels; parent = td.Td.parent }

(* join inputs in a connected greedy order: the smallest first, then
   the smallest that shares a variable with what is already joined; a
   cartesian step only when no remaining input shares one *)
let connected_order inputs =
  let rec go joined acc = function
    | [] -> List.rev acc
    | remaining ->
        let touches (_, r) =
          Array.exists (fun v -> List.mem v joined) (Qrelation.scope r)
        in
        let pool =
          match List.filter touches remaining with [] -> remaining | c -> c
        in
        let k, r =
          List.fold_left
            (fun ((_, rb) as best) ((_, r) as cand) ->
              if Qrelation.cardinality r < Qrelation.cardinality rb then cand
              else best)
            (List.hd pool) pool
        in
        go
          (Array.to_list (Qrelation.scope r) @ joined)
          (r :: acc)
          (List.filter (fun (j, _) -> j <> k) remaining)
  in
  go [] [] (List.mapi (fun i r -> (i, r)) inputs)

(* Columnar engine: bags built children first.  Node p joins its
   lambda atoms with pi_{chi_p & chi_c}(R_c) of every child c, so
   R_p = pi_chi_p(join lambda_p) semijoined with each child -- exactly
   what the bottom-up semijoin pass would leave -- and a bag whose
   lambda atoms share no variable is filtered through its children
   instead of being built as a cartesian product.  Each atom is first
   projected onto the variables the bag or another input of the node
   still needs: two atoms may join on a variable outside the bag.
   A bag that comes out empty stops the build; the bags not yet built
   stay empty, so the reduction's entry check raises Empty_result
   before any semijoin. *)
let materialize_columnar ?par ghd atom_rels =
  let td = ghd.Ghd.td in
  let n_nodes = Td.n_nodes td in
  let chis =
    Array.init n_nodes (fun p -> Array.of_list (Bitset.elements (Td.bag td p)))
  in
  let children = Array.make n_nodes [] in
  Array.iteri
    (fun c p -> if p <> -1 then children.(p) <- c :: children.(p))
    td.Td.parent;
  let rels = Array.map (fun chi -> Qrelation.make ~scope:chi []) chis in
  let build p =
    let chi = chis.(p) in
    (* a child sharing no variable is nonempty (else the build would
       have stopped) and constrains nothing *)
    let filters =
      List.filter_map
        (fun c ->
          match shared_vars chi chis.(c) with
          | [||] -> None
          | shared ->
              Some (Colexec.join_project ?par [ rels.(c) ] ~scope:shared))
        children.(p)
    in
    let atoms =
      List.map (fun e -> atom_rels.(e)) (Array.to_list ghd.Ghd.lambda.(p))
    in
    let scopes = List.map Qrelation.scope (atoms @ filters) in
    let project_early i r =
      let others = List.filteri (fun j _ -> j <> i) scopes in
      let needed v = Array.mem v chi || List.exists (Array.mem v) others in
      let sc = Qrelation.scope r in
      if Array.for_all needed sc then r
      else
        Colexec.join_project ?par [ r ]
          ~scope:(Array.of_list (List.filter needed (Array.to_list sc)))
    in
    let atoms = List.mapi project_early atoms in
    match connected_order (atoms @ filters) with
    | [] -> unit_bag ()
    | inputs -> Colexec.join_project ?par inputs ~scope:chi
  in
  (try
     Array.iter
       (fun p ->
         let r = build p in
         observe_bag r;
         rels.(p) <- r;
         if Qrelation.is_empty r then raise Exit)
       (bottom_up_order td.Td.parent)
   with Exit -> ());
  { rels; parent = td.Td.parent }

let materialize_ghd ?par ~engine ghd atom_rels =
  Obs.with_span "query.materialize" @@ fun () ->
  match engine with
  | Rows -> materialize_rows ghd atom_rels
  | Columnar -> materialize_columnar ?par ghd atom_rels

let plan ?par ~engine ~method_ ~jobs ~seed ~time_limit ~ordering h atom_rels =
  Obs.with_span "query.plan" @@ fun () ->
  let acyclic_tree () =
    match Acyclicity.join_tree h with
    | Some parent ->
        Array.iter observe_bag atom_rels;
        Some ({ rels = Array.copy atom_rels; parent }, 1, true)
    | None -> None
  in
  let ghd_plan () =
    let sigma =
      (* a caller-supplied ordering (batch evaluation, server bulk
         submit) skips the per-query decomposition search entirely *)
      match ordering with
      | Some sigma -> sigma
      | None ->
          Obs.with_span "query.decompose" @@ fun () ->
          ordering_for ~method_ ~jobs ~seed ~time_limit h
    in
    let ghd = Ghd.of_ordering h sigma ~cover:`Exact in
    let ghd = Ghd.complete h ghd in
    (materialize_ghd ?par ~engine ghd atom_rels, Ghd.width ghd, false)
  in
  match method_ with
  | Auto -> (
      match acyclic_tree () with Some t -> t | None -> ghd_plan ())
  | Min_fill | Bb_ghw | Portfolio -> ghd_plan ()

(* ------------------------------------------------------------------ *)
(* Row engine: materialised semijoin reduction                         *)
(* ------------------------------------------------------------------ *)

(* bottom-up pass; raises Empty_result as soon as any relation empties *)
let reduce_bottom_up t ~semijoins =
  let order = bottom_up_order t.parent in
  Array.iter
    (fun (r : Qrelation.t) -> if Qrelation.is_empty r then raise Empty_result)
    t.rels;
  Array.iter
    (fun i ->
      let p = t.parent.(i) in
      if p <> -1 then begin
        t.rels.(p) <- Qrelation.semijoin t.rels.(p) t.rels.(i);
        incr semijoins;
        Obs.Counter.incr c_reduce_semijoins;
        if Qrelation.is_empty t.rels.(p) then raise Empty_result
      end)
    order

(* top-down pass: after it, every tuple everywhere takes part in at
   least one full solution (full reduction) *)
let reduce_top_down t ~semijoins =
  let order = bottom_up_order t.parent in
  for k = Array.length order - 1 downto 0 do
    let i = order.(k) in
    let p = t.parent.(i) in
    if p <> -1 then begin
      t.rels.(i) <- Qrelation.semijoin t.rels.(i) t.rels.(p);
      incr semijoins;
      Obs.Counter.incr c_reduce_semijoins
    end
  done

(* number of distinct full assignments admitted by the (reduced) tree:
   per-node weights accumulated children-first, one hash lookup per
   parent tuple and child.  The scratch table and probe key are hoisted
   and reused — the per-tuple path allocates only on insertion. *)
let count_assignments t =
  let m = Array.length t.rels in
  let children = Array.make m [] in
  Array.iteri
    (fun i p -> if p <> -1 then children.(p) <- i :: children.(p))
    t.parent;
  let weights = Array.make m [||] in
  let sums : (int array, int) Hashtbl.t = Hashtbl.create 256 in
  Array.iter
    (fun i ->
      let r = t.rels.(i) in
      let w = Array.make (Qrelation.cardinality r) 1 in
      List.iter
        (fun c ->
          let rc = t.rels.(c) in
          let shared = shared_vars (Qrelation.scope r) (Qrelation.scope rc) in
          let pr = Qrelation.positions r shared in
          let pc = Qrelation.positions rc shared in
          let k = Array.length shared in
          Hashtbl.reset sums;
          Array.iteri
            (fun j wj ->
              let key = Array.map (fun p -> Qrelation.get rc j p) pc in
              Obs.Counter.incr c_hash_probes;
              let prev = try Hashtbl.find sums key with Not_found -> 0 in
              Hashtbl.replace sums key (wj + prev))
            weights.(c);
          let key = Array.make k 0 in
          for j = 0 to Qrelation.cardinality r - 1 do
            for x = 0 to k - 1 do
              key.(x) <- Qrelation.get r j pr.(x)
            done;
            Obs.Counter.incr c_hash_probes;
            w.(j) <- w.(j) * (try Hashtbl.find sums key with Not_found -> 0)
          done)
        children.(i);
      weights.(i) <- w)
    (bottom_up_order t.parent);
  let total = ref 1 in
  Array.iteri
    (fun i p ->
      if p = -1 then
        total := !total * Array.fold_left ( + ) 0 weights.(i))
    t.parent;
  !total

(* visit every full assignment of the reduced tree in depth-first
   pre-order; on a fully reduced tree every row extends, so the work is
   proportional to the solutions emitted, never to dead intermediate
   tuples *)
let enumerate t ~n_vars ~on_solution =
  Obs.with_span "query.enumerate" @@ fun () ->
  let order =
    let o = bottom_up_order t.parent in
    Array.init (Array.length o) (fun k -> o.(Array.length o - 1 - k))
  in
  let m = Array.length order in
  let info =
    Array.map
      (fun i ->
        let r = t.rels.(i) in
        let sc = Qrelation.scope r in
        let parent_scope =
          if t.parent.(i) = -1 then [||]
          else Qrelation.scope t.rels.(t.parent.(i))
        in
        let shared = shared_vars sc parent_scope in
        let index = Qrelation.index_on r (Qrelation.positions r shared) in
        let fresh =
          Array.of_list
            (List.filter_map
               (fun j ->
                 let v = sc.(j) in
                 if Array.exists (( = ) v) shared then None else Some (j, v))
               (List.init (Array.length sc) Fun.id))
        in
        (r, shared, index, fresh))
      order
  in
  let env = Array.make (max 1 n_vars) (-1) in
  let rec go k =
    if k = m then on_solution env
    else begin
      let r, shared, index, fresh = info.(k) in
      let key = Array.map (fun v -> env.(v)) shared in
      Obs.Counter.incr c_hash_probes;
      match Hashtbl.find_opt index key with
      | None -> Obs.Counter.incr c_enum_dead_ends
      | Some row_ids ->
          List.iter
            (fun rid ->
              Obs.Counter.incr c_enum_rows;
              Array.iter
                (fun (j, v) -> env.(v) <- Qrelation.get r rid j)
                fresh;
              go (k + 1))
            row_ids
    end
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Columnar engine: selection vectors over immutable bags              *)
(* ------------------------------------------------------------------ *)

(* the live selection per node; bags themselves are never rewritten *)
type colstate = { tree : tree; sels : Colexec.sel array }

let col_semijoin ?par st ~probe:i ~build:c =
  let r = st.tree.rels.(i) and rc = st.tree.rels.(c) in
  let shared = shared_vars (Qrelation.scope r) (Qrelation.scope rc) in
  st.sels.(i) <-
    Colexec.semijoin ?par
      ~probe:(r, st.sels.(i), Qrelation.positions r shared)
      ~build:(rc, st.sels.(c), Qrelation.positions rc shared)
      ()

let col_reduce_bottom_up ?par st ~semijoins =
  let order = bottom_up_order st.tree.parent in
  Array.iter
    (fun sel -> if Array.length sel = 0 then raise Empty_result)
    st.sels;
  Array.iter
    (fun i ->
      let p = st.tree.parent.(i) in
      if p <> -1 then begin
        col_semijoin ?par st ~probe:p ~build:i;
        incr semijoins;
        Obs.Counter.incr c_reduce_semijoins;
        if Array.length st.sels.(p) = 0 then raise Empty_result
      end)
    order

let col_reduce_top_down ?par st ~semijoins =
  let order = bottom_up_order st.tree.parent in
  for k = Array.length order - 1 downto 0 do
    let i = order.(k) in
    let p = st.tree.parent.(i) in
    if p <> -1 then begin
      col_semijoin ?par st ~probe:i ~build:p;
      incr semijoins;
      Obs.Counter.incr c_reduce_semijoins
    end
  done

let col_surviving st = Array.fold_left (fun acc s -> acc + Array.length s) 0 st.sels

(* weighted counting over selection slots: weights.(i).(s) counts the
   full assignments below node i extending selection slot s *)
let col_count_assignments st =
  let t = st.tree in
  let m = Array.length t.rels in
  let children = Array.make m [] in
  Array.iteri
    (fun i p -> if p <> -1 then children.(p) <- i :: children.(p))
    t.parent;
  let weights = Array.make m [||] in
  Array.iter
    (fun i ->
      let r = t.rels.(i) in
      let sel = st.sels.(i) in
      let w = Array.make (Array.length sel) 1 in
      List.iter
        (fun c ->
          let rc = t.rels.(c) in
          let shared = shared_vars (Qrelation.scope r) (Qrelation.scope rc) in
          let pr = Qrelation.positions r shared in
          let pc = Qrelation.positions rc shared in
          let ks =
            Colexec.Keysum.build rc ~pos:pc ~sel:st.sels.(c)
              ~weights:weights.(c)
          in
          let k = Array.length shared in
          let key = Array.make k 0 in
          for s = 0 to Array.length sel - 1 do
            let row = sel.(s) in
            for x = 0 to k - 1 do
              key.(x) <- Qrelation.get r row pr.(x)
            done;
            w.(s) <- w.(s) * Colexec.Keysum.find ks key
          done)
        children.(i);
      weights.(i) <- w)
    (bottom_up_order t.parent);
  let total = ref 1 in
  Array.iteri
    (fun i p ->
      if p = -1 then total := !total * Array.fold_left ( + ) 0 weights.(i))
    t.parent;
  !total

(* backtrack-free enumeration over selection vectors: per node a
   chained int-hash Index of the surviving rows on the parent-shared
   columns, probed with a reused scratch key; fresh variables are read
   straight out of the base columns (late materialisation) *)
let col_enumerate st ~n_vars ~on_solution =
  Obs.with_span "query.enumerate" @@ fun () ->
  let t = st.tree in
  let order =
    let o = bottom_up_order t.parent in
    Array.init (Array.length o) (fun k -> o.(Array.length o - 1 - k))
  in
  let m = Array.length order in
  let info =
    Array.map
      (fun i ->
        let r = t.rels.(i) in
        let sc = Qrelation.scope r in
        let parent_scope =
          if t.parent.(i) = -1 then [||]
          else Qrelation.scope t.rels.(t.parent.(i))
        in
        let shared = shared_vars sc parent_scope in
        let index =
          Colexec.Index.build r
            ~pos:(Qrelation.positions r shared)
            ~sel:st.sels.(i)
        in
        let fresh =
          Array.of_list
            (List.filter_map
               (fun j ->
                 let v = sc.(j) in
                 if Array.exists (( = ) v) shared then None
                 else Some (Qrelation.col r j, v))
               (List.init (Array.length sc) Fun.id))
        in
        (shared, index, fresh, Array.make (Array.length shared) 0))
      order
  in
  let env = Array.make (max 1 n_vars) (-1) in
  let rec go k =
    if k = m then on_solution env
    else begin
      let shared, index, fresh, key = info.(k) in
      for x = 0 to Array.length shared - 1 do
        key.(x) <- env.(shared.(x))
      done;
      let any = ref false in
      Colexec.Index.iter index key (fun rid ->
          any := true;
          Obs.Counter.incr c_enum_rows;
          Array.iter (fun (colv, v) -> env.(v) <- colv.(rid)) fresh;
          go (k + 1));
      if not !any then Obs.Counter.incr c_enum_dead_ends
    end
  in
  go 0

(* ------------------------------------------------------------------ *)
(* The engine                                                          *)
(* ------------------------------------------------------------------ *)

let empty_result mode stats = { mode; answers = []; count = 0; nonempty = false; stats }

let run ?(engine = Columnar) ?(method_ = Auto) ?(jobs = 1) ?(seed = 42)
    ?(time_limit = 10.0) ?ordering ?par ~mode db q =
  Obs.with_span "query.run" @@ fun () ->
  let vars = Cq.variables q in
  let n_vars = Array.length vars in
  let var_ids = Hashtbl.create 16 in
  Array.iteri (fun i v -> Hashtbl.add var_ids v i) vars;
  let var_id v = Hashtbl.find var_ids v in
  let head_ids = Array.map var_id q.Cq.head in
  let ground, proper = List.partition Cq.is_ground q.Cq.body in
  let no_stats ~acyclic ~width ~bags =
    {
      acyclic;
      width;
      bags;
      tuples_materialized = 0;
      tuples_after_reduction = 0;
      semijoins = 0;
    }
  in
  (* ground atoms are membership tests independent of the variables *)
  let ground_holds =
    List.for_all
      (fun a -> not (Qrelation.is_empty (Db.relation_for_atom db ~var_id a)))
      ground
  in
  if not ground_holds then
    empty_result mode (no_stats ~acyclic:true ~width:0 ~bags:0)
  else if proper = [] then
    (* variable-free query: the single empty answer *)
    {
      mode;
      answers = (match mode with Answers -> [ [||] ] | _ -> []);
      count = 1;
      nonempty = true;
      stats = no_stats ~acyclic:true ~width:0 ~bags:0;
    }
  else begin
    let h = Cq.hypergraph q in
    let atom_rels =
      Array.of_list
        (List.map (fun a -> Db.relation_for_atom db ~var_id a) proper)
    in
    let tree, width, acyclic =
      plan ?par ~engine ~method_ ~jobs ~seed ~time_limit ~ordering h atom_rels
    in
    let bags = Array.length tree.rels in
    let tuples_materialized = total_tuples tree.rels in
    let semijoins = ref 0 in
    let head_covers_all =
      let covered = Array.make n_vars false in
      Array.iter (fun v -> covered.(v) <- true) head_ids;
      Array.for_all Fun.id covered
    in
    let stats_now tuples_after_reduction =
      {
        acyclic;
        width;
        bags;
        tuples_materialized;
        tuples_after_reduction;
        semijoins = !semijoins;
      }
    in
    (* mode dispatch shared by both engines once reduction is done *)
    let finish ~stats ~count_all ~enum =
      match mode with
      | Boolean ->
          { mode; answers = []; count = 1; nonempty = true; stats = stats () }
      | Count when head_covers_all ->
          (* the head covers every variable: distinct answers are in
             bijection with full assignments — count by weights, no
             materialisation *)
          let count = count_all () in
          Obs.Counter.add c_answers count;
          { mode; answers = []; count; nonempty = count > 0; stats = stats () }
      | Count ->
          (* a genuine projection: enumerate and count distinct heads *)
          let seen = Hashtbl.create 256 in
          enum (fun env ->
              let proj = Array.map (fun v -> env.(v)) head_ids in
              if not (Hashtbl.mem seen proj) then begin
                Hashtbl.add seen proj ();
                Obs.Counter.incr c_answers
              end);
          let count = Hashtbl.length seen in
          { mode; answers = []; count; nonempty = count > 0; stats = stats () }
      | Answers ->
          let seen = Hashtbl.create 256 in
          enum (fun env ->
              let proj = Array.map (fun v -> env.(v)) head_ids in
              if not (Hashtbl.mem seen proj) then begin
                Hashtbl.add seen proj ();
                Obs.Counter.incr c_answers
              end);
          let answers =
            Hashtbl.fold (fun proj () acc -> Db.decode db proj :: acc) seen []
          in
          {
            mode;
            answers;
            count = Hashtbl.length seen;
            nonempty = answers <> [];
            stats = stats ();
          }
    in
    match engine with
    | Rows -> (
        try
          Obs.with_span "query.reduce" (fun () ->
              reduce_bottom_up tree ~semijoins;
              if mode <> Boolean then reduce_top_down tree ~semijoins);
          finish
            ~stats:(fun () -> stats_now (total_tuples tree.rels))
            ~count_all:(fun () -> count_assignments tree)
            ~enum:(fun f -> enumerate tree ~n_vars ~on_solution:f)
        with Empty_result -> empty_result mode (stats_now (total_tuples tree.rels)))
    | Columnar -> (
        let st =
          { tree; sels = Array.map Colexec.all_rows tree.rels }
        in
        try
          Obs.with_span "query.reduce" (fun () ->
              col_reduce_bottom_up ?par st ~semijoins;
              if mode <> Boolean then col_reduce_top_down ?par st ~semijoins);
          finish
            ~stats:(fun () -> stats_now (col_surviving st))
            ~count_all:(fun () -> col_count_assignments st)
            ~enum:(fun f -> col_enumerate st ~n_vars ~on_solution:f)
        with Empty_result -> empty_result mode (stats_now (col_surviving st)))
  end
