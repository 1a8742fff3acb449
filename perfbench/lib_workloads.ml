(* The three in-process workloads: decompose, widths and query.  Each
   [setup] returns a [pass] that runs every operation of the workload
   once; the driver repeats whole passes, so every run samples the
   same multiset of operations. *)

module Solver = Hd_engine.Solver
module Engine = Hd_engine.Engine
module Budget = Hd_engine.Budget
module Ghd = Hd_core.Ghd
module Rat = Hd_lp.Rat
module Y = Hd_query.Yannakakis

let parse text = Probe.span "hd_corpus.parse" (fun () -> Hd_corpus.Corpus.parse_string text)

let solve ?(max_states = 0) ?time_limit (solver : Solver.t) h =
  let budget =
    Budget.create ?time_limit
      ?max_states:(if max_states > 0 then Some max_states else None)
      ()
  in
  Probe.span ("hd_engine.solve." ^ solver.Solver.name) (fun () ->
      Engine.run ~seed:1 solver budget (Solver.Hypergraph h))

let find name =
  match Solver.find name with
  | Some s -> s
  | None -> failwith ("hdbench: solver not registered: " ^ name)

let exact_of (r : Solver.result) =
  match r.Solver.outcome with Solver.Exact _ -> 1 | Solver.Bounds _ -> 0

let ub (r : Solver.result) = Solver.value r.Solver.outcome

(* An operation: [f ()] timed, returning its sample fields. *)
let timed f =
  incr Probe.current_op;
  let t0 = Probe.now () in
  let x = Probe.span "op" f in
  (x, (Probe.now () -. t0) *. 1000.0)

(* The instances of a pass, each renamed afresh, outside the pass's
   time. *)
let fresh_texts ~seed instances =
  let st = Gen.rng seed 4 in
  fun () ->
    Probe.untimed (fun () ->
        Array.map (fun (i : Gen.instance) -> { i with Gen.text = Gen.rerename st i }) instances)

(* ------------------------------------------------------------------ *)
(* decompose                                                           *)
(* ------------------------------------------------------------------ *)

let decompose_states = 4000
let decompose_solvers = [ "astar-tw"; "bb-ghw"; "astar-ghw" ]

(* Every pass renames every instance afresh. *)
let decompose ~seed ~emit =
  Hd_search.Solvers.ensure ();
  let next = fresh_texts ~seed (Gen.corpus ~seed) in
  let solvers = List.map find decompose_solvers in
  fun () ->
    Array.iter
      (fun (inst : Gen.instance) ->
        let exact_ghw = ref [] in
        List.iter
          (fun (solver : Solver.t) ->
            let (r, ghd), ms =
              timed (fun () ->
                  let h = parse inst.Gen.text in
                  let r = solve ~max_states:decompose_states solver h in
                  let ghd =
                    Option.map
                      (fun sigma ->
                        let g =
                          Probe.span "hd_core.cover" (fun () ->
                              Ghd.of_ordering h sigma ~cover:`Exact)
                        in
                        (g, Probe.span "hd_core.validate" (fun () -> Ghd.valid h g)))
                      r.Solver.ordering
                  in
                  (r, ghd))
            in
            let where = inst.Gen.name ^ " " ^ solver.Solver.name in
            let ok =
              match ghd with
              | None -> Probe.check false "%s: no witness ordering" where
              | Some (g, valid) ->
                  let width =
                    if solver.Solver.kind = Solver.Tw then
                      Hd_core.Tree_decomposition.width g.Ghd.td
                    else Ghd.width g
                  in
                  Probe.check valid "%s: witness GHD invalid" where
                  && Probe.check (width <= ub r) "%s: witness width %d > ub %d"
                       where width (ub r)
            in
            (match (solver.Solver.kind, r.Solver.outcome) with
            | Solver.Ghw, Solver.Exact w -> exact_ghw := w :: !exact_ghw
            | _ -> ());
            emit
              {
                Probe.pass = !Probe.pass;
                key = inst.Gen.name ^ " " ^ solver.Solver.name;
                ms;
                acyclic = None;
                hit = None;
                exact = exact_of r;
                solves = 1;
                width = float_of_int (ub r);
                ok;
                extra = [];
              })
          solvers;
        match !exact_ghw with
        | [ a; b ] ->
            ignore
              (Probe.check (a = b) "%s: bb-ghw and astar-ghw disagree (%d, %d)"
                 inst.Gen.name a b)
        | _ -> ())
      (next ())

(* ------------------------------------------------------------------ *)
(* widths                                                              *)
(* ------------------------------------------------------------------ *)

let widths_states = 4000

(* an fhw-bb state solves one exact LP per candidate bag; on the
   largest instances a state costs milliseconds, so fhw-bb gets a
   lower cap *)
let fhw_states = 150

(* det-k ignores [max_states]; it runs under this time limit, which
   sits between circuit_01 (0.04 s) and grid2d_06 (0.2 s), the runs
   closest to it on a 2 GHz Xeon, so whether a run finishes does not
   depend on machine noise *)
let detk_seconds = 0.1

(* fhw-bb does not finish on these under any state cap we can afford *)
let widths_excluded =
  [ "grid2d_08"; "grid3d_04"; "circuit_02"; "circuit_03"; "circuit_04"; "circuit_05" ]

let widths ~seed ~emit =
  Hd_search.Solvers.ensure ();
  let instances =
    Gen.corpus ~seed
    |> Array.to_list
    |> List.filter (fun (i : Gen.instance) ->
           not (List.mem (Filename.basename i.Gen.name) widths_excluded))
    |> Array.of_list
  in
  let next = fresh_texts ~seed instances in
  let tw_s = find "astar-tw" and ghw_s = find "bb-ghw" in
  let fhw_s = find "fhw-bb" and hw_s = find "hw-det-k" in
  let ladder (inst : Gen.instance) =
    let (tw, ghw, fhw, hw, audit), ms =
      timed (fun () ->
          let h = parse inst.Gen.text in
          let tw = solve ~max_states:widths_states tw_s h in
          let ghw = solve ~max_states:widths_states ghw_s h in
          let fhw = solve ~max_states:fhw_states fhw_s h in
          let hw = solve ~time_limit:detk_seconds hw_s h in
          let audit =
            Option.map
              (fun sigma ->
                Probe.span "hd_lp.audit" (fun () ->
                    Hd_core.Eval.fhw_width_q (Hd_core.Eval.of_hypergraph h) sigma))
              fhw.Solver.ordering
          in
          (tw, ghw, fhw, hw, audit))
    in
    let where = inst.Gen.name in
    let exact r = exact_of r = 1 in
    let ok =
      match audit with
      | None -> Probe.check false "%s: fhw-bb gave no witness" where
      | Some q ->
          let le_int q k = Rat.compare q (Rat.of_int k) <= 0 in
          Probe.check (Rat.ceil q = ub fhw) "%s: fhw audit %s, ceiling %d reported"
            where (Rat.to_string q) (ub fhw)
          && Probe.check
               ((not (exact fhw && exact ghw)) || le_int q (ub ghw))
               "%s: fhw %s > ghw %d" where (Rat.to_string q) (ub ghw)
          && Probe.check
               ((not (exact ghw && exact hw)) || ub ghw <= ub hw)
               "%s: ghw %d > hw %d" where (ub ghw) (ub hw)
          && Probe.check
               ((not (exact ghw && exact hw)) || ub hw <= (3 * ub ghw) + 1)
               "%s: hw %d > 3 ghw + 1" where (ub hw)
          && Probe.check
               ((not (exact ghw && exact tw)) || ub ghw <= ub tw + 1)
               "%s: ghw %d > tw %d + 1" where (ub ghw) (ub tw)
    in
    let fhw_value =
      match audit with Some q -> Rat.to_float q | None -> float_of_int (ub fhw)
    in
    emit
      {
        Probe.pass = !Probe.pass;
        key = inst.Gen.name;
        ms;
        acyclic = None;
        hit = None;
        exact = exact_of tw + exact_of ghw + exact_of fhw + exact_of hw;
        solves = 4;
        width = float_of_int (ub tw + ub ghw + ub hw) +. fhw_value;
        ok;
        extra = [];
      }
  in
  fun () -> Array.iter ladder (next ())

(* ------------------------------------------------------------------ *)
(* query                                                               *)
(* ------------------------------------------------------------------ *)

let query_vertices = 200
let query_edges = 800

type expected = { count : int; nonempty : bool; answers : string array list }

let sorted_answers (r : Y.result) = List.sort compare r.Y.answers

(* The reference answers, by the row engine, in a forked child so its
   memory does not count in the measured process's peak. *)
let reference db (queries : (Gen.shape * string) list) =
  let rd, wr = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let oc = Unix.out_channel_of_descr wr in
      let out =
        List.map
          (fun ((s : Gen.shape), text) ->
            let r = Y.run ~engine:Y.Rows ~mode:s.Gen.mode db (Hd_query.Cq.parse_string text) in
            { count = r.Y.count; nonempty = r.Y.nonempty; answers = sorted_answers r })
          queries
      in
      Marshal.to_channel oc (out : expected list) [];
      close_out oc;
      Unix._exit 0
  | pid ->
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let (out : expected list) = Marshal.from_channel ic in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      out

type query_env = { db : Hd_query.Db.t; nm : Gen.naming }

let query_setup ~seed ~dir =
  let g = Gen.graph ~n:query_vertices ~m:query_edges in
  let nm = Gen.naming ~seed g in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  List.iter
    (fun (file, contents) ->
      Out_channel.with_open_bin (Filename.concat dir file) (fun oc ->
          output_string oc contents))
    (Gen.relation_files ~seed g nm);
  let db = Hd_query.Db.create () in
  Probe.span "hd_query.load" (fun () -> Hd_query.Db.load_dir db dir);
  { db; nm }

let query_reference env =
  reference env.db (List.map (fun (s : Gen.shape) -> (s, s.Gen.template env.nm)) Gen.shapes)

(* One pass runs every shape [per_pass] times, in a seeded order, each
   time under fresh variable names. *)
let query ~seed env expected ~emit =
  let shapes = Array.of_list (List.combine Gen.shapes expected) in
  let st = Gen.rng seed (Gen.query_salt + 2) in
  let pass =
    Array.concat
      (Array.to_list
         (Array.mapi (fun k ((s : Gen.shape), _) -> Array.make s.Gen.per_pass k) shapes))
  in
  fun () ->
    let order = Array.copy pass in
    Gen.shuffle st order;
    Array.iter
      (fun k ->
        let (s : Gen.shape), (e : expected) = shapes.(k) in
        let text = Gen.rename_query st (s.Gen.template env.nm) in
        let r, ms =
          timed (fun () ->
              let q = Probe.span "hd_query.parse" (fun () -> Hd_query.Cq.parse_string text) in
              Probe.span "hd_query.run" (fun () ->
                  Y.run ~method_:Y.Auto ~mode:s.Gen.mode env.db q))
        in
        let where = s.Gen.shape in
        let ok =
          Probe.check (r.Y.count = e.count) "%s: count %d, reference %d" where
            r.Y.count e.count
          && Probe.check (r.Y.nonempty = e.nonempty) "%s: emptiness differs" where
          && Probe.check
               (s.Gen.mode <> Y.Answers || sorted_answers r = e.answers)
               "%s: answer set differs from the reference" where
          && Probe.check (r.Y.stats.Y.acyclic = not s.Gen.cyclic)
               "%s: planned as %s" where
               (if r.Y.stats.Y.acyclic then "acyclic" else "cyclic")
        in
        let w = r.Y.stats.Y.width in
        emit
          {
            Probe.pass = !Probe.pass;
            key = s.Gen.shape;
            ms;
            acyclic = Some (not s.Gen.cyclic);
            hit = None;
            (* a cyclic query has ghw >= 2, so a width-2 plan is optimal *)
            exact = (if w = (if s.Gen.cyclic then 2 else 1) then 1 else 0);
            solves = 1;
            width = float_of_int w;
            ok;
            extra =
              [
                ("materialized", float_of_int r.Y.stats.Y.tuples_materialized);
                ("reduced", float_of_int r.Y.stats.Y.tuples_after_reduction);
              ];
          })
      order
