(* hdbench: run one benchmark workload and print one raw JSON record
   (samples, set-up times, counters, spans) as the last line of
   standard output.  perfbench/run.py turns the record into metrics.

     hdbench run --workload W --seed N --seconds S --trace 0|1
     hdbench inputs --workload W --seed N

   [inputs] prints digests of the generated inputs: [bytes] changes
   with the seed, [structure] must not. *)

module Json = Hd_obs.Obs.Json
module Obs = Hd_obs.Obs

let workload = ref ""
let seed = ref 1
let seconds = ref 10.0
let trace = ref 0

(* set-ups before the first pass; one more follows every pass *)
let first_setups = 9

(* paths relative to the root of the source tree *)
let server_exe = "_build/default/bin/hd_server.exe"
let scratch = "perfbench/_out"

let specs =
  [
    ("--workload", Arg.Set_string workload, "W decompose|widths|query|server");
    ("--seed", Arg.Set_int seed, "N input seed");
    ("--seconds", Arg.Set_float seconds, "S measured seconds per phase");
    ("--trace", Arg.Set_int trace, "0|1 traced run (per-layer figures)");
  ]

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("hdbench: " ^ m); exit 2) fmt

(* ------------------------------------------------------------------ *)
(* inputs: seed-determinism digests                                    *)
(* ------------------------------------------------------------------ *)

let digest s = Digest.to_hex (Digest.string s)

(* A renaming-invariant digest of a hypergraph: three rounds of colour
   refinement from vertex degrees, then the sorted vertex and edge
   colours. *)
let structure_digest n (edges : int list list) =
  let colour = Array.make n "" in
  List.iter (List.iter (fun v -> colour.(v) <- colour.(v) ^ ".")) edges;
  let edge_colours () =
    List.map (fun e -> digest (String.concat "," (List.sort compare (List.map (Array.get colour) e)))) edges
  in
  for _ = 1 to 3 do
    let incident = Array.make n [] in
    List.iter2
      (fun e c -> List.iter (fun v -> incident.(v) <- c :: incident.(v)) e)
      edges (edge_colours ());
    Array.iteri
      (fun v c -> colour.(v) <- digest (c ^ "|" ^ String.concat "," (List.sort compare incident.(v))))
      colour
  done;
  let sorted l = String.concat "," (List.sort compare l) in
  digest (sorted (Array.to_list colour) ^ "/" ^ sorted (edge_colours ()))

let hypergraph_digest h =
  let module Hg = Hd_hypergraph.Hypergraph in
  structure_digest (Hg.n_vertices h) (Hg.edges h)

let inputs () =
  let bytes, structure =
    match !workload with
    | "decompose" | "widths" | "server" ->
        let insts, texts =
          if !workload = "server" then Server_workload.inputs ~seed:!seed
          else
            let insts = Gen.corpus ~seed:!seed in
            (insts, Array.map (fun (i : Gen.instance) -> [| i.Gen.text |]) insts)
        in
        let pairs =
          List.concat
            (Array.to_list
               (Array.map2 (fun i ts -> List.map (fun t -> (i, t)) (Array.to_list ts)) insts texts))
        in
        let canon =
          List.map
            (fun ((i : Gen.instance), t) ->
              i.Gen.name ^ "=" ^ hypergraph_digest (Server_workload.parse_like_server i t))
            pairs
          |> List.sort compare
        in
        (String.concat "\x00" (List.map snd pairs), String.concat "\n" canon)
    | "query" ->
        let g = Gen.graph ~n:Lib_workloads.query_vertices ~m:Lib_workloads.query_edges in
        let nm = Gen.naming ~seed:!seed g in
        let files = Gen.relation_files ~seed:!seed g nm in
        let st = Gen.rng !seed 99 in
        let queries =
          List.map (fun (s : Gen.shape) -> Gen.rename_query st (s.Gen.template nm)) Gen.shapes
        in
        (* the instance as one hypergraph: a vertex per constant, an
           edge per row *)
        let ids = Hashtbl.create 1024 in
        let id c =
          match Hashtbl.find_opt ids c with
          | Some i -> i
          | None ->
              let i = Hashtbl.length ids in
              Hashtbl.replace ids c i;
              i
        in
        let rows =
          List.concat_map
            (fun (_, contents) ->
              String.split_on_char '\n' contents
              |> List.filter (( <> ) "")
              |> List.map (fun line -> List.map id (String.split_on_char ',' line)))
            files
        in
        ( String.concat "\x00" (List.map snd files @ queries),
          String.concat "\n"
            (structure_digest (Hashtbl.length ids) rows
            :: List.map
                 (fun q -> hypergraph_digest (Hd_query.Cq.hypergraph (Hd_query.Cq.parse_string q)))
                 queries) )
    | w -> fail "unknown workload %S" w
  in
  print_endline
    (Json.to_compact
       (Json.Obj
          [ ("bytes", Json.String (digest bytes)); ("structure", Json.String (digest structure)) ]))

(* ------------------------------------------------------------------ *)
(* run                                                                 *)
(* ------------------------------------------------------------------ *)

let samples : Probe.sample list ref = ref []
let emit s = samples := s :: !samples

(* Times of the run's set-ups.  [staged k f] times [k] set-ups and
   returns the last one's environment, [drop]ping the others, and a
   function that times one more set-up and returns its environment.
   The run times a set-up after every pass, so the median set-up time
   spans the run rather than its first moments. *)
let setup_times = ref []

let staged ?(drop = ignore) k f =
  let timed () =
    let e, secs = Hd_engine.Clock.time f in
    setup_times := secs :: !setup_times;
    e
  in
  let env = ref (timed ()) in
  for _ = 2 to k do
    drop !env;
    env := timed ()
  done;
  (!env, timed)

(* Every run samples at least this many operations, so at least ten
   lie beyond the reported p90. *)
let min_samples = 100

(* Run whole passes for about [--seconds]: stop once the time left is
   under half a pass, and not before [min_samples] operations are
   done.  After each pass, [again] times another set-up.  The result
   is the passes' durations, less the driver's untimed work. *)
let passes ~again pass () =
  let t0 = Probe.now () in
  let rec go k durations =
    Probe.pass := k;
    let untimed = !Probe.untimed_s in
    let d = snd (Hd_engine.Clock.time pass) -. (!Probe.untimed_s -. untimed) in
    let durations = d :: durations in
    let elapsed = Probe.now () -. t0 in
    again ();
    let half_pass = elapsed /. float_of_int (2 * (k + 1)) in
    if elapsed < !seconds -. half_pass || List.length !samples < min_samples then
      go (k + 1) durations
    else List.rev durations
  in
  go 0 []

(* A workload after set-up. *)
type prepared = {
  measure : unit -> float list;
      (** run for [--seconds]; the durations of the passes *)
  counters : unit -> (string * int) list;  (** hd_obs counters of the working process *)
  finish : unit -> float;  (** tear down; the working process's peak RSS in MB *)
}

let in_process (pass, next) =
  { measure = passes ~again:(fun () -> ignore (next ())) pass; counters = Probe.counters;
    finish = (fun () -> Probe.peak_rss_mb "self") }

let median xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n = 0 then 0.0 else (a.((n - 1) / 2) +. a.(n / 2)) /. 2.0

let prepare setups =
  match !workload with
  | "decompose" ->
      in_process (staged setups (fun () -> Lib_workloads.decompose ~seed:!seed ~emit))
  | "widths" -> in_process (staged setups (fun () -> Lib_workloads.widths ~seed:!seed ~emit))
  | "query" ->
      let dir = Filename.concat scratch (Printf.sprintf "query-%d" !seed) in
      let env, next = staged setups (fun () -> Lib_workloads.query_setup ~seed:!seed ~dir) in
      let expected = Lib_workloads.query_reference env in
      in_process (Lib_workloads.query ~seed:!seed env expected ~emit, next)
  | "server" ->
      (* a set-up generates the inputs and starts a server; every block
         runs on the server of the set-up before it and stops it *)
      let module S = Server_workload in
      let setup () =
        let env = S.setup ~seed:!seed in
        (env, S.start ~exe:server_exe)
      in
      let (env, server), next = staged setups ~drop:(fun (_, s) -> S.stop s) setup in
      let current = ref server in
      {
        measure =
          passes
            ~again:(fun () -> current := snd (next ()))
            (fun () -> S.block env !current ~emit);
        counters = (fun () -> env.S.counters);
        finish =
          (fun () ->
            S.stop !current;
            median env.S.rss);
      }
  | w -> fail "unknown workload %S" w

(* An untraced run measures once.  A traced run measures untraced,
   tears down, sets up afresh and measures again traced, so both phases
   start from the same state (a cold server cache, for one). *)
let run () =
  if not (Sys.file_exists scratch) then Unix.mkdir scratch 0o755;
  let attempted = ref 0 in
  let phase p =
    samples := [];
    let durations = p.measure () in
    attempted := !attempted + List.length !samples;
    durations
  in
  let p = prepare first_setups in
  let durations = phase p in
  let setup_times = List.rev !setup_times in
  let rss = p.finish () in
  let trace_fields =
    if !trace = 0 then []
    else begin
      let untraced_ops = List.length !samples in
      Probe.tracing := true;
      let p = prepare 1 in
      Obs.enable ();
      let before = p.counters () in
      let traced = phase p in
      let after = p.counters () in
      Probe.tracing := false;
      Obs.disable ();
      ignore (p.finish ());
      if !workload = "query" then begin
        let get cs = Option.value ~default:0 (List.assoc_opt "query.enum_dead_ends" cs) in
        ignore
          (Probe.check (get after = get before) "query.enum_dead_ends rose by %d"
             (get after - get before))
      end;
      let sum = List.fold_left ( +. ) 0.0 in
      [
        ("untraced_ops", Json.Int untraced_ops);
        ("untraced_elapsed_s", Json.Float (sum durations));
        ("traced_elapsed_s", Json.Float (sum traced));
        ("counters_before", Probe.counters_json before);
        ("counters_after", Probe.counters_json after);
        ( "obs_spans",
          Option.value ~default:(Json.List []) (Json.member "spans" (Obs.report ())) );
        ("spans", Json.List (List.rev_map Probe.span_json !Probe.spans));
      ]
    end
  in
  print_endline
    (Json.to_compact
       (Json.Obj
          ([
             ("workload", Json.String !workload);
             ("seed", Json.Int !seed);
             ("setup_s", Json.List (List.map (fun t -> Json.Float t) setup_times));
             ("pass_s", Json.List (List.map (fun t -> Json.Float t) durations));
             ("attempted", Json.Int !attempted);
             ("failed", Json.Int !Probe.failures);
             ("peak_rss_mb", Json.Float rss);
             ("samples", Json.List (List.rev_map Probe.sample_json !samples));
           ]
          @ if trace_fields = [] then [] else [ ("trace", Json.Obj trace_fields) ])))

let () =
  let mode = ref "" in
  Arg.parse specs (fun a -> mode := a) "hdbench run|inputs [options]";
  match !mode with
  | "inputs" -> inputs ()
  | "run" -> run ()
  | m -> fail "unknown command %S (run | inputs)" m
