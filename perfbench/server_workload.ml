(* The server workload: the hd_server binary over one stdin/stdout
   connection, driven by a closed-loop client with at most [window]
   jobs outstanding.  One operation is one submit -> wait round trip;
   a submit answered from the cache is waited on at once, a solving
   one joins the window. *)

module Json = Hd_obs.Obs.Json

let window = 2

let max_states = 500

(* One worker domain per outstanding job, so a solve never waits for
   a time slice of its neighbour's. *)
let workers = 2

type server = {
  pid : int;
  to_server : out_channel;
  from_server : in_channel;
  errors : in_channel;
}

let member k j = Json.member k j
let field_int k j = match member k j with Some (Json.Int n) -> n | _ -> -1
let field_bool k j = match member k j with Some (Json.Bool b) -> b | _ -> false
let field_string k j = match member k j with Some (Json.String s) -> s | _ -> ""

let field_float k j =
  match member k j with
  | Some (Json.Float f) -> f
  | Some (Json.Int n) -> float_of_int n
  | _ -> 0.0

let request s fields =
  output_string s.to_server (Json.to_compact (Json.Obj fields));
  output_char s.to_server '\n';
  flush s.to_server;
  match input_line s.from_server with
  | line -> ( match Json.parse_opt line with Some j -> j | None -> Json.Null)
  | exception End_of_file -> Json.Null

(* Start the server and block until its ready line. *)
let start ~exe =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err_r, err_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe
      [| exe; "-j"; string_of_int workers; "--max-states"; string_of_int max_states |]
      in_r out_w err_w
  in
  List.iter Unix.close [ in_r; out_w; err_w ];
  let s =
    {
      pid;
      to_server = Unix.out_channel_of_descr in_w;
      from_server = Unix.in_channel_of_descr out_r;
      errors = Unix.in_channel_of_descr err_r;
    }
  in
  (match input_line s.errors with
  | line when String.length line >= 17 && String.sub line 0 17 = "hd_server: ready " -> ()
  | line -> failwith ("hdbench: hd_server did not start: " ^ line)
  | exception End_of_file -> failwith "hdbench: hd_server exited before ready");
  s

let stop s =
  ignore (request s [ ("op", Json.String "shutdown") ]);
  close_out_noerr s.to_server;
  (try
     while true do
       ignore (input_line s.errors)
     done
   with End_of_file -> ());
  close_in_noerr s.errors;
  close_in_noerr s.from_server;
  ignore (Unix.waitpid [] s.pid)

let counters s =
  match member "counters" (request s [ ("op", Json.String "stats") ]) with
  | Some (Json.Obj kv) ->
      List.filter_map (function k, Json.Int v -> Some (k, v) | _ -> None) kv
  | _ -> []

let peak_rss_mb s = Probe.peak_rss_mb (string_of_int s.pid)

(* ------------------------------------------------------------------ *)
(* The client                                                          *)
(* ------------------------------------------------------------------ *)

(* Each structure is sent under two fixed renamings, one per round of
   a block.  Atoms keep their order, as in [Gen.corpus], so the solver
   does the same work for every seed. *)
let variants = 2

type env = {
  structures : Gen.instance array;
  texts : string array array;  (** per structure, its renamings *)
  st : Random.State.t;
  mutable counters : (string * int) list;  (** summed over the blocks' servers *)
  mutable rss : float list;  (** each block's server's peak resident set *)
}

(* The structures, and the renamings of each that the client sends. *)
let inputs ~seed =
  let structures = Gen.corpus ~seed in
  let st = Gen.rng seed 5 in
  (structures, Array.map (fun i -> Array.init variants (fun _ -> Gen.rerename st i)) structures)

let setup ~seed =
  let structures, texts = inputs ~seed in
  { structures; texts; st = Gen.rng seed 6; counters = []; rss = [] }

let add_counters a b =
  List.fold_left
    (fun acc (k, v) ->
      (k, v + Option.value ~default:0 (List.assoc_opt k acc)) :: List.remove_assoc k acc)
    a b
  |> List.sort compare

type job = {
  op : int;
  inst : Gen.instance;
  text : string;
  t_sent : float;
  t_submitted : float;
  submit_reply : Json.t;
}
let source_of (i : Gen.instance) text =
  if i.Gen.is_cq then ("cq", Json.String text) else ("hypergraph", Json.String text)

(* The structure as the server parsed it, in the same vertex numbering. *)
let parse_like_server (i : Gen.instance) text =
  if i.Gen.is_cq then Hd_query.Cq.hypergraph (Hd_query.Cq.parse_string text)
  else Hd_hypergraph.Hg_format.parse_string text

(* Every reply ok, the job done, and its ordering a valid GHD of the
   submitted renaming with the reported width: equal to it on an exact
   result, at most it on a bounds result, whose width is an upper
   bound. *)
let validate job reply =
  let where = job.inst.Gen.name in
  let result = Option.value ~default:Json.Null (member "result" reply) in
  Probe.check (field_bool "ok" job.submit_reply) "%s: submit failed: %s" where
    (field_string "error" job.submit_reply)
  && Probe.check (field_bool "ok" reply) "%s: wait failed: %s" where
       (field_string "error" reply)
  && Probe.check (field_string "state" reply = "done") "%s: job ended %s" where
       (field_string "state" reply)
  &&
  match member "ordering" result with
  | Some (Json.List vs) ->
      let sigma = Array.of_list (List.map (function Json.Int v -> v | _ -> -1) vs) in
      let h = parse_like_server job.inst job.text in
      let g = Hd_core.Ghd.of_ordering h sigma ~cover:`Exact in
      let w = Hd_core.Ghd.width g and reported = field_int "width" result in
      Probe.check (Hd_core.Ghd.valid h g) "%s: returned ordering gives an invalid GHD" where
      && Probe.check
           (if field_string "outcome" result = "exact" then w = reported else w <= reported)
           "%s: witness width %d, reported %s %d" where w
           (field_string "outcome" result) reported
  | _ -> Probe.check false "%s: no ordering in the result" where

(* One block, on a server of its own that starts with an empty cache.
   The first round submits every structure once, in a seeded order,
   under its first renaming: all misses, and each exact result is
   cached.  The second round sends the second renamings: first the
   structures whose first result was not exact, which solve again
   since bounds are never cached, and after those have drained, the
   rest, all answered from the cache.  So hits never run beside a
   solving worker, and every block holds the same operations, however
   many blocks a run completes.  The replies are checked afterwards,
   and the server's counters and peak resident set read and the server
   stopped, outside the block's time. *)
let block env s ~emit =
  let outstanding = Queue.create () in
  let finished = ref [] in
  let finish job =
    let t0 = Probe.now () in
    let reply =
      request s
        [ ("op", Json.String "wait"); ("job", Json.Int (field_int "job" job.submit_reply));
          ("timeout", Json.Float 120.0) ]
    in
    let t1 = Probe.now () in
    let root = Probe.record ~op:job.op ~name:"op" ~parent:(-1) ~t0:job.t_sent ~t1 in
    ignore
      (Probe.record ~op:job.op ~name:"hd_server.submit" ~parent:root ~t0:job.t_sent
         ~t1:job.t_submitted);
    ignore (Probe.record ~op:job.op ~name:"hd_server.wait" ~parent:root ~t0 ~t1);
    finished := (job, reply, t1) :: !finished
  in
  let submit variant i =
    if Queue.length outstanding >= window then finish (Queue.pop outstanding);
    let inst = env.structures.(i) and text = env.texts.(i).(variant) in
    incr Probe.current_op;
    let t_sent = Probe.now () in
    let submit_reply =
      request s [ ("op", Json.String "submit"); source_of inst text; ("ordering", Json.Bool true) ]
    in
    let job =
      { op = !Probe.current_op; inst; text; t_sent; t_submitted = Probe.now (); submit_reply }
    in
    match field_string "state" submit_reply with
    | "queued" | "running" -> Queue.push job outstanding
    | _ -> finish job
  in
  let drain () = Queue.iter finish outstanding; Queue.clear outstanding in
  let order = Array.init (Array.length env.structures) Fun.id in
  Gen.shuffle env.st order;
  Array.iter (submit 0) order;
  drain ();
  let exact = Hashtbl.create 64 in
  List.iter
    (fun (job, reply, _) ->
      let result = Option.value ~default:Json.Null (member "result" reply) in
      if field_string "outcome" result = "exact" then Hashtbl.replace exact job.inst.Gen.name ())
    !finished;
  let misses, hits =
    List.partition
      (fun i -> not (Hashtbl.mem exact env.structures.(i).Gen.name))
      (Array.to_list order)
  in
  List.iter (submit 1) misses;
  drain ();
  List.iter (submit 1) hits;
  drain ();
  Probe.untimed (fun () ->
      env.counters <- add_counters env.counters (counters s);
      env.rss <- peak_rss_mb s :: env.rss;
      stop s;
      List.iter
        (fun (job, reply, t1) ->
          let result = Option.value ~default:Json.Null (member "result" reply) in
          let ok = validate job reply in
          emit
            {
              Probe.pass = !Probe.pass;
              key = job.inst.Gen.name;
              ms = (t1 -. job.t_sent) *. 1000.0;
              acyclic = None;
              hit = Some (field_bool "cached" job.submit_reply);
              exact = (if field_string "outcome" result = "exact" then 1 else 0);
              solves = 1;
              width = float_of_int (field_int "ub" result);
              ok;
              extra =
                [
                  ("submit_ms", (job.t_submitted -. job.t_sent) *. 1000.0);
                  ("compute_ms", field_float "elapsed" result *. 1000.0);
                ];
            })
        (List.rev !finished))
