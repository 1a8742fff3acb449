(* What a run records: one sample per operation, the driver's own spans
   around public calls (traced runs only), failed checks, and the
   process's peak resident set. *)

module Json = Hd_obs.Obs.Json

let now = Hd_engine.Clock.now

(* ------------------------------------------------------------------ *)
(* Driver spans                                                        *)
(* ------------------------------------------------------------------ *)

type span = {
  id : int;
  op : int;  (** the operation the span belongs to *)
  name : string;
  parent : int;  (** enclosing span id, -1 at an operation's root *)
  t0 : float;
  t1 : float;
}

let tracing = ref false
let spans : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []
let current_op = ref (-1)

let record ~op ~name ~parent ~t0 ~t1 =
  let id = !next_id in
  incr next_id;
  if !tracing then spans := { id; op; name; parent; t0; t1 } :: !spans;
  id

(* [span name f] times [f ()] as a child of the innermost open span of
   the current operation; exactly [f ()] when not tracing. *)
let span name f =
  if not !tracing then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    let t0 = now () in
    stack := id :: !stack;
    Fun.protect
      ~finally:(fun () ->
        stack := List.tl !stack;
        spans := { id; op = !current_op; name; parent; t0; t1 = now () } :: !spans)
      f
  end

let span_json s =
  Json.List
    [
      Json.Int s.id; Json.Int s.op; Json.String s.name; Json.Int s.parent;
      Json.Float (s.t0 *. 1000.0); Json.Float (s.t1 *. 1000.0);
    ]

(* ------------------------------------------------------------------ *)
(* Operation samples                                                   *)
(* ------------------------------------------------------------------ *)

(* the index of the pass (a server block, on [server]) running now *)
let pass = ref 0

type sample = {
  pass : int;  (** pass the operation ran in *)
  key : string;  (** the structure (and solver) the operation worked on *)
  ms : float;  (** latency *)
  acyclic : bool option;
      (** the query is alpha-acyclic; [None] where the split is not measured *)
  hit : bool option;  (** served from a cache; [None] where no cache is involved *)
  exact : int;  (** solves in the operation that proved their optimum *)
  solves : int;
  width : float;  (** sum of the reported upper bounds *)
  ok : bool;  (** every output check passed *)
  extra : (string * float) list;  (** workload-specific figures *)
}

let sample_json s =
  Json.Obj
    ([
       ("pass", Json.Int s.pass);
       ("key", Json.String s.key);
       ("ms", Json.Float s.ms);
       ("exact", Json.Int s.exact);
       ("solves", Json.Int s.solves);
       ("width", Json.Float s.width);
       ("ok", Json.Bool s.ok);
     ]
    @ (match s.acyclic with Some a -> [ ("acyclic", Json.Bool a) ] | None -> [])
    @ (match s.hit with Some h -> [ ("hit", Json.Bool h) ] | None -> [])
    @ List.map (fun (k, v) -> (k, Json.Float v)) s.extra)

(* Seconds the driver has spent outside the measured work, checking
   outputs.  Passes leave them out of their duration. *)
let untimed_s = ref 0.0

let untimed f =
  let t0 = now () in
  Fun.protect ~finally:(fun () -> untimed_s := !untimed_s +. (now () -. t0)) f

(* ------------------------------------------------------------------ *)
(* Checks                                                              *)
(* ------------------------------------------------------------------ *)

let failures = ref 0

(* [check ok fmt] reports a failed output check on stderr; the result
   is [ok], so checks chain with [&&]. *)
let check ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then begin
        incr failures;
        if !failures <= 20 then prerr_endline ("check failed: " ^ msg)
      end;
      ok)
    fmt

(* ------------------------------------------------------------------ *)
(* Memory                                                              *)
(* ------------------------------------------------------------------ *)

(* VmHWM of a process, in MB; 0 when /proc is unavailable. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.0
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec go () =
            match input_line ic with
            | exception End_of_file -> 0.0
            | line ->
                if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
                  Scanf.sscanf
                    (String.sub line 6 (String.length line - 6))
                    " %d kB"
                    (fun kb -> float_of_int kb /. 1024.0)
                else go ()
          in
          go ())

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

let counters () =
  Hd_obs.Obs.Counter.all ()
  |> List.map (fun c -> (Hd_obs.Obs.Counter.name c, Hd_obs.Obs.Counter.value c))
  |> List.sort compare

let counters_json cs = Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) cs)
