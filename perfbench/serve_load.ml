(* The serve-mixed client: one process, closed loop over keep-alive
   connections, requests drawn from the seed in a fixed mix of cached
   directory scans, never-seen directory scans and inline edited sources.
   Every ok response is checked against an in-process scan of the same
   files after the timed loop. *)

open Work
module Client = Namer_serve.Client
module Telemetry = Namer_telemetry.Telemetry

type cls = Cached | Uncached | Inline

(* A request, with the files the daemon will scan for it, read only for
   the check after the timed loop so the client does no file IO in it;
   [refs] are the same files as the traced replay loads them. *)
type req = {
  cls : cls;
  payload : J.t;
  files : Corpus.file list Lazy.t;
  refs : Namer.file_ref list Lazy.t;
}

(* An ok response: its fingerprint and the files it skipped. *)
type outcome = Ok_fp of string * int | Overloaded | Failed

let read_file path = In_channel.with_open_bin path In_channel.input_all

let lang_paths lang dir =
  walk_files dir |> List.filter (fun p -> Filename.check_suffix p (ext lang))

let dir_files lang dir =
  List.map (fun path -> { Corpus.repo = dir; path; source = read_file path })
    (lang_paths lang dir)

let repos pool = Sys.readdir pool |> Array.to_list |> List.sort compare
                 |> List.map (Filename.concat pool)

let dir_req lang cls dir =
  { cls; files = lazy (dir_files lang dir);
    refs = lazy (List.map (fun path -> Namer.ref_of_path ~repo:dir ~path ~file:path)
                   (lang_paths lang dir));
    payload = J.Obj [ ("op", J.String "scan"); ("dir", J.String dir);
                      ("max_reports", J.Int max_int) ] }

(* One edited file of a served repo, shipped inline: a new line appended,
   so its content is new to the cache. *)
let inline_req lang ~k dir =
  let paths = lang_paths lang dir in
  let path = List.nth paths (k mod List.length paths) in
  let edit = match lang with
    | Corpus.Python -> Printf.sprintf "\nedited_value_%d = %d\n" k k
    | Corpus.Java -> Printf.sprintf "\nclass Edited%d { int value = %d; }\n" k k
  in
  let f = { Corpus.repo = "<inline>"; path; source = read_file path ^ edit } in
  { cls = Inline; files = Lazy.from_val [ f ]; refs = Lazy.from_val [ Namer.ref_of_file f ];
    payload = J.Obj [ ("op", J.String "scan");
                      ("sources", J.List [ J.Obj [ ("path", J.String f.Corpus.path);
                                                   ("source", J.String f.Corpus.source) ] ]);
                      ("max_reports", J.Int max_int) ] }

let shuffle st xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* The request stream: a pure function of the seed and the repo pools;
   [None] once the never-seen repos are used up.  Every block of ten
   requests holds the mix exactly — 7 cached, 2 never seen, 1 inline — in
   an order drawn from the seed, and the never-seen repos are met in an
   order drawn from it, so that runs of different seeds do not differ in
   how much work their requests ask for. *)
let make_stream ~lang ~seed ~cached ~fresh =
  let st = Random.State.make [| seed |] in
  let cached = Array.of_list cached and fresh = ref (shuffle st fresh) and k = ref 0 in
  let block = ref [] in
  let refill () =
    block := shuffle st [ Cached; Cached; Cached; Cached; Cached; Cached; Cached; Uncached;
                          Uncached; Inline ]
  in
  fun () ->
    if !block = [] then refill ();
    let cls = List.hd !block in
    block := List.tl !block;
    incr k;
    let pick = Random.State.int st (Array.length cached) in
    match cls with
    | Cached -> Some (dir_req lang Cached cached.(pick))
    | Uncached -> (
        match !fresh with
        | [] -> None
        | d :: rest -> fresh := rest; Some (dir_req lang Uncached d))
    | Inline -> Some (inline_req lang ~k:!k cached.(pick))

let classify resp =
  match resp with
  | Ok (J.Obj fields as j) when List.assoc_opt "ok" fields = Some (J.Bool true) ->
      let skipped = match List.assoc_opt "files_skipped" fields with Some (J.Int n) -> n | _ -> 0 in
      Ok_fp (Client.scan_fingerprint j, skipped)
  | Ok (J.Obj fields) when List.assoc_opt "code" fields = Some (J.String "overloaded") ->
      Overloaded
  | _ -> Failed

(* A request's start, latency and response, classified later: the loop
   does no more work per request than a client must. *)
let timed conn payload =
  let t0 = now () in
  let r = Client.request conn payload in
  (t0, now () -. t0, r)

(* The daemon's scan response for [files], as `namer scan --model --json`
   renders it: the reference a served response must equal. *)
let reference_fingerprint (m : Namer.model) files (r : Namer.scan_result) =
  let sources = Hashtbl.create 16 in
  List.iter (fun (f : Corpus.file) -> Hashtbl.replace sources f.Corpus.path f.Corpus.source) files;
  let statement (x : Namer.report) =
    match Hashtbl.find_opt sources x.Namer.r_file with
    | Some src -> (
        match List.nth_opt (String.split_on_char '\n' src) (x.Namer.r_line - 1) with
        | Some l -> String.trim l
        | None -> "<line out of range>")
    | None -> "<unknown file>"
  in
  Client.scan_fingerprint
    (J.Obj
       [ ("files", J.Int (List.length files));
         ("model", J.String m.Namer.m_hash);
         ("patterns", J.Int (Pattern.Store.size m.Namer.m_store));
         ("violations", J.Int (Array.length r.Namer.sr_reports));
         ("files_skipped", J.Int (List.length r.Namer.sr_skipped));
         ( "skipped",
           J.List
             (List.map
                (fun (s : Namer.skipped) ->
                  J.Obj [ ("file", J.String s.Namer.sk_file);
                          ("reason", J.String s.Namer.sk_reason) ])
                r.Namer.sr_skipped) );
         ( "reports",
           J.List
             (Array.to_list
                (Array.map
                   (fun (x : Namer.report) ->
                     J.Obj [ ("file", J.String x.Namer.r_file); ("line", J.Int x.Namer.r_line);
                             ("statement", J.String (statement x));
                             ("found", J.String x.Namer.r_found);
                             ("suggested", J.String x.Namer.r_suggested);
                             ("pattern", J.String x.Namer.r_kind) ])
                   r.Namer.sr_reports)) ) ])

let status_counts target =
  let conn = Client.connect ~retry_for:5.0 target in
  Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
  let int fields k = match List.assoc_opt k fields with Some (J.Int n) -> n | _ -> -1 in
  match Client.request conn (J.Obj [ ("op", J.String "status") ]) with
  | Ok (J.Obj fields) ->
      let cache = match List.assoc_opt "cache" fields with Some (J.Obj c) -> c | _ -> [] in
      (int cache "hits", int cache "misses", int fields "overloaded")
  | _ -> (-1, -1, -1)

(* Request every cached repo once, so that later requests replay. *)
let warm ~socket ~lang ~cached =
  let conn = Client.connect ~retry_for:30.0 (Client.Unix_path socket) in
  Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
  let bad =
    List.filter
      (fun d ->
        let _, _, r = timed conn (dir_req lang Cached d).payload in
        match classify r with Ok_fp _ -> false | _ -> true)
      cached
  in
  emit [ ("warmed", J.Int (List.length cached)); ("failed", J.Int (List.length bad)) ]

(* The requests whose files the daemon digested, each once, in the order
   it met them: the warmed repos, then the timed loop, then the lone
   request. *)
let distinct reqs =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun r -> if Hashtbl.mem seen r.payload then false else (Hashtbl.add seen r.payload (); true))
    reqs

let run ~socket ~model ~lang ~seed ~seconds ~conns ~jobs ~cached ~fresh ~trace ~corrupt =
  let target = Client.Unix_path socket in
  let fresh, alone_dir = match List.rev fresh with
    | d :: rest -> (List.rev rest, d) | [] -> failwith "serve-client: empty repo pool"
  in
  let next = make_stream ~lang ~seed ~cached ~fresh in
  let lock = Mutex.create () in
  let locked f = Mutex.lock lock; Fun.protect ~finally:(fun () -> Mutex.unlock lock) f in
  let log = ref [] and exhausted = ref false in
  let deadline = now () +. seconds in
  let t_start = now () in
  (* the loop ends at the deadline, or earlier once the never-seen repos
     are used up: a faster daemon measures a shorter loop, never fails *)
  let worker () =
    let conn = Client.connect ~retry_for:5.0 target in
    let rec loop () =
      if now () < deadline then
        match locked (fun () -> if !exhausted then None else next ()) with
        | None -> locked (fun () -> exhausted := true)
        | Some req ->
            let t0, dt, r = timed conn req.payload in
            locked (fun () -> log := (req, t0, dt, r) :: !log);
            loop ()
    in
    Fun.protect ~finally:(fun () -> Client.close conn) loop
  in
  let threads = List.init conns (fun _ -> Thread.create worker ()) in
  List.iter Thread.join threads;
  let wall = now () -. t_start in
  (* one never-seen repo with no competing load: under-load minus alone is
     the wait for the model lock *)
  let alone_req = dir_req lang Uncached alone_dir in
  let alone_ms, alone_o =
    let conn = Client.connect ~retry_for:5.0 target in
    Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
    let _, dt, r = timed conn alone_req.payload in
    (dt *. 1e3, (alone_req, classify r))
  in
  let hits, misses, overloaded = status_counts target in
  let loop_log = List.rev_map (fun (req, t0, dt, r) -> (req, t0, dt, classify r)) !log in
  let work =
    distinct (List.map (dir_req lang Cached) cached
              @ List.map (fun (r, _, _, _) -> r) loop_log @ [ alone_req ])
  in
  (* traced: the daemon's digest work replayed on one domain through the
     layers' calls, from a cold interner, before anything else interns *)
  let traced =
    if not trace then None
    else begin
      assert_cold ();
      Telemetry.set_sink Telemetry.Memory;
      Telemetry.reset ();
      let t0 = now () in
      let m = Replay.load_model model in
      let digests =
        Array.of_list (List.map (fun r -> Replay.scan_refs m (Lazy.force r.refs)) work)
      in
      Some (digests, Replay.trace_fields ~wall:(now () -. t0) ~mined:[])
    end
  in
  (* the check, untimed: every ok response against an in-process scan at
     --jobs 1; traced, also at --jobs N, and the replay's report digests *)
  let t0 = now () in
  let m = Namer.load_model ~path:model in
  let load_s = now () -. t0 in
  let references = Hashtbl.create 64 in
  let wall_1 = ref load_s and wall_n = ref load_s in
  let parallel_mismatched = ref 0 and replay_mismatched = ref 0 in
  List.iteri
    (fun i req ->
      let files = Lazy.force req.files in
      let t0 = now () in
      let r = Namer.scan_with_model m files in
      wall_1 := !wall_1 +. (now () -. t0);
      let fp = reference_fingerprint m files r in
      Hashtbl.replace references req.payload fp;
      match traced with
      | None -> ()
      | Some (digests, _) ->
          let t0 = now () in
          let rn = Namer.scan_with_model ~jobs m files in
          wall_n := !wall_n +. (now () -. t0);
          if reference_fingerprint m files rn <> fp then incr parallel_mismatched;
          let expect = reports_digest (of_scan_result r) in
          let expect = if corrupt then hex expect else expect in
          if digests.(i) <> expect then incr replay_mismatched)
    work;
  let failed = ref 0 and refused = ref 0 and mismatched = ref 0 and skipped = ref 0 in
  List.iter
    (fun (req, o) ->
      match o with
      | Failed -> incr failed
      | Overloaded -> incr refused
      | Ok_fp (fp, n) ->
          skipped := !skipped + n;
          let expect = Hashtbl.find references req.payload in
          let expect = if corrupt then hex expect else expect in
          if fp <> expect then incr mismatched)
    (alone_o :: List.map (fun (req, _, _, o) -> (req, o)) loop_log);
  (* each class's latencies, and when each request started, in ms from
     the loop's start *)
  let of_class c f =
    J.List (List.filter_map (fun (r, t0, dt, _) ->
        if r.cls = c then Some (J.Float (f t0 dt *. 1e3)) else None) loop_log)
  in
  let lat c = of_class c (fun _ dt -> dt) and started c = of_class c (fun t0 _ -> t0 -. t_start) in
  let files_served =
    List.fold_left (fun acc (r, _, _, o) ->
        match o with Ok_fp _ -> acc + List.length (Lazy.force r.files) | _ -> acc) 0 loop_log
  in
  let trace_fields =
    match traced with
    | None -> []
    | Some (_, fields) ->
        [ ( "trace",
            J.Obj
              (fields
               @ [ ("model_bytes", J.Int (Unix.stat model).Unix.st_size);
                   ("replay_mismatched", J.Int !replay_mismatched);
                   ("parallel_mismatched", J.Int !parallel_mismatched);
                   ("wall_jobs1_ms", ms !wall_1); ("wall_jobsn_ms", ms !wall_n) ]) ) ]
  in
  emit
    ([ ("requests", J.Int (List.length loop_log + 1));
       ("failed", J.Int !failed); ("overloaded_responses", J.Int !refused);
       ("mismatched", J.Int !mismatched); ("skipped", J.Int !skipped);
       ("exhausted", J.Bool !exhausted);
       ("wall_s", J.Float wall); ("loop_requests", J.Int (List.length loop_log));
       ("loop_at", instants t_start (t_start +. wall));
       ("files_served", J.Int files_served);
       ("cached_ms", lat Cached); ("uncached_ms", lat Uncached); ("inline_ms", lat Inline);
       ("cached_at_ms", started Cached); ("uncached_at_ms", started Uncached);
       ("inline_at_ms", started Inline);
       ("uncached_alone_ms", J.Float alone_ms);
       ("cache_hits", J.Int hits); ("cache_misses", J.Int misses);
       ("overloaded", J.Int overloaded) ]
    @ trace_fields)
