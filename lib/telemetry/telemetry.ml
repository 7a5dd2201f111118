(** Pipeline telemetry: hierarchical spans, process-wide counters and
    histograms, and two exporters (a human-readable stage table and Chrome
    [trace_event] JSON loadable in chrome://tracing / Perfetto).

    The instrumented pipeline (see {!Namer_core.Namer.build}) opens one span
    per stage — parse → analyze → astplus → namepaths → pair-mining →
    pattern-mining → scan → classifier — so that a single scan produces both
    an aggregate per-stage cost table and a zoomable timeline.

    Telemetry is disabled by default: the sink starts as {!Null} and every
    entry point ({!with_span}, {!count}, {!observe}) begins with a single
    load of an [enabled] flag, so instrumented code pays one branch and no
    allocation when telemetry is off.  When the sink is {!Memory}, all state
    lives behind one mutex, making the recorder safe to call from multiple
    domains; span nesting depth is tracked per domain (domain-local
    storage), and every span records the id of the domain that opened it
    ([tid]), so a parallel [--jobs N] run exports one timeline lane per
    domain in the Chrome trace. *)

type sink = Null | Memory

(* ------------------------------------------------------------------ *)
(* Recorder state                                                      *)
(* ------------------------------------------------------------------ *)

(** One closed span.  [ts_us] is microseconds since {!set_sink}/{!reset};
    [alloc_bytes] is the Gc allocation delta ([minor + major - promoted]
    words, scaled to bytes) over the span's extent, including children. *)
type span = {
  name : string;
  ts_us : float;
  dur_us : float;
  depth : int;
  tid : int;  (** id of the domain that opened the span *)
  alloc_bytes : float;
  args : (string * string) list;
}

(** Five-number summary of a histogram (percentiles via
    {!Namer_util.Stats.percentile}). *)
type summary = {
  n : int;
  total : float;
  mean : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

(** Per-stage aggregate: every span with the same name folded together,
    ordered by first occurrence. *)
type stage = {
  stage : string;
  s_count : int;
  wall_ms : float;
  alloc_mb : float;
}

let mutex = Mutex.create ()
let enabled_flag = ref false
let epoch = ref 0.0
let spans_rev : span list ref = ref []

(* Span nesting is a per-domain notion: each domain nests its own spans
   independently, so the names of the open spans (innermost first) live in
   domain-local storage rather than behind the mutex. *)
let open_key : string list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])
let hists_tbl : (string, float list ref) Hashtbl.t = Hashtbl.create 16

let locked f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

(* Counters are sharded per domain: [count] fires in scan/mining hot loops
   (e.g. once per pattern match) from every worker, and a process-wide
   mutex per increment serializes the domains exactly where the pipeline is
   supposed to be parallel.  Each domain owns a DLS table it increments
   lock-free; tables are registered (under the mutex, once per domain) in
   [counter_tables] and summed at read time.  Reads happen after the domain
   pool has been joined, so the merged view is consistent; a mid-flight
   read would at worst miss in-progress increments, never corrupt. *)
let counter_tables : (string, int ref) Hashtbl.t list ref = ref []

let counters_key : (string, int ref) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let tbl = Hashtbl.create 64 in
      locked (fun () -> counter_tables := tbl :: !counter_tables);
      tbl)

let clear_unlocked () =
  spans_rev := [];
  Domain.DLS.get open_key := [];
  (* Clear contents but keep every table registered: live domains hold DLS
     references to theirs and would otherwise increment orphans. *)
  List.iter Hashtbl.reset !counter_tables;
  Hashtbl.reset hists_tbl;
  epoch := Unix.gettimeofday ()

(** [set_sink s] switches recording on ([Memory]) or off ([Null]).
    Switching does not discard already-recorded data; use {!reset} for a
    clean slate. *)
let set_sink (s : sink) =
  locked (fun () ->
      (match s with
      | Memory -> if !epoch = 0.0 then epoch := Unix.gettimeofday ()
      | Null -> ());
      enabled_flag := s = Memory)

let enabled () = !enabled_flag

(** Drop all recorded spans, counters and histograms and restart the clock. *)
let reset () = locked clear_unlocked

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)
(* ------------------------------------------------------------------ *)

let alloc_words (g : Gc.stat) = g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words
let bytes_per_word = float_of_int (Sys.word_size / 8)

(** [with_span name f] runs [f ()] inside a span.  When telemetry is
    disabled this is a single branch around [f].  [record_ms] additionally
    feeds the span's duration (in ms) into the named histogram — used for
    per-file latency distributions.  The span is closed (and recorded) even
    when [f] raises.  A span opened inside an open span of the same name on
    the same domain is folded into it — not recorded — so a stage that
    calls into code opening its own span of that name (a direct build
    around a finalize, both "build") is counted once. *)
let with_span ?(args = []) ?record_ms name f =
  if not !enabled_flag then f ()
  else
    let open_ref = Domain.DLS.get open_key in
    let outer = !open_ref in
    if List.mem name outer then f ()
    else begin
      open_ref := name :: outer;
      let d = List.length outer in
      let tid = (Domain.self () :> int) in
      let g0 = alloc_words (Gc.quick_stat ()) in
      let t0 = Unix.gettimeofday () in
      let finish () =
        let t1 = Unix.gettimeofday () in
        let g1 = alloc_words (Gc.quick_stat ()) in
        open_ref := outer;
        locked (fun () ->
            spans_rev :=
              {
                name;
                ts_us = (t0 -. !epoch) *. 1e6;
                dur_us = (t1 -. t0) *. 1e6;
                depth = d;
                tid;
                alloc_bytes = (g1 -. g0) *. bytes_per_word;
                args;
              }
              :: !spans_rev;
            match record_ms with
            | None -> ()
            | Some h -> (
                let v = (t1 -. t0) *. 1e3 in
                match Hashtbl.find_opt hists_tbl h with
                | Some r -> r := v :: !r
                | None -> Hashtbl.replace hists_tbl h (ref [ v ])))
      in
      Fun.protect ~finally:finish f
    end

(** Increment the named process-wide counter — lock-free on the calling
    domain's own shard. *)
let count ?(by = 1) name =
  if !enabled_flag then begin
    let tbl = Domain.DLS.get counters_key in
    match Hashtbl.find_opt tbl name with
    | Some r -> r := !r + by
    | None -> Hashtbl.replace tbl name (ref by)
  end

(** Record one observation into the named histogram. *)
let observe name v =
  if !enabled_flag then
    locked (fun () ->
        match Hashtbl.find_opt hists_tbl name with
        | Some r -> r := v :: !r
        | None -> Hashtbl.replace hists_tbl name (ref [ v ]))

(* ------------------------------------------------------------------ *)
(* Reading back                                                        *)
(* ------------------------------------------------------------------ *)

(** All closed spans in chronological (start-time) order. *)
let spans () =
  locked (fun () -> !spans_rev)
  |> List.stable_sort (fun a b -> compare a.ts_us b.ts_us)

let counters () =
  locked (fun () ->
      let merged : (string, int) Hashtbl.t = Hashtbl.create 64 in
      List.iter
        (fun tbl ->
          Hashtbl.iter
            (fun k r ->
              Hashtbl.replace merged k
                (!r + Option.value (Hashtbl.find_opt merged k) ~default:0))
            tbl)
        !counter_tables;
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) merged [])
  |> List.sort compare

let counter name =
  locked (fun () ->
      List.fold_left
        (fun acc tbl ->
          match Hashtbl.find_opt tbl name with Some r -> acc + !r | None -> acc)
        0 !counter_tables)

let summarize xs =
  let module S = Namer_util.Stats in
  {
    n = List.length xs;
    total = List.fold_left ( +. ) 0.0 xs;
    mean = S.mean xs;
    p50 = S.percentile 50.0 xs;
    p90 = S.percentile 90.0 xs;
    p99 = S.percentile 99.0 xs;
  }

(** Histogram summaries, sorted by name.  Histograms are never empty: a name
    exists only once it has at least one observation. *)
let histograms () =
  locked (fun () ->
      Hashtbl.fold (fun k r acc -> (k, !r) :: acc) hists_tbl [])
  |> List.sort compare
  |> List.map (fun (k, xs) -> (k, summarize xs))

let histogram name =
  locked (fun () ->
      Hashtbl.find_opt hists_tbl name |> Option.map (fun r -> !r))
  |> Option.map summarize

(** [percentile name p] — the [p]-th percentile ([0.0]–[100.0]) of the
    named histogram, or [None] for a histogram with no observations.  The
    single accessor behind every p50/p90/p99 the exporters print, so no
    caller recomputes percentiles from raw observations. *)
let percentile name p =
  locked (fun () ->
      Hashtbl.find_opt hists_tbl name |> Option.map (fun r -> !r))
  |> Option.map (Namer_util.Stats.percentile p)

(** Spans aggregated by name, in order of first appearance.  This is the
    "stage" view: per-file [parse] spans fold into one row, etc. *)
let stages () =
  let tbl : (string, stage ref) Hashtbl.t = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (fun s ->
      match Hashtbl.find_opt tbl s.name with
      | Some r ->
          r :=
            {
              !r with
              s_count = !r.s_count + 1;
              wall_ms = !r.wall_ms +. (s.dur_us /. 1e3);
              alloc_mb = !r.alloc_mb +. (s.alloc_bytes /. 1048576.0);
            }
      | None ->
          let r =
            ref
              {
                stage = s.name;
                s_count = 1;
                wall_ms = s.dur_us /. 1e3;
                alloc_mb = s.alloc_bytes /. 1048576.0;
              }
          in
          Hashtbl.replace tbl s.name r;
          order := s.name :: !order)
    (spans ());
  List.rev_map (fun name -> !(Hashtbl.find tbl name)) !order

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)
(* ------------------------------------------------------------------ *)

(** Human-readable per-stage cost table (one row per distinct span name).
    [stages] overrides the live span buffer with a previously captured
    stage list. *)
let stage_table ?stages:captured () =
  let rows =
    List.map
      (fun s ->
        [
          s.stage;
          string_of_int s.s_count;
          Printf.sprintf "%.3f" s.wall_ms;
          Printf.sprintf "%.2f" s.alloc_mb;
        ])
      (match captured with Some l -> l | None -> stages ())
  in
  Namer_util.Tablefmt.render ~caption:"telemetry: pipeline stages"
    ~header:[ "stage"; "count"; "wall ms"; "alloc MB" ]
    rows

(** Human-readable histogram table: one row per histogram, the five-number
    summary rendered through {!percentile}'s underlying summaries. *)
let histogram_table () =
  let rows =
    List.map
      (fun (name, s) ->
        [
          name;
          string_of_int s.n;
          Printf.sprintf "%.3f" s.mean;
          Printf.sprintf "%.3f" s.p50;
          Printf.sprintf "%.3f" s.p90;
          Printf.sprintf "%.3f" s.p99;
        ])
      (histograms ())
  in
  Namer_util.Tablefmt.render ~caption:"telemetry: histograms"
    ~header:[ "histogram"; "n"; "mean"; "p50"; "p90"; "p99" ]
    rows

module J = Namer_util.Json

(** Chrome [trace_event] JSON: complete ("X") events sorted by start time,
    microsecond timestamps, one process/thread.  Load the file in
    chrome://tracing or https://ui.perfetto.dev. *)
let to_chrome_json () =
  let event (s : span) =
    J.Obj
      [
        ("name", J.String s.name);
        ("cat", J.String "namer");
        ("ph", J.String "X");
        ("ts", J.Float s.ts_us);
        ("dur", J.Float s.dur_us);
        ("pid", J.Int 1);
        ("tid", J.Int s.tid);
        ( "args",
          J.Obj
            (("alloc_bytes", J.Float s.alloc_bytes)
            :: List.map (fun (k, v) -> (k, J.String v)) s.args) );
      ]
  in
  J.Obj
    [
      ("traceEvents", J.List (List.map event (spans ())));
      ("displayTimeUnit", J.String "ms");
    ]

let summary_json (s : summary) =
  J.Obj
    [
      ("n", J.Int s.n);
      ("total", J.Float s.total);
      ("mean", J.Float s.mean);
      ("p50", J.Float s.p50);
      ("p90", J.Float s.p90);
      ("p99", J.Float s.p99);
    ]

(** [stages_to_json stages] renders a captured stage list (e.g. a snapshot
    taken between two instrumented runs being compared) as JSON. *)
let stages_to_json stage_list =
  J.Obj
    (List.map
       (fun s ->
         ( s.stage,
           J.Obj
             [
               ("count", J.Int s.s_count);
               ("wall_ms", J.Float s.wall_ms);
               ("alloc_mb", J.Float s.alloc_mb);
             ] ))
       stage_list)

let stages_json () = stages_to_json (stages ())

(** The whole metric registry — counters, histogram summaries and stage
    aggregates — as one JSON object ([namer stats], [BENCH_pipeline.json]). *)
let metrics_json () =
  J.Obj
    [
      ("counters", J.Obj (List.map (fun (k, v) -> (k, J.Int v)) (counters ())));
      ( "histograms",
        J.Obj (List.map (fun (k, s) -> (k, summary_json s)) (histograms ())) );
      ("stages", stages_json ());
    ]

let write_json ~path (j : J.t) =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (J.to_string ~indent:2 j);
      output_char oc '\n')

let write_chrome_trace ~path = write_json ~path (to_chrome_json ())
let write_metrics ~path = write_json ~path (metrics_json ())

(* ------------------------------------------------------------------ *)
(* Progress reporting                                                  *)
(* ------------------------------------------------------------------ *)

(** [progressf fmt ...] prints one progress line to stderr (flushed), so
    stdout stays machine-parseable.  This is the CLI's replacement for bare
    [Printf.printf] progress lines. *)
let progressf fmt = Printf.eprintf ("[namer] " ^^ fmt ^^ "\n%!")
