(* Bench-regression gate (the @bench-smoke alias): compares a freshly
   measured BENCH_pipeline.json against the committed baseline and fails
   if any pipeline stage's wall clock regressed more than 3x (plus a 50 ms
   absolute floor, so microsecond stages don't trip on noise), if the
   fresh run's jobs=1 / jobs=N reports diverged, if the fresh parallel
   speedup dropped below 1.0 (a jobs=N build must never be slower than
   jobs=1 — skipped with a notice when the run's effective parallel jobs
   is 1, e.g. on a 1-core container where both configurations are the
   same program), or if the fresh build's allocation regressed more than
   1.5x over the committed baseline (the hash-consed hot path is an
   allocation win; this keeps it one).

   It also gates the train-once / scan-many path: loading a model
   snapshot must be >= 10x faster than the cold build it replaces, and the
   warm cached scan must hit on every file, parse nothing, and reproduce
   the uncached reports byte-identically.

   The serve daemon's load test must have zero failed requests, all
   responses identical and rps > 0; on a real multicore machine (cores >=
   4, effective jobs >= 4) the jobs=4 build must be at least 2.5x faster
   than jobs=1 — on smaller machines that scaling gate is skipped with a
   notice.

   The paper-scale streaming section: scanning the full generated corpus
   must report byte-identically to the jobs=1 half scan baseline, sustain
   a positive files/sec, keep the in-flight source gauge bounded by the
   worker count (never the corpus), and keep the top-heap high-water
   ratios across a 2x corpus doubling bounded: the scan retains only
   reports so it must stay flat (<= 1.35x); training retains every file's
   digest for mining, so its heap may grow at most linearly (<= 2.3x) —
   anything above that means the frontend is retaining sources, not just
   digests.  The scans must also leave the name-path interner's end count
   where the model left it (scans digest by lookup against the model's
   vocabulary), and their files/sec is printed against the baseline's.

   Incremental training: the model finalized from merged half-corpus
   partials must scan the corpus byte-identically to the directly-trained
   one (the merge-algebra contract train(A+B) ≡ merge(train A, train B)
   at bench scale), and folding one new repo into an existing partial
   must be at least 5x faster than retraining from scratch —
   incrementality has to pay for its format.

   The [scale] and [merge] sections also record the stage table of the
   train they time ([stages_train]); the gate prints their [mine:prune]
   row and its delta against the baseline without gating it.

   Both files must be schema-7 bench runs (the {schema, stages,
   stages_parallel, snapshot, scan_cache, serve, scale, merge, ...}
   envelope); any other schema fails, naming the file.

   Usage: check_bench FRESH.json BASELINE.json *)

module J = Namer_util.Json

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("FAIL: " ^ msg); exit 1) fmt

let read_json path =
  let content =
    try
      let ic = open_in_bin path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      s
    with Sys_error e -> fail "cannot read %s: %s" path e
  in
  match J.parse content with
  | Ok j -> j
  | Error msg -> fail "%s is not valid JSON: %s" path msg

let assoc name = function
  | J.Obj fields -> List.assoc_opt name fields
  | _ -> None

let number = function
  | Some (J.Float f) -> Some f
  | Some (J.Int i) -> Some (float_of_int i)
  | _ -> None

let require_schema_7 path json =
  match assoc "schema" json with
  | Some (J.Int 7) -> ()
  | Some v -> fail "%s: bench schema %s, but only schema 7 is read" path (J.to_string v)
  | None -> fail "%s: no bench schema, but only schema 7 is read" path

(* stage name → field value *)
let stage_field field path json =
  let stages =
    match assoc "stages" json with
    | Some (J.Obj fields) -> fields
    | _ -> fail "%s: no stages object" path
  in
  List.filter_map
    (fun (name, v) -> Option.map (fun f -> (name, f)) (number (assoc field v)))
    stages

let stage_walls = stage_field "wall_ms"

let () =
  let fresh_path, baseline_path =
    match Sys.argv with
    | [| _; f; b |] -> (f, b)
    | _ -> fail "usage: check_bench FRESH.json BASELINE.json"
  in
  let fresh = read_json fresh_path and baseline = read_json baseline_path in
  require_schema_7 fresh_path fresh;
  require_schema_7 baseline_path baseline;
  (match assoc "reports_identical" fresh with
  | Some (J.Bool false) ->
      fail "%s: jobs=1 and parallel reports diverged — determinism broken" fresh_path
  | _ -> ());
  let fresh_walls = stage_walls fresh_path fresh in
  if fresh_walls = [] then fail "%s records no stages" fresh_path;
  let regressions = ref [] in
  List.iter
    (fun (stage, base_ms) ->
      match List.assoc_opt stage fresh_walls with
      | None -> ()
      | Some fresh_ms ->
          let limit = (base_ms *. 3.0) +. 50.0 in
          if fresh_ms > limit then
            regressions :=
              Printf.sprintf "%s: %.1f ms vs baseline %.1f ms (limit %.1f ms)" stage
                fresh_ms base_ms limit
              :: !regressions)
    (stage_walls baseline_path baseline);
  if !regressions <> [] then
    fail "wall-clock regression >3x:\n  %s" (String.concat "\n  " (List.rev !regressions));
  (* the parallel build must at least break even with the sequential one —
     unless the run had no real parallelism to measure (effective jobs 1),
     in which case the ratio is noise and the gate is skipped, loudly *)
  let effective_jobs =
    match number (assoc "jobs_parallel_effective" fresh) with
    | Some e -> int_of_float e
    | None -> fail "%s lacks jobs_parallel_effective" fresh_path
  in
  (match number (assoc "speedup" fresh) with
  | Some _ when effective_jobs <= 1 ->
      Printf.printf
        "NOTICE: speedup gate skipped — effective parallel jobs is 1 on this machine\n"
  | Some s when s < 1.0 ->
      fail "%s: jobs=N speedup %.2fx < 1.0x — parallel build slower than sequential"
        fresh_path s
  | Some s -> Printf.printf "speedup: %.2fx (jobs=N vs jobs=1)\n" s
  | None -> ());
  (* multicore scaling gate: on a machine with real parallelism available
     (4+ cores, jobs=4 uncapped), the parallel build must scale — break-
     even is not good enough when 4 domains are burning *)
  (let cores =
     match number (assoc "cores" fresh) with Some c -> int_of_float c | None -> 0
   in
   let floor = 2.5 in
   match number (assoc "speedup" fresh) with
   | Some s when cores >= 4 && effective_jobs >= 4 ->
       if s < floor then
         fail
           "%s: jobs=%d build only %.2fx faster than jobs=1 on %d cores (gate: >= \
            %.1fx) — parallel scaling regressed"
           fresh_path effective_jobs s cores floor
       else
         Printf.printf "multicore scaling: %.2fx at jobs=%d on %d cores (gate >= %.1fx)\n"
           s effective_jobs cores floor
   | Some _ ->
       Printf.printf
         "NOTICE: >=%.1fx multicore scaling gate skipped — %d cores, effective jobs %d \
          (needs >= 4 of both)\n"
         floor cores effective_jobs
   | None -> ());
  (* snapshot-load and scan-cache gates *)
  let snapshot =
    match assoc "snapshot" fresh with
    | Some s -> s
    | None -> fail "%s: no snapshot object" fresh_path
  in
  (match (number (assoc "load_speedup" snapshot), number (assoc "load_ms" snapshot))
   with
  | Some ratio, Some load_ms ->
      Printf.printf "snapshot load: %.2f ms, %.0fx faster than cold build\n" load_ms
        ratio;
      if ratio < 10.0 then
        fail
          "%s: snapshot load only %.1fx faster than cold build (gate: >= 10x) — \
           loading a model must beat re-training"
          fresh_path ratio
  | _ -> fail "%s: snapshot object lacks load_speedup/load_ms" fresh_path);
  let cache =
    match assoc "scan_cache" fresh with
    | Some s -> s
    | None -> fail "%s: no scan_cache object" fresh_path
  in
  (match assoc "reports_identical" cache with
  | Some (J.Bool true) -> ()
  | _ ->
      fail "%s: warm cached scan reports differ from uncached scan — cache unsound"
        fresh_path);
  (match (number (assoc "warm_hits" cache), number (assoc "warm_misses" cache)) with
  | Some hits, Some misses when misses > 0.0 || hits <= 0.0 ->
      fail "%s: warm scan saw %d cache misses / %d hits — cache not persisting"
        fresh_path (int_of_float misses) (int_of_float hits)
  | Some hits, Some _ ->
      Printf.printf "scan cache: warm scan hit on all %d files\n" (int_of_float hits)
  | _ -> fail "%s: scan_cache object lacks warm_hits/warm_misses" fresh_path);
  (match number (assoc "warm_parse_count" cache) with
  | Some n when n > 0.0 ->
      fail "%s: warm cached scan still parsed %d files — cache not short-circuiting"
        fresh_path (int_of_float n)
  | Some _ -> ()
  | None -> fail "%s: scan_cache object lacks warm_parse_count" fresh_path);
  (* serve-daemon load-test gates *)
  let serve =
    match assoc "serve" fresh with
    | Some s -> s
    | None -> fail "%s: no serve object" fresh_path
  in
  (match assoc "responses_identical" serve with
  | Some (J.Bool true) -> ()
  | _ ->
      fail
        "%s: concurrent serve responses diverged — requests over the same files \
         against one model must be identical"
        fresh_path);
  (match number (assoc "failed" serve) with
  | Some 0.0 -> ()
  | Some n -> fail "%s: %d serve requests failed" fresh_path (int_of_float n)
  | None -> fail "%s: serve object lacks failed" fresh_path);
  (match
    ( number (assoc "rps" serve),
      number (assoc "p50_ms" serve),
      number (assoc "p99_ms" serve) )
  with
  | Some rps, Some p50, Some p99 when rps > 0.0 ->
      Printf.printf "serve: %.0f req/s, p50 %.2f ms, p99 %.2f ms\n" rps p50 p99
  | Some rps, _, _ -> fail "%s: serve rps %.2f not positive" fresh_path rps
  | _ -> fail "%s: serve object lacks rps/p50_ms/p99_ms" fresh_path);
  (* paper-scale streaming gates *)
  let scale =
    match assoc "scale" fresh with
    | Some s -> s
    | None -> fail "%s: no scale object" fresh_path
  in
  (match assoc "reports_identical" scale with
  | Some (J.Bool true) -> ()
  | _ ->
      fail
        "%s: scale scan reports at jobs=1 and jobs=N diverged — streaming broke \
         determinism"
        fresh_path);
  (match (number (assoc "files_per_sec" scale), number (assoc "files" scale)) with
  | Some fps, Some files when fps > 0.0 -> (
      match Option.bind (assoc "scale" baseline) (fun b -> number (assoc "files_per_sec" b)) with
      | Some base ->
          Printf.printf "scale: %d files scanned at %.0f files/s vs baseline %.0f (%+.0f%%)\n"
            (int_of_float files) fps base
            (100.0 *. ((fps /. Float.max 1e-9 base) -. 1.0))
      | None ->
          Printf.printf "scale: %d files scanned at %.0f files/s (no baseline)\n"
            (int_of_float files) fps)
  | Some fps, _ -> fail "%s: scale files_per_sec %.2f not positive" fresh_path fps
  | _ -> fail "%s: scale object lacks files_per_sec/files" fresh_path);
  (* a scan digests against the model's vocabulary by lookup: the
     interner must hold as many ends after the scans as before them *)
  (match
     ( number (assoc "scan_interner_ends_before" scale),
       number (assoc "scan_interner_ends_after" scale) )
   with
  | Some before, Some after when after > before ->
      fail
        "%s: the scale scans grew the name-path interner from %.0f to %.0f ends — a \
         scan must not intern what it reads"
        fresh_path before after
  | Some before, Some _ ->
      Printf.printf "scale: interner ends flat across the scans (%.0f)\n" before
  | _ -> fail "%s: scale object lacks scan_interner_ends_before/after" fresh_path);
  (* the streaming contract: doubling the corpus must not grow the peak
     heap — the top-heap watermark after the full pass stays within a
     noise margin of the half-pass watermark.  Training retains the
     corpus's digests for mining (O(n) by design), so its margin is
     looser; the scan retains only reports and must stay flat. *)
  (match number (assoc "scan_mem_ratio" scale) with
  | Some r when r > 1.35 ->
      fail
        "%s: scan top-heap grew %.2fx across a 2x corpus doubling (gate: <= 1.35x) \
         — the scan is no longer streaming"
        fresh_path r
  | Some r -> Printf.printf "scale: scan heap ratio across 2x corpus %.2fx (<= 1.35x)\n" r
  | None -> fail "%s: scale object lacks scan_mem_ratio" fresh_path);
  (match number (assoc "train_mem_ratio" scale) with
  | Some r when r > 2.3 ->
      fail
        "%s: train top-heap grew %.2fx across a 2x corpus doubling (gate: <= 2.3x, \
         i.e. at most linear in retained digests) — the build frontend is \
         retaining more than the digests"
        fresh_path r
  | Some r -> Printf.printf "scale: train heap ratio across 2x corpus %.2fx (<= 2.3x)\n" r
  | None -> fail "%s: scale object lacks train_mem_ratio" fresh_path);
  (match (number (assoc "in_flight_sources_peak" scale), number (assoc "jobs" scale))
  with
  | Some peak, Some jobs when peak > 4.0 *. Float.max 1.0 jobs ->
      fail
        "%s: %d sources in flight at peak with %d jobs (gate: <= 4x jobs) — \
         sources are outliving their digests"
        fresh_path (int_of_float peak) (int_of_float jobs)
  | Some peak, Some _ ->
      Printf.printf "scale: %d sources in flight at peak\n" (int_of_float peak)
  | _ -> fail "%s: scale object lacks in_flight_sources_peak/jobs" fresh_path);
  (* incremental-training gates *)
  let merge =
    match assoc "merge" fresh with
    | Some m -> m
    | None -> fail "%s: no merge object" fresh_path
  in
  (match assoc "reports_identical" merge with
  | Some (J.Bool true) -> ()
  | _ ->
      fail
        "%s: the model finalized from merged partials reports differently from \
         the direct build — the merge algebra is broken"
        fresh_path);
  (match
    (number (assoc "update_speedup" merge), number (assoc "update_ms" merge))
  with
  | Some ratio, Some update_ms ->
      Printf.printf
        "merge: update folded new files in %.0f ms, %.1fx faster than retrain\n"
        update_ms ratio;
      if ratio < 5.0 then
        fail
          "%s: incremental update only %.1fx faster than a full retrain (gate: >= \
           5x) — folding one repo into a partial must beat re-digesting the corpus"
          fresh_path ratio
  | _ -> fail "%s: merge object lacks update_speedup/update_ms" fresh_path);
  (* prune at scale: the [mine:prune] row of the timed train in the
     [scale] and [merge] sections, with its delta against the baseline —
     reported, not gated (a baseline without the row prints it alone) *)
  let prune_row json section =
    let ( let* ) = Option.bind in
    let* sec = assoc section json in
    let* stages = assoc "stages_train" sec in
    let* row = assoc "mine:prune" stages in
    let* wall = number (assoc "wall_ms" row) in
    let* alloc = number (assoc "alloc_mb" row) in
    Some (wall, alloc)
  in
  List.iter
    (fun section ->
      match (prune_row fresh section, prune_row baseline section) with
      | Some (wall, alloc), Some (base_wall, base_alloc) ->
          Printf.printf
            "%s train mine:prune: %.0f ms, %.0f MB vs baseline %.0f ms, %.0f MB \
             (%+.0f%% wall, %+.0f%% alloc)\n"
            section wall alloc base_wall base_alloc
            (100.0 *. ((wall /. Float.max 1e-9 base_wall) -. 1.0))
            (100.0 *. ((alloc /. Float.max 1e-9 base_alloc) -. 1.0))
      | Some (wall, alloc), None ->
          Printf.printf "%s train mine:prune: %.0f ms, %.0f MB (no baseline row)\n"
            section wall alloc
      | None, _ -> ())
    [ "scale"; "merge" ];
  (* build allocation: the baseline pins it; a 1.5x growth fails *)
  (match
     ( List.assoc_opt "build" (stage_field "alloc_mb" fresh_path fresh),
       List.assoc_opt "build" (stage_field "alloc_mb" baseline_path baseline) )
   with
  | Some fresh_mb, Some base_mb ->
      Printf.printf "build alloc: %.0f MB vs baseline %.0f MB (%+.0f%%)\n" fresh_mb base_mb
        (100.0 *. ((fresh_mb /. base_mb) -. 1.0));
      if fresh_mb > base_mb *. 1.5 then
        fail "build allocation regression: %.0f MB vs baseline %.0f MB (limit 1.5x)"
          fresh_mb base_mb
  | _ -> ());
  Printf.printf "OK: %d stages within 3x of baseline\n" (List.length fresh_walls)
