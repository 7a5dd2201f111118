(* The traced replay: the work of a workload, done on one domain by calling
   each layer's public function in turn, with a span around every call.
   It repeats what [Namer.build_refs], [Namer.scan_refs],
   [Namer.Partial.of_refs] and [Namer.Partial.finalize] do inside, so that
   its pattern set and report digest can be checked against the untraced
   run's. *)

open Work
module Stmt_paths = Pattern.Stmt_paths
module Namepath = Namer_namepath.Namepath
module Astplus = Namer_namepath.Astplus
module Origins = Namer_namepath.Origins
module Tree = Namer_tree.Tree
module Pairs = Namer_mining.Confusing_pairs
module Features = Namer_classifier.Features
module Interner = Namer_util.Interner
module Partial_model = Namer_model.Partial_model

let span = Spans.span

(* Work counters beside the spans. *)
let files = ref 0
let stmts = ref 0
let bytes_loaded = ref 0
let stmts_matched = ref 0
let candidates = ref 0
let checks_violated = ref 0
let features_extracted = ref 0

type lowered = { tree : Tree.t; line : int; cls : string option; fn : string option }

(* Parse, lower and analyze one source: the language half of the frontend. *)
let parse_lower_analyze lang ~use_analysis src =
  match lang with
  | Corpus.Python ->
      let m = span "pylang.parse" (fun () -> Namer_pylang.Py_parser.parse_module src) in
      let ss =
        span "pylang.lower" (fun () ->
            Namer_pylang.Py_lower.lower_stmts m
            |> List.map (fun (s : Namer_pylang.Py_lower.stmt_info) ->
                   { tree = s.tree; line = s.line; cls = s.enclosing_class;
                     fn = s.enclosing_function }))
      in
      let origins =
        if not use_analysis then List.map (fun _ -> Origins.none) ss
        else
          span "analysis.analyze" (fun () ->
              let a = Namer_analysis.Py_analysis.analyze m in
              List.map
                (fun s -> Namer_analysis.Py_analysis.origins_for a ~cls:s.cls ~fn:s.fn)
                ss)
      in
      (ss, origins)
  | Corpus.Java ->
      let u =
        span "javalang.parse" (fun () ->
            Namer_javalang.Java_parser.parse_compilation_unit src)
      in
      let ss =
        span "javalang.lower" (fun () ->
            Namer_javalang.Java_lower.lower_unit u
            |> List.map (fun (s : Namer_javalang.Java_lower.stmt_info) ->
                   { tree = s.tree; line = s.line; cls = s.enclosing_class;
                     fn = s.enclosing_function }))
      in
      let origins =
        if not use_analysis then List.map (fun _ -> Origins.none) ss
        else
          span "analysis.java_analyze" (fun () ->
              let a = Namer_analysis.Java_analysis.analyze u in
              List.map
                (fun s -> Namer_analysis.Java_analysis.origins_for a ~cls:s.cls ~fn:s.fn)
                ss)
      in
      (ss, origins)

(* Load and digest one file into its statements, as [Namer.digest_file]
   leaves them: digest, line and feature context. *)
let digest_file lang ~use_analysis ~limit (r : Namer.file_ref) =
  let src = span "core.load" r.Namer.fr_load in
  incr files;
  bytes_loaded := !bytes_loaded + String.length src;
  let ss, origins = parse_lower_analyze lang ~use_analysis src in
  let trees =
    span "namepath.astplus" (fun () ->
        List.map2 (fun s origins -> Astplus.transform ~origins s.tree) ss origins)
  in
  let digested =
    span "namepath.extract" (fun () ->
        List.map2
          (fun s t ->
            let digest = Stmt_paths.of_tree ~limit t in
            { Namer.sctx =
                { Features.file = r.Namer.fr_path; repo = r.Namer.fr_repo; file_id = -1;
                  repo_id = -1; tree_hash = Tree.hash s.tree;
                  n_paths = digest.Stmt_paths.n_paths };
              line = s.line; digest })
          ss trees)
  in
  stmts := !stmts + List.length ss;
  digested

(* [Store.candidates] + [Pattern.check] over one file's statements, then
   the violations deduplicated as [Namer.scan_refs] and training do: one
   per (line, offending name, suggestion, kind), the pattern with the
   largest condition kept.  [outcomes] collects every check's result for
   the feature aggregates. *)
let match_stmts ?outcomes store (digested : Namer.scanned_stmt list) =
  let raw = ref [] in
  List.iter
    (fun (s : Namer.scanned_stmt) ->
      incr stmts_matched;
      let cs = Pattern.Store.candidates store s.Namer.digest in
      candidates := !candidates + List.length cs;
      List.iter
        (fun (p : Pattern.t) ->
          let rel = Pattern.check p s.Namer.digest in
          Option.iter (fun o -> o := (s, p, rel) :: !o) outcomes;
          match rel with
          | Pattern.Violated info ->
              incr checks_violated;
              raw := (s, p, info) :: !raw
          | _ -> ())
        cs)
    digested;
  let dedup = Hashtbl.create 16 in
  List.iter
    (fun (((s : Namer.scanned_stmt), (p : Pattern.t), (info : Pattern.violation_info)) as v) ->
      let key = (s.Namer.line, info.Pattern.offending_prefix, info.Pattern.suggested,
                 Namer.kind_name p.Pattern.kind) in
      match Hashtbl.find_opt dedup key with
      | Some (_, (prev : Pattern.t), _)
        when List.length prev.Pattern.condition >= List.length p.Pattern.condition -> ()
      | _ -> Hashtbl.replace dedup key v)
    (List.rev !raw);
  Hashtbl.fold (fun _ v acc -> v :: acc) dedup []

(* One file matched and its violations rendered as [Namer.scan_refs]
   reports them. *)
let scan_file store ~file digested =
  span "pattern.match" @@ fun () ->
  List.map
    (fun ((s : Namer.scanned_stmt), (p : Pattern.t), (info : Pattern.violation_info)) ->
      { file; line = s.Namer.line; prefix = info.Pattern.offending_prefix;
        found = info.Pattern.found; suggested = info.Pattern.suggested;
        kind = Namer.kind_name p.Pattern.kind })
    (match_stmts store digested)

(* The no-history confusing-pair table, each builtin pair seeded at the
   prune threshold, as a directory train builds it. *)
let builtin_pairs (cfg : Namer.config) lang =
  span "mining.pairs" (fun () ->
      let t = Pairs.create () in
      List.iter (fun p -> Pairs.add_pair ~count:cfg.Namer.pair_min_count t p)
        (Namer.builtin_pairs lang);
      t)

(* The feature half of the training scan, as [Namer] runs it after
   mining: dense file and repo ids, the aggregates over every statement
   and every check, then one feature vector per deduplicated violation. *)
let extract_features pairs matched =
  span "features.extract" @@ fun () ->
  let file_ids = Interner.create () and repo_ids = Interner.create () in
  List.iter
    (fun (digested, _, _) ->
      List.iter
        (fun (s : Namer.scanned_stmt) ->
          let c = s.Namer.sctx in
          c.Features.file_id <- Interner.intern file_ids c.Features.file;
          c.Features.repo_id <- Interner.intern repo_ids c.Features.repo)
        digested)
    matched;
  let agg = Features.Agg.create () in
  List.iter
    (fun (digested, outcomes, _) ->
      List.iter (fun (s : Namer.scanned_stmt) -> Features.Agg.add_stmt agg s.Namer.sctx) digested;
      List.iter
        (fun ((s : Namer.scanned_stmt), (p : Pattern.t), rel) ->
          Features.Agg.add_outcome agg s.Namer.sctx ~pattern_id:p.Pattern.id rel)
        outcomes)
    matched;
  List.iter
    (fun (_, _, violations) ->
      List.iter
        (fun ((s : Namer.scanned_stmt), p, info) ->
          incr features_extracted;
          ignore (Features.extract agg pairs s.Namer.sctx p info))
        violations)
    matched

type mined = { name : string; candidates : int; kept : int }

(* Mining and the training scan over frozen digests: each [Miner.mine]
   kind in turn, every statement matched against the merged store, then
   the features of the violations. *)
let mine_and_match (cfg : Namer.config) lang digested_files =
  let pairs = builtin_pairs cfg lang in
  Interned.freeze ();
  Fun.protect ~finally:Interned.thaw @@ fun () ->
  let digests =
    List.concat_map (List.map (fun (s : Namer.scanned_stmt) -> s.Namer.digest)) digested_files
  in
  let kinds =
    [ ("consistency", `Consistency); ("confusing", `Confusing);
      ("ordering", `Ordering cfg.Namer.ordering_vocab) ]
  in
  let results =
    List.map
      (fun (name, kind) ->
        let r =
          span ("mining.mine." ^ name) (fun () ->
              Miner.mine ~config:cfg.Namer.miner ~kind ~pairs digests)
        in
        (r, { name; candidates = r.Miner.n_candidates;
              kept = Pattern.Store.size r.Miner.store }))
      kinds
  in
  let store = Pattern.Store.create () in
  List.iter
    (fun ((r : Miner.result), _) ->
      Pattern.Store.iter
        (fun p -> ignore (Pattern.Store.add store { p with Pattern.id = -1 }))
        r.Miner.store)
    results;
  let matched =
    List.map
      (fun digested ->
        let outcomes = ref [] in
        let violations =
          span "pattern.match" (fun () -> match_stmts ~outcomes store digested)
        in
        (digested, !outcomes, violations))
      digested_files
  in
  extract_features pairs matched;
  (store, List.map snd results)

let digest_all lang ~use_analysis ~limit refs =
  List.map (digest_file lang ~use_analysis ~limit) refs

(* train-py2k: the frontend over the corpus, then mining and matching. *)
let train ~dir =
  let refs = collect_refs Corpus.Python dir in
  let cfg = self_mining_config ~n_files:(List.length refs) ~jobs:1 in
  let digested =
    digest_all Corpus.Python ~use_analysis:cfg.Namer.use_analysis
      ~limit:cfg.Namer.miner.Miner.max_stmt_paths refs
  in
  let store, mined = mine_and_match cfg Corpus.Python digested in
  (patterns_digest store, mined)

(* Digest and match files against a loaded model, as [Namer.scan_refs]
   does with no cache; the digest of the sorted reports. *)
let scan_refs (m : Namer.model) refs =
  List.concat_map
    (fun (r : Namer.file_ref) ->
      let digested =
        digest_file m.Namer.m_lang ~use_analysis:m.Namer.m_use_analysis
          ~limit:m.Namer.m_max_stmt_paths r
      in
      scan_file m.Namer.m_store ~file:r.Namer.fr_path digested)
    refs
  |> sort_reports |> reports_digest

let load_model path = span "model.load" (fun () -> Namer.load_model ~path)

(* scan-py5k: load the model, digest and match every file. *)
let scan ~model ~dir =
  let m = load_model model in
  scan_refs m (collect_refs m.Namer.m_lang dir)

(* What [Namer.Partial.of_refs] does after its digest: each statement's
   name paths exported as indices into a first-seen vocabulary. *)
let export (cfg : Namer.config) ~lang refs digested =
  span "core.of_refs" @@ fun () ->
  let files =
    Array.of_list (List.map (fun (r : Namer.file_ref) -> (r.Namer.fr_repo, r.Namer.fr_path)) refs)
  in
  let file_idx = Hashtbl.create 64 in
  Array.iteri
    (fun i (_, path) -> if not (Hashtbl.mem file_idx path) then Hashtbl.add file_idx path i)
    files;
  let vocab_idx = Hashtbl.create 4096 and vocab_rev = ref [] and n_vocab = ref 0 in
  let idx_of (it : Interned.t) =
    match Hashtbl.find_opt vocab_idx it.Interned.pid with
    | Some i -> i
    | None ->
        let i = !n_vocab in
        Hashtbl.add vocab_idx it.Interned.pid i;
        vocab_rev := Namepath.to_string it.Interned.np :: !vocab_rev;
        incr n_vocab;
        i
  in
  let pstmts =
    List.map
      (fun (s : Namer.scanned_stmt) ->
        { Partial_model.ps_file = Hashtbl.find file_idx s.Namer.sctx.Features.file;
          ps_line = s.Namer.line; ps_tree_hash = s.Namer.sctx.Features.tree_hash;
          ps_paths = Array.map idx_of s.Namer.digest.Stmt_paths.ipaths })
      (List.concat digested)
  in
  { Partial_model.pm_lang = Namer.Partial.lang_tag lang;
    pm_use_analysis = cfg.Namer.use_analysis;
    pm_max_stmt_paths = cfg.Namer.miner.Miner.max_stmt_paths;
    pm_vocab = Array.of_list (List.rev !vocab_rev);
    pm_files = files; pm_stmts = Array.of_list pstmts; pm_skipped = [||];
    pm_pairs = []; pm_n_commits = 0 }

(* The statements of a partial rebuilt over its replayed vocabulary, as
   [Namer.Partial.finalize] does before mining; grouped by file. *)
let finalize (merged : Partial_model.t) =
  span "core.finalize" @@ fun () ->
  let interned =
    Array.map (fun text -> Interned.of_path (Namepath.of_string text))
      merged.Partial_model.pm_vocab
  in
  let by_file = Array.make (Array.length merged.Partial_model.pm_files) [] in
  Array.iter
    (fun (s : Partial_model.pstmt) ->
      let repo, file = merged.Partial_model.pm_files.(s.Partial_model.ps_file) in
      let digest =
        Stmt_paths.of_interned
          (Array.to_list (Array.map (fun i -> interned.(i)) s.Partial_model.ps_paths))
      in
      let st =
        { Namer.sctx =
            { Features.file; repo; file_id = -1; repo_id = -1;
              tree_hash = s.Partial_model.ps_tree_hash; n_paths = digest.Stmt_paths.n_paths };
          line = s.Partial_model.ps_line; digest }
      in
      by_file.(s.Partial_model.ps_file) <- st :: by_file.(s.Partial_model.ps_file))
    merged.Partial_model.pm_stmts;
  Array.to_list (Array.map List.rev by_file)

(* update-java: the `train --update` flow — load, digest the added slice
   once and export it, merge, finalize step by step, save the partial. *)
let update ~partial ~add ~partial_out =
  let p, _ = span "model.partial_load" (fun () -> Namer.Partial.load ~path:partial) in
  let lang = Namer.Partial.lang_of p in
  let refs = collect_refs lang add in
  let cfg =
    Namer.Partial.align_config (self_mining_config ~n_files:(List.length refs) ~jobs:1) p
  in
  let digested =
    digest_all lang ~use_analysis:cfg.Namer.use_analysis
      ~limit:cfg.Namer.miner.Miner.max_stmt_paths refs
  in
  let delta = export cfg ~lang refs digested in
  let merged = span "model.partial_merge" (fun () -> Namer.Partial.merge p delta) in
  let cfg =
    Namer.Partial.align_config
      (self_mining_config ~n_files:(Namer.Partial.n_files merged) ~jobs:1)
      merged
  in
  if merged.Partial_model.pm_n_commits <> 0 then
    failwith "update replay: partials with commit history are not replayed";
  let store, mined = mine_and_match cfg lang (finalize merged) in
  ignore (span "model.partial_save" (fun () -> Namer.Partial.save merged ~path:partial_out));
  (patterns_digest store, mined)

(* The replay's spans and counters, as the worker prints them. *)
let trace_fields ~wall ~mined =
  let spans =
    Hashtbl.fold
      (fun name (a : Spans.acc) acc ->
        (name, J.Obj [ ("self_ms", J.Float (Spans.self_ms name));
                       ("alloc_kb", J.Float (Spans.alloc_kb name));
                       ("calls", J.Int a.Spans.calls) ]) :: acc)
      Spans.table []
    |> List.sort compare
  in
  [ ("wall_ms", ms wall); ("self_ms", J.Float (Spans.total_self_ms ()));
    ("spans", J.Obj spans);
    ("mined",
     J.Obj (List.map (fun x ->
         (x.name, J.Obj [ ("candidates", J.Int x.candidates); ("kept", J.Int x.kept) ])) mined));
    ("files", J.Int !files); ("stmts", J.Int !stmts);
    ("bytes_loaded", J.Int !bytes_loaded);
    ("stmts_matched", J.Int !stmts_matched);
    ("candidates", J.Int !candidates);
    ("violations", J.Int !checks_violated);
    ("features", J.Int !features_extracted);
    ("interner_ends", J.Int (Interned.n_ends ()));
    ("stage_table", Namer_telemetry.Telemetry.stages_json ());
    ("hwm_kb", J.Int (vm_hwm_kb ())) ]
