(* Reference scan: what [Namer.scan_refs] reports, by the plainest route,
   kept so the property tests can check the fused per-file scan — its
   lookup-only digest, per-shard overlays and key-free shards — against
   it.

   Each file is parsed, every statement's AST+ is interned into the global
   table with [Stmt_paths.of_tree], every [Store.candidates] pattern is
   checked with [Pattern.check], and the violations are deduplicated as
   the scan does: one per (line, offending prefix, suggestion, kind), the
   pattern with the largest condition kept, the first one on ties.  It is
   the route perfbench's traced replay takes.  Because it interns, it
   grows the global table: run it after the scan it is compared with. *)

module Namer = Namer_core.Namer
module Frontend = Namer_core.Frontend
module Corpus = Namer_corpus.Corpus
module Pattern = Namer_pattern.Pattern
module Astplus = Namer_namepath.Astplus

(* One report as [render] prints a [Namer.report], in the scan's sort key
   order: file, line, prefix, suggested, found, kind. *)
type row = string * int * string * string * string * string

let render ((file, line, prefix, suggested, found, kind) : row) =
  Printf.sprintf "%s:%d:%s:%s->%s:%s" file line prefix found suggested kind

let of_report (r : Namer.report) : row =
  (r.Namer.r_file, r.Namer.r_line, r.Namer.r_prefix, r.Namer.r_suggested,
   r.Namer.r_found, r.Namer.r_kind)

let scan_file (m : Namer.model) (f : Corpus.file) : row list =
  match
    Frontend.parse_file_res m.Namer.m_lang ~use_analysis:m.Namer.m_use_analysis
      f.Corpus.source
  with
  | Error _ -> []
  | Ok parsed ->
      let raw =
        List.concat_map
          (fun (s : Frontend.stmt) ->
            let origins = parsed.Frontend.origins ~cls:s.Frontend.cls ~fn:s.Frontend.fn in
            let digest =
              Pattern.Stmt_paths.of_tree ~limit:m.Namer.m_max_stmt_paths
                (Astplus.transform ~origins s.Frontend.tree)
            in
            List.filter_map
              (fun p ->
                match Pattern.check p digest with
                | Pattern.Violated info -> Some (s.Frontend.line, p, info)
                | _ -> None)
              (Pattern.Store.candidates m.Namer.m_store digest))
          parsed.Frontend.stmts
      in
      let key (line, (p : Pattern.t), (info : Pattern.violation_info)) =
        (line, info.Pattern.offending_prefix, info.Pattern.suggested,
         Namer.kind_name p.Pattern.kind)
      in
      let n_cond (_, (p : Pattern.t), _) = List.length p.Pattern.condition in
      let kept = ref [] in
      List.iter
        (fun v ->
          match List.find_opt (fun w -> key w = key v) !kept with
          | Some w when n_cond w >= n_cond v -> ()
          | Some w -> kept := v :: List.filter (fun x -> x != w) !kept
          | None -> kept := v :: !kept)
        raw;
      List.map
        (fun (line, (p : Pattern.t), (info : Pattern.violation_info)) ->
          (f.Corpus.path, line, info.Pattern.offending_prefix, info.Pattern.suggested,
           info.Pattern.found, Namer.kind_name p.Pattern.kind))
        !kept

let scan m files = List.sort compare (List.concat_map (scan_file m) files)
