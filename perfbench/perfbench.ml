(* perfbench — the benchmark's worker.  Each invocation is one fresh
   process doing one thing and printing one JSON line:

     gen       --lang L --files N --seed S --out DIR [--order-seed S]
     train     --dir D --model M --jobs J
     scan      --model M --dir D --jobs J
     partial   --dir D --out P --jobs J
     update    --partial P --add D --model M --partial-out P2 --jobs J
     direct    --base D --add D2 --jobs J
     trace     --workload W (--dir D | --model M --dir D | --partial P --add D --partial-out P2)
     warm      --socket S --lang L --pool DIR --cached N
     client    --socket S --model M --lang L --pool DIR --cached N --seed S
               --seconds T --conns C --jobs J [--trace 1] [--corrupt 1]

   run.py drives it; see README.md. *)

open Work
module Telemetry = Namer_telemetry.Telemetry

let args =
  let rec go acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | k :: _ -> failwith ("perfbench: bad argument " ^ k)
  in
  lazy (go [] (List.tl (List.tl (Array.to_list Sys.argv))))

let arg k =
  match List.assoc_opt k (Lazy.force args) with
  | Some v -> v
  | None -> failwith ("perfbench: missing --" ^ k)

let int_arg k = int_of_string (arg k)
let opt_arg k = List.assoc_opt k (Lazy.force args)

let lang_of = function
  | "python" -> Corpus.Python
  | "java" -> Corpus.Java
  | l -> failwith ("perfbench: unknown language " ^ l)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

(* [--order-seed S] renames the repos by a permutation drawn from S, which
   changes the order in which a sorted walk meets them and nothing else. *)
let gen () =
  let out = arg "out" and last = ref "" and n_files = int_arg "files" in
  let per_repo = 50 (* as `namer corpus` writes them *) in
  let rename =
    match opt_arg "order-seed" with
    | None -> Fun.id
    | Some s ->
        let n = (n_files + per_repo - 1) / per_repo in
        let perm = Array.init n Fun.id in
        let st = Random.State.make [| int_of_string s |] in
        for i = n - 1 downto 1 do
          let j = Random.State.int st (i + 1) in
          let t = perm.(i) in
          perm.(i) <- perm.(j);
          perm.(j) <- t
        done;
        fun repo -> Scanf.sscanf repo "repo%d" (fun i -> Printf.sprintf "repo%05d" perm.(i))
  in
  Corpus.write_scale ~lang:(lang_of (arg "lang")) ~seed:(int_arg "seed")
    ~files_per_repo:per_repo ~n_files
    (fun ~repo ~path ~source ->
      let path = Printf.sprintf "%s/src/%s" (rename repo) (Filename.basename path) in
      let full = Filename.concat out path in
      if Filename.dirname full <> !last then begin
        last := Filename.dirname full;
        mkdir_p !last
      end;
      Out_channel.with_open_bin full (fun oc -> output_string oc source));
  emit [ ("files", J.Int n_files) ]

let skipped_of_partial (p : Namer.Partial.t) =
  Array.length p.Namer_model.Partial_model.pm_skipped

(* `namer train --lang python DIR --model M`: [build_refs], [save_model]. *)
let train () =
  assert_cold ();
  let jobs = int_arg "jobs" and path = arg "model" in
  let t0 = now () in
  let refs = collect_refs Corpus.Python (arg "dir") in
  let cfg = self_mining_config ~n_files:(List.length refs) ~jobs in
  let t = Namer.build_refs cfg ~lang:Corpus.Python refs in
  let t1 = now () in
  let m = Namer.save_model t ~path in
  let t2 = now () in
  emit
    [ ("wall_ms", ms (t2 -. t0)); ("build_ms", ms (t1 -. t0)); ("save_ms", ms (t2 -. t1));
      ("compute_ms", ms (t1 -. t0)); ("covered_files", J.Int (List.length refs));
      ("wall_at", instants t0 t2); ("compute_at", instants t0 t1);
      ("files", J.Int (List.length refs)); ("skipped", J.Int (List.length t.Namer.skipped));
      ("candidates", J.Int t.Namer.n_candidates);
      ("model_hash", J.String m.Namer.m_hash);
      ("patterns", J.String (patterns_digest m.Namer.m_store));
      ("model_bytes", J.Int (Unix.stat path).Unix.st_size);
      ("interner_ends", J.Int (Interned.n_ends ()));
      ("hwm_kb", J.Int (vm_hwm_kb ())) ]

(* `namer scan --model M DIR`: [load_model], [scan_refs], no cache. *)
let scan () =
  assert_cold ();
  let jobs = int_arg "jobs" and path = arg "model" in
  let t0 = now () in
  let m = Namer.load_model ~path in
  let t1 = now () in
  let refs = collect_refs m.Namer.m_lang (arg "dir") in
  let r = Namer.scan_refs ~jobs m refs in
  let t2 = now () in
  emit
    [ ("wall_ms", ms (t2 -. t0)); ("load_ms", ms (t1 -. t0)); ("scan_ms", ms (t2 -. t1));
      ("compute_ms", ms (t2 -. t1)); ("covered_files", J.Int (List.length refs));
      ("wall_at", instants t0 t2); ("compute_at", instants t1 t2);
      ("files", J.Int (List.length refs));
      ("skipped", J.Int (List.length r.Namer.sr_skipped));
      ("reports", J.Int (Array.length r.Namer.sr_reports));
      ("digest", J.String (reports_digest (of_scan_result r)));
      ("model_bytes", J.Int (Unix.stat path).Unix.st_size);
      ("interner_ends", J.Int (Interned.n_ends ()));
      ("hwm_kb", J.Int (vm_hwm_kb ())) ]

(* `namer train --lang java DIR --partial P`. *)
let partial () =
  let refs = collect_refs Corpus.Java (arg "dir") in
  let cfg = self_mining_config ~n_files:(List.length refs) ~jobs:(int_arg "jobs") in
  let p = Namer.Partial.of_refs cfg ~lang:Corpus.Java refs in
  let hash = Namer.Partial.save p ~path:(arg "out") in
  emit [ ("partial_hash", J.String hash); ("files", J.Int (List.length refs));
         ("skipped", J.Int (skipped_of_partial p)) ]

(* `namer train --update P --add DIR --model M`: load, digest the added
   slice, merge, finalize, save the model, save the partial. *)
let update () =
  assert_cold ();
  let jobs = int_arg "jobs" and model = arg "model" and partial_out = arg "partial-out" in
  let t0 = now () in
  let p, _ = Namer.Partial.load ~path:(arg "partial") in
  let t1 = now () in
  let lang = Namer.Partial.lang_of p in
  let refs = collect_refs lang (arg "add") in
  let cfg =
    Namer.Partial.align_config (self_mining_config ~n_files:(List.length refs) ~jobs) p
  in
  let delta = Namer.Partial.of_refs cfg ~lang refs in
  let t2 = now () in
  let merged = Namer.Partial.merge p delta in
  let t3 = now () in
  let cfg = self_mining_config ~n_files:(Namer.Partial.n_files merged) ~jobs in
  let t = Namer.Partial.finalize cfg merged in
  let t4 = now () in
  let m = Namer.save_model t ~path:model in
  let t5 = now () in
  ignore (Namer.Partial.save merged ~path:partial_out);
  let t6 = now () in
  emit
    [ ("wall_ms", ms (t6 -. t0)); ("partial_load_ms", ms (t1 -. t0));
      ("of_refs_ms", ms (t2 -. t1)); ("partial_merge_ms", ms (t3 -. t2));
      ("finalize_ms", ms (t4 -. t3)); ("save_ms", ms (t5 -. t4));
      ("partial_save_ms", ms (t6 -. t5));
      ("compute_ms", ms (t4 -. t1)); ("covered_files", J.Int (Namer.Partial.n_files merged));
      ("wall_at", instants t0 t6); ("compute_at", instants t1 t4);
      ("files", J.Int (List.length refs)); ("skipped", J.Int (skipped_of_partial delta));
      ("model_hash", J.String m.Namer.m_hash);
      ("patterns", J.String (patterns_digest m.Namer.m_store));
      ("model_bytes", J.Int (Unix.stat model).Unix.st_size);
      ("partial_bytes", J.Int (Unix.stat (arg "partial")).Unix.st_size);
      ("partial_out_bytes", J.Int (Unix.stat partial_out).Unix.st_size);
      ("interner_ends", J.Int (Interned.n_ends ()));
      ("hwm_kb", J.Int (vm_hwm_kb ())) ]

(* The reference for update-java: one direct train over the base corpus
   followed by the added files, in the order the merge concatenates them. *)
let direct () =
  let refs = collect_refs Corpus.Java (arg "base") @ collect_refs Corpus.Java (arg "add") in
  let cfg = self_mining_config ~n_files:(List.length refs) ~jobs:(int_arg "jobs") in
  let m = Namer.model_of (Namer.build_refs cfg ~lang:Corpus.Java refs) in
  emit [ ("model_hash", J.String m.Namer.m_hash);
         ("patterns", J.String (patterns_digest m.Namer.m_store)) ]

let trace () =
  assert_cold ();
  Telemetry.set_sink Telemetry.Memory;
  Telemetry.reset ();
  let t0 = now () in
  let check =
    match arg "workload" with
    | "train" -> `Patterns (Replay.train ~dir:(arg "dir"))
    | "scan" -> `Reports (Replay.scan ~model:(arg "model") ~dir:(arg "dir"))
    | "update" ->
        `Patterns
          (Replay.update ~partial:(arg "partial") ~add:(arg "add")
             ~partial_out:(arg "partial-out"))
    | w -> failwith ("perfbench: no replay for " ^ w)
  in
  let wall = now () -. t0 in
  let mined, digest =
    match check with
    | `Patterns (d, mined) -> (mined, [ ("patterns", J.String d) ])
    | `Reports d -> ([], [ ("digest", J.String d) ])
  in
  emit (Replay.trace_fields ~wall ~mined @ digest)

let pool_repos () =
  let all = Serve_load.repos (arg "pool") and n = int_arg "cached" in
  (List.filteri (fun i _ -> i < n) all, List.filteri (fun i _ -> i >= n) all)

let () =
  match Sys.argv with
  | [| _ |] | [||] -> prerr_endline "usage: perfbench <command> [--key value]..."; exit 2
  | _ -> (
      match Sys.argv.(1) with
      | "gen" -> gen ()
      | "train" -> train ()
      | "scan" -> scan ()
      | "partial" -> partial ()
      | "update" -> update ()
      | "direct" -> direct ()
      | "trace" -> trace ()
      | "warm" ->
          let cached, _ = pool_repos () in
          Serve_load.warm ~socket:(arg "socket") ~lang:(lang_of (arg "lang")) ~cached
      | "client" ->
          let cached, fresh = pool_repos () in
          Serve_load.run ~socket:(arg "socket") ~model:(arg "model")
            ~lang:(lang_of (arg "lang")) ~seed:(int_arg "seed")
            ~seconds:(float_of_string (arg "seconds")) ~conns:(int_arg "conns")
            ~jobs:(int_arg "jobs") ~cached ~fresh ~trace:(opt_arg "trace" = Some "1")
            ~corrupt:(opt_arg "corrupt" = Some "1")
      | c -> prerr_endline ("perfbench: unknown command " ^ c); exit 2)
