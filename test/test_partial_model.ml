(* Partial models and the merge algebra: train(A+B) ≡ merge(train A,
   train B).  The qcheck properties exercise every split, permutation and
   parenthesization of the corpus; the differential goldens check the
   merged model against the directly-trained one down to the byte; and
   damaged partial files are rejected with errors that name the failing
   section, mirroring test_model.ml. *)

module Namer = Namer_core.Namer
module Partial = Namer_core.Namer.Partial
module PM = Namer_model.Partial_model
module Corpus = Namer_corpus.Corpus
module Miner = Namer_mining.Miner
module Snapshot = Namer_model.Snapshot
module W = Namer_model.Binio.W
module Prng = Namer_util.Prng
module Interned = Namer_namepath.Namepath.Interned

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let corpus_cfg ?(seed = 11) ?(lang = Corpus.Python) () =
  {
    (Corpus.default_config lang) with
    Corpus.n_repos = 8;
    files_per_repo = (4, 6);
    seed;
  }

(* classifier off: its labeled sample draws depend on statement order, so
   it is retrained per deployment, not merged — the algebra's contract
   covers everything up to the mined model (see DESIGN.md §13) *)
let namer_cfg =
  {
    Namer.default_config with
    use_classifier = false;
    miner = { Miner.default_config with Miner.min_support = 5; min_path_freq = 3 };
  }

let corpus = lazy (Corpus.generate (corpus_cfg ()))
let full = lazy (Namer.build namer_cfg (Lazy.force corpus))

let reports (r : Namer.scan_result) =
  Array.to_list r.Namer.sr_reports
  |> List.map (fun (x : Namer.report) ->
         Printf.sprintf "%s:%d:%s:%s:%s:%s" x.Namer.r_file x.Namer.r_line
           x.Namer.r_prefix x.Namer.r_found x.Namer.r_suggested x.Namer.r_kind)
  |> String.concat "\n"

let full_reports =
  lazy
    (let c = Lazy.force corpus in
     reports
       (Namer.scan_with_model ~jobs:1 (Namer.model_of (Lazy.force full)) c.Corpus.files))

let slice (c : Corpus.t) files commits =
  { c with Corpus.files; injections = []; benigns = []; commits }

(* Deal files and commits into [k] slices by a seeded random assignment —
   every file lands in exactly one slice, so the slices concatenate (in
   any order) to a permutation of the corpus. *)
let random_slices prng k (c : Corpus.t) =
  let files = Array.make k [] and commits = Array.make k [] in
  List.iter
    (fun f ->
      let i = Prng.int prng k in
      files.(i) <- f :: files.(i))
    (List.rev c.Corpus.files);
  List.iter
    (fun cm ->
      let i = Prng.int prng k in
      commits.(i) <- cm :: commits.(i))
    (List.rev c.Corpus.commits);
  List.init k (fun i -> slice c files.(i) commits.(i))

let split_at k xs =
  let rec go i acc = function
    | rest when i = k -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | x :: rest -> go (i + 1) (x :: acc) rest
  in
  go 0 [] xs

(* -------- differential goldens -------- *)

(* Contiguous halves merged in corpus order: the replayed id assignment
   matches the sequential one exactly, so the merged model is the full
   build's model down to the serialized byte (and hence the hash). *)
let test_halves_merge_to_identical_model () =
  let c = Lazy.force corpus in
  let t_full = Lazy.force full in
  let fa, fb = split_at (List.length c.Corpus.files / 2) c.Corpus.files in
  let ca, cb = split_at (List.length c.Corpus.commits / 2) c.Corpus.commits in
  let pa = Partial.of_corpus namer_cfg (slice c fa ca) in
  let pb = Partial.of_corpus namer_cfg (slice c fb cb) in
  let merged = Partial.merge pa pb in
  check_int "merged partial covers every file" (List.length c.Corpus.files)
    (Partial.n_files merged);
  let t_merged = Partial.finalize namer_cfg merged in
  (* hash both now, against the same interner state *)
  let h_full = (Namer.model_of t_full).Namer.m_hash in
  let h_merged = (Namer.model_of t_merged).Namer.m_hash in
  check_string "merged model hash = full-train model hash" h_full h_merged;
  let r =
    reports (Namer.scan_with_model ~jobs:1 (Namer.model_of t_merged) c.Corpus.files)
  in
  check_bool "some reports to compare" true (String.length (Lazy.force full_reports) > 0);
  check_string "scan reports byte-identical to the full train"
    (Lazy.force full_reports) r

let test_jobs_invariance () =
  let c = Lazy.force corpus in
  let fa, fb = split_at (List.length c.Corpus.files / 2) c.Corpus.files in
  let ca, cb = split_at (List.length c.Corpus.commits / 2) c.Corpus.commits in
  let par_cfg = { namer_cfg with Namer.jobs = 4; cap_domains = false } in
  let enc p = fst (PM.encode p) in
  let pa1 = Partial.of_corpus namer_cfg (slice c fa ca) in
  let pa4 = Partial.of_corpus par_cfg (slice c fa ca) in
  check_bool "partial bytes identical at jobs=1 and jobs=4" true
    (String.equal (enc pa1) (enc pa4));
  let pb = Partial.of_corpus namer_cfg (slice c fb cb) in
  let t1 = Partial.finalize namer_cfg (Partial.merge pa1 pb) in
  let t4 = Partial.finalize par_cfg (Partial.merge pa4 pb) in
  check_string "finalized reports identical at jobs=1 and jobs=4"
    (reports (Namer.scan_with_model ~jobs:1 (Namer.model_of t1) c.Corpus.files))
    (reports
       (Namer.scan_with_model ~jobs:4 ~cap_domains:false (Namer.model_of t4)
          c.Corpus.files))

(* -------- the algebra, property-tested -------- *)

let to_alcotest = QCheck_alcotest.to_alcotest

(* Any split of the corpus, merged in any order, finalizes to a model
   whose scan reports equal the full train's — commutativity up to
   report identity (reports are sorted strings; only internal ids move
   when slices permute). *)
let prop_split_permute_merge =
  QCheck.Test.make ~name:"split+permute+merge ≡ full train (reports)" ~count:6
    QCheck.(pair (int_range 2 4) (int_range 0 10_000))
    (fun (k, seed) ->
      let c = Lazy.force corpus in
      let expect = Lazy.force full_reports in
      let prng = Prng.create seed in
      let parts =
        List.map (Partial.of_corpus namer_cfg) (random_slices prng k c)
        |> Array.of_list
      in
      Prng.shuffle prng parts;
      let merged = Partial.merge_all (Array.to_list parts) in
      let t = Partial.finalize namer_cfg merged in
      String.equal expect
        (reports (Namer.scan_with_model ~jobs:1 (Namer.model_of t) c.Corpus.files)))

(* merge is associative on the nose: both parenthesizations serialize to
   the same bytes. *)
let prop_merge_associative =
  QCheck.Test.make ~name:"merge is associative (serialized bytes)" ~count:8
    (QCheck.int_range 0 10_000)
    (fun seed ->
      let c = Lazy.force corpus in
      let prng = Prng.create seed in
      match List.map (Partial.of_corpus namer_cfg) (random_slices prng 3 c) with
      | [ a; b; c3 ] ->
          let left = Partial.merge (Partial.merge a b) c3 in
          let right = Partial.merge a (Partial.merge b c3) in
          let all = Partial.merge_all [ a; b; c3 ] in
          String.equal (fst (PM.encode left)) (fst (PM.encode right))
          && String.equal (fst (PM.encode left)) (fst (PM.encode all))
      | _ -> false)

let prop_empty_identity =
  QCheck.Test.make ~name:"empty is a two-sided identity" ~count:4
    (QCheck.int_range 0 10_000)
    (fun seed ->
      let c = Lazy.force corpus in
      let prng = Prng.create seed in
      match List.map (Partial.of_corpus namer_cfg) (random_slices prng 2 c) with
      | [ p; _ ] ->
          let bytes = fst (PM.encode p) in
          String.equal bytes (fst (PM.encode (Partial.merge Partial.empty p)))
          && String.equal bytes (fst (PM.encode (Partial.merge p Partial.empty)))
          && Partial.is_empty (Partial.merge Partial.empty Partial.empty)
      | _ -> false)

(* -------- training never writes the global interner -------- *)

(* A one-statement file whose names no other test uses: its ends reach
   the global interner only if something interns them. *)
let novel_ref tag =
  let source = Printf.sprintf "qzx%sone = qzx%stwo(qzx%sthree)\n" tag tag tag in
  {
    Namer.fr_repo = "novel";
    fr_path = Printf.sprintf "novel/%s.py" tag;
    fr_load = (fun () -> source);
  }

let interner_size () =
  let prefixes, ends = Interned.export_global () in
  (List.length prefixes, List.length ends)

let test_digest_leaves_interner_flat () =
  let c = Lazy.force corpus in
  let fa, _ = split_at 6 c.Corpus.files in
  List.iter
    (fun (jobs, tag) ->
      let cfg = { namer_cfg with Namer.jobs; cap_domains = false } in
      let before = interner_size () and ends = Interned.n_ends () in
      let p =
        Partial.of_refs cfg ~lang:Corpus.Python
          (List.map Namer.ref_of_file fa @ [ novel_ref tag ])
      in
      check_bool "the novel file was digested" true (Partial.n_stmts p > 0);
      check_int (Printf.sprintf "n_ends unchanged at jobs=%d" jobs) ends
        (Interned.n_ends ());
      check_bool
        (Printf.sprintf "prefix and end counts unchanged at jobs=%d" jobs)
        true
        (before = interner_size ()))
    [ (1, "flatjobsone"); (4, "flatjobsfour") ]

let index_of x xs =
  let rec go i = function
    | [] -> Alcotest.failf "%s is not in the interner" x
    | y :: rest -> if String.equal x y then i else go (i + 1) rest
  in
  go 0 xs

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

(* The update flow — a saved base partial loaded, the delta digested,
   merged and finalized — gives the model bytes of a direct build over
   base followed by delta.  The delta is digested before the base
   partial exists, standing in for a base saved by an earlier process:
   the only interning is the finalize's replay, base vocabulary first, so
   the base's names take their ids before the delta's, as in a direct
   build on a fresh table. *)
let test_update_flow_is_direct_build () =
  let c = Lazy.force corpus in
  let fa, fb = split_at (List.length c.Corpus.files / 2) c.Corpus.files in
  let base_refs = List.map Namer.ref_of_file fa @ [ novel_ref "updbase" ]
  and delta_refs = List.map Namer.ref_of_file fb @ [ novel_ref "upddelta" ] in
  let lang = Corpus.Python in
  let delta = Partial.of_refs namer_cfg ~lang delta_refs in
  let base_path = Filename.temp_file "test_update" ".nprt" in
  ignore (Partial.save (Partial.of_refs namer_cfg ~lang base_refs) ~path:base_path);
  let base, _ = Partial.load ~path:base_path in
  Sys.remove base_path;
  let save t =
    let path = Filename.temp_file "test_update" ".nmdl" in
    ignore (Namer.save_model t ~path);
    let bytes = read_file path in
    Sys.remove path;
    bytes
  in
  let updated = save (Partial.finalize namer_cfg (Partial.merge base delta)) in
  let _, ends = Interned.export_global () in
  check_bool "base names interned before the delta's" true
    (index_of "qzxupdbaseone" ends < index_of "qzxupddeltaone" ends);
  let direct = save (Namer.build_refs namer_cfg ~lang (base_refs @ delta_refs)) in
  check_bool "update model bytes = direct build model bytes" true
    (String.equal updated direct)

(* -------- rejection -------- *)

let expect_merge_error name f fragment =
  match f () with
  | (_ : PM.t) -> Alcotest.failf "%s: merge accepted incompatible partials" name
  | exception PM.Merge_error msg ->
      check_bool
        (Printf.sprintf "%s: error mentions %S (got %S)" name fragment msg)
        true
        (let flen = String.length fragment and mlen = String.length msg in
         let rec scan i =
           i + flen <= mlen && (String.sub msg i flen = fragment || scan (i + 1))
         in
         scan 0)

let test_rejects_remerge () =
  let c = Lazy.force corpus in
  let fa, fb = split_at (List.length c.Corpus.files / 2) c.Corpus.files in
  let pa = Partial.of_corpus namer_cfg (slice c fa []) in
  let pb = Partial.of_corpus namer_cfg (slice c fb []) in
  expect_merge_error "self re-merge" (fun () -> Partial.merge pa pa) "disjoint";
  let ab = Partial.merge pa pb in
  expect_merge_error "slice already merged in"
    (fun () -> Partial.merge ab pa)
    "disjoint"

let test_rejects_incompatible () =
  let c = Lazy.force corpus in
  let fa, _ = split_at 3 c.Corpus.files in
  let pa = Partial.of_corpus namer_cfg (slice c fa []) in
  let jc = Corpus.generate (corpus_cfg ~lang:Corpus.Java ()) in
  let pj = Partial.of_corpus namer_cfg (slice jc jc.Corpus.files []) in
  expect_merge_error "language mismatch" (fun () -> Partial.merge pa pj) "languages";
  let capped =
    {
      namer_cfg with
      Namer.miner = { namer_cfg.Namer.miner with Miner.max_stmt_paths = 5 };
    }
  in
  let _, fb = split_at 3 c.Corpus.files in
  let pc = Partial.of_corpus capped (slice c fb []) in
  expect_merge_error "path-cap mismatch" (fun () -> Partial.merge pa pc) "cap"

(* -------- persistence: round trip and damage -------- *)

let partial_path () = Filename.temp_file "test_partial" ".nprt"

let saved_partial =
  lazy
    (let c = Lazy.force corpus in
     let fa, fb = split_at (List.length c.Corpus.files / 2) c.Corpus.files in
     let pa = Partial.of_corpus namer_cfg (slice c fa c.Corpus.commits) in
     let pb = Partial.of_corpus namer_cfg (slice c fb []) in
     Partial.merge pa pb)

let test_save_load_round_trip () =
  let p = Lazy.force saved_partial in
  let path = partial_path () in
  let saved_hash = Partial.save p ~path in
  let loaded, loaded_hash = Partial.load ~path in
  Sys.remove path;
  check_string "hash survives the disk round trip" saved_hash loaded_hash;
  check_bool "partial survives byte-identically" true
    (String.equal (fst (PM.encode p)) (fst (PM.encode loaded)));
  check_int "file count survives" (Partial.n_files p) (Partial.n_files loaded);
  check_int "statement count survives" (Partial.n_stmts p) (Partial.n_stmts loaded)

let expect_load_error name f fragment =
  match f () with
  | (_ : PM.t * string) ->
      Alcotest.failf "%s: load accepted a damaged partial" name
  | exception Snapshot.Error msg ->
      check_bool
        (Printf.sprintf "%s: error mentions %S (got %S)" name fragment msg)
        true
        (let flen = String.length fragment and mlen = String.length msg in
         let rec scan i =
           i + flen <= mlen && (String.sub msg i flen = fragment || scan (i + 1))
         in
         scan 0)

let damaged_copy ~transform =
  let p = Lazy.force saved_partial in
  let path = partial_path () in
  ignore (Partial.save p ~path);
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin path in
  output_string oc (transform s);
  close_out oc;
  path

let test_rejects_corrupted () =
  let flip s =
    let b = Bytes.of_string s in
    let i = Bytes.length b / 2 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
    Bytes.to_string b
  in
  let path = damaged_copy ~transform:flip in
  expect_load_error "flipped byte" (fun () -> Partial.load ~path) "checksum";
  Sys.remove path

let test_rejects_version_skew () =
  let bytes, _ = Snapshot.encode ~magic:PM.partial_magic ~version:99 [] in
  let path = partial_path () in
  Snapshot.write ~path bytes;
  expect_load_error "future version" (fun () -> Partial.load ~path)
    "format version 99";
  Sys.remove path

(* Rewrite one section of a valid partial and re-encode the container (so
   magic/version/checksum all pass): the decode error must name the
   damaged section, not just a byte offset. *)
let with_replaced_section name payload =
  let p = Lazy.force saved_partial in
  let bytes, _ = PM.encode p in
  let sections, _ =
    Snapshot.decode ~magic:PM.partial_magic ~desc:"partial model"
      ~version:PM.partial_version bytes
  in
  let sections =
    List.map (fun (n, pl) -> if n = name then (n, payload) else (n, pl)) sections
  in
  let bytes, _ =
    Snapshot.encode ~magic:PM.partial_magic ~version:PM.partial_version sections
  in
  let path = partial_path () in
  Snapshot.write ~path bytes;
  path

let test_error_names_corrupt_section () =
  let path = with_replaced_section "stmts" "\xff\xff\xff\xff\xff\xff" in
  expect_load_error "garbage stmts payload" (fun () -> Partial.load ~path)
    "\"stmts\" section is corrupt";
  Sys.remove path;
  let path = with_replaced_section "vocab" "\xff\xff\xff\xff" in
  expect_load_error "garbage vocab payload" (fun () -> Partial.load ~path)
    "\"vocab\" section is corrupt";
  Sys.remove path

let test_error_names_malformed_section () =
  (* a well-formed stmts record pointing at a file index that does not
     exist: reader-valid, semantically malformed *)
  let w = W.create () in
  W.u32 w 1;
  W.u32 w 999_999;
  W.u32 w 1;
  W.i64 w 0;
  W.u32 w 0;
  let path = with_replaced_section "stmts" (W.contents w) in
  expect_load_error "out-of-range file index" (fun () -> Partial.load ~path)
    "\"stmts\" section holds malformed data";
  expect_load_error "out-of-range detail" (fun () -> Partial.load ~path)
    "out of range";
  Sys.remove path

let test_rejects_missing_section () =
  let p = Lazy.force saved_partial in
  let bytes, _ = PM.encode p in
  let sections, _ =
    Snapshot.decode ~magic:PM.partial_magic ~desc:"partial model"
      ~version:PM.partial_version bytes
  in
  let bytes, _ =
    Snapshot.encode ~magic:PM.partial_magic ~version:PM.partial_version
      (List.filter (fun (n, _) -> n <> "pairs") sections)
  in
  let path = partial_path () in
  Snapshot.write ~path bytes;
  expect_load_error "dropped pairs section" (fun () -> Partial.load ~path)
    "missing its \"pairs\" section";
  Sys.remove path

let suite =
  [
    Alcotest.test_case "halves merge to the identical model" `Quick
      test_halves_merge_to_identical_model;
    Alcotest.test_case "partials and merges are jobs-invariant" `Quick
      test_jobs_invariance;
    to_alcotest prop_split_permute_merge;
    to_alcotest prop_merge_associative;
    to_alcotest prop_empty_identity;
    Alcotest.test_case "training digests leave the interner flat" `Quick
      test_digest_leaves_interner_flat;
    Alcotest.test_case "update flow = direct build, byte for byte" `Quick
      test_update_flow_is_direct_build;
    Alcotest.test_case "rejects re-merging a slice" `Quick test_rejects_remerge;
    Alcotest.test_case "rejects incompatible partials" `Quick
      test_rejects_incompatible;
    Alcotest.test_case "save → load round trip" `Quick test_save_load_round_trip;
    Alcotest.test_case "rejects corrupted files" `Quick test_rejects_corrupted;
    Alcotest.test_case "rejects version skew" `Quick test_rejects_version_skew;
    Alcotest.test_case "errors name the corrupt section" `Quick
      test_error_names_corrupt_section;
    Alcotest.test_case "errors name the malformed section" `Quick
      test_error_names_malformed_section;
    Alcotest.test_case "rejects a missing section" `Quick
      test_rejects_missing_section;
  ]
