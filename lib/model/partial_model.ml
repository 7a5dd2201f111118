(** Partial models: the mergeable training state of one corpus slice.

    A partial carries everything [train(slice)] learned that a later
    [train(A+B)] needs, in a shape closed under merging:

    - the slice's whole-path vocabulary in first-seen order (replaying it
      through the interner reproduces the sequential id assignment of a
      direct digest of the same statements);
    - every digested statement as vocab-index arrays (mining thresholds
      are corpus-global and candidates emerge only after merging, so
      aggregated counts cannot stand in for the statements themselves);
    - the slice's file list, skipped files, and unpruned confusing-pair
      tallies with the commit count they were mined from (pruning and the
      builtin-catalog fallback are finalize-time decisions).

    [merge] is closed and associative; the empty partial is its identity;
    re-merging a slice (any file overlap) is rejected.  Every training run
    goes through the algebra — shards fold into a partial, a model is the
    finalize of a partial — so [train(A+B) ≡ merge(train A, train B)]
    holds by construction; see DESIGN.md §13 and the qcheck suite in
    [test/test_partial_model.ml]. *)

module Interner = Namer_util.Interner

type pstmt = {
  ps_file : int;  (** index into [pm_files] *)
  ps_line : int;
  ps_tree_hash : int;
  ps_paths : int array;  (** name paths as indices into [pm_vocab] *)
}

type t = {
  pm_lang : string;  (** "python" | "java" *)
  pm_use_analysis : bool;  (** digest-shaping config, baked in at digest time *)
  pm_max_stmt_paths : int;
  pm_vocab : string array;
      (** distinct whole-path canonical texts, first-seen statement order *)
  pm_files : (string * string) array;  (** (repo, path), corpus order *)
  pm_stmts : pstmt array;  (** corpus order; [ps_file] indexes [pm_files] *)
  pm_skipped : (int * string) array;  (** (file index, reason) *)
  pm_pairs : ((string * string) * int) list;
      (** unpruned commit-pair tallies, sorted by pair *)
  pm_n_commits : int;  (** commits the tallies were mined from *)
}

exception Merge_error of string

let merge_errf fmt = Printf.ksprintf (fun s -> raise (Merge_error s)) fmt

let empty =
  {
    pm_lang = "python";
    pm_use_analysis = true;
    pm_max_stmt_paths = 10;
    pm_vocab = [||];
    pm_files = [||];
    pm_stmts = [||];
    pm_skipped = [||];
    pm_pairs = [];
    pm_n_commits = 0;
  }

let is_empty p =
  Array.length p.pm_files = 0
  && Array.length p.pm_stmts = 0
  && p.pm_pairs = [] && p.pm_n_commits = 0

let n_files p = Array.length p.pm_files
let n_stmts p = Array.length p.pm_stmts

let n_repos p =
  let repos = Hashtbl.create 16 in
  Array.iter (fun (repo, _) -> Hashtbl.replace repos repo ()) p.pm_files;
  Hashtbl.length repos

(* ------------------------------------------------------------------ *)
(* Merge                                                               *)
(* ------------------------------------------------------------------ *)

(* Fold [ps] in order in one pass: one running vocab interner, so the
   cost is linear in the total vocabulary however many partials there
   are.  The empty partial is a two-sided identity, whatever its meta. *)
let merge_all ps =
  match List.filter (fun p -> not (is_empty p)) ps with
  | [] -> empty
  | [ p ] -> p
  | first :: _ as ps ->
      let seen = Hashtbl.create 4096 in
      let vocab =
        Interner.create ~size:(List.fold_left (fun n p -> n + Array.length p.pm_vocab) 0 ps) ()
      in
      let tally = Hashtbl.create 64 in
      let n_files = ref 0 in
      let parts =
        List.map
          (fun p ->
            if p.pm_lang <> first.pm_lang then
              merge_errf "cannot merge partials of different languages (%s vs %s)"
                first.pm_lang p.pm_lang;
            if p.pm_use_analysis <> first.pm_use_analysis then
              merge_errf
                "cannot merge partials with different analysis settings (one was \
                 digested with origin analysis, the other without)";
            if p.pm_max_stmt_paths <> first.pm_max_stmt_paths then
              merge_errf
                "cannot merge partials with different per-statement path caps (%d vs \
                 %d) — the cap shapes the digests themselves"
                first.pm_max_stmt_paths p.pm_max_stmt_paths;
            (* slices must be disjoint: re-merging a slice would double-count
               its statements (this also rejects the idempotent self
               re-merge) *)
            Array.iter
              (fun ((_, path) as fp) ->
                if Hashtbl.mem seen fp then
                  merge_errf
                    "both partials contain file %s — partials must cover disjoint \
                     corpus slices (a slice cannot be merged in twice)"
                    path)
              p.pm_files;
            Array.iter (fun fp -> Hashtbl.replace seen fp ()) p.pm_files;
            (* earlier texts keep their indices, this partial's new texts
               intern after them in its own order — the merged vocab is the
               first-seen order over the concatenated statements, exactly
               what a direct digest of the concatenation sees *)
            let map = Array.map (Interner.intern vocab) p.pm_vocab in
            let off = !n_files in
            n_files := off + Array.length p.pm_files;
            (* pair tallies sum (commutative, associative) *)
            List.iter
              (fun (pr, c) ->
                Hashtbl.replace tally pr
                  (c + Option.value ~default:0 (Hashtbl.find_opt tally pr)))
              p.pm_pairs;
            ( Array.map
                (fun ps ->
                  {
                    ps with
                    ps_file = ps.ps_file + off;
                    ps_paths = Array.map (fun i -> map.(i)) ps.ps_paths;
                  })
                p.pm_stmts,
              Array.map (fun (i, r) -> (i + off, r)) p.pm_skipped ))
          ps
      in
      let vocab_arr = Array.make (Interner.size vocab) "" in
      Interner.iter (fun id s -> vocab_arr.(id) <- s) vocab;
      {
        first with
        pm_vocab = vocab_arr;
        pm_files = Array.concat (List.map (fun p -> p.pm_files) ps);
        pm_stmts = Array.concat (List.map fst parts);
        pm_skipped = Array.concat (List.map snd parts);
        (* sorted bindings keep the serialized form canonical *)
        pm_pairs =
          Hashtbl.fold (fun pr c acc -> ((pr, c) : (string * string) * int) :: acc) tally []
          |> List.sort compare;
        pm_n_commits = List.fold_left (fun n p -> n + p.pm_n_commits) 0 ps;
      }

let merge a b = merge_all [ a; b ]

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)
(* ------------------------------------------------------------------ *)

let partial_magic = "NAMERPRT"
let partial_version = 1

let encode p =
  let meta =
    let w = Binio.W.create () in
    Binio.W.str w p.pm_lang;
    Binio.W.bool w p.pm_use_analysis;
    Binio.W.u32 w p.pm_max_stmt_paths;
    Binio.W.u32 w p.pm_n_commits;
    Binio.W.contents w
  in
  let vocab =
    let w = Binio.W.create ~size:(1 lsl 16) () in
    Binio.W.u32 w (Array.length p.pm_vocab);
    Array.iter (Binio.W.str w) p.pm_vocab;
    Binio.W.contents w
  in
  let files =
    let w = Binio.W.create ~size:(1 lsl 12) () in
    Binio.W.u32 w (Array.length p.pm_files);
    Array.iter
      (fun (repo, path) ->
        Binio.W.str w repo;
        Binio.W.str w path)
      p.pm_files;
    Binio.W.contents w
  in
  let stmts =
    let w = Binio.W.create ~size:(1 lsl 16) () in
    Binio.W.u32 w (Array.length p.pm_stmts);
    Array.iter
      (fun ps ->
        Binio.W.u32 w ps.ps_file;
        Binio.W.u32 w ps.ps_line;
        Binio.W.i64 w ps.ps_tree_hash;
        Binio.W.u32 w (Array.length ps.ps_paths);
        Array.iter (Binio.W.u32 w) ps.ps_paths)
      p.pm_stmts;
    Binio.W.contents w
  in
  let skipped =
    let w = Binio.W.create () in
    Binio.W.u32 w (Array.length p.pm_skipped);
    Array.iter
      (fun (i, reason) ->
        Binio.W.u32 w i;
        Binio.W.str w reason)
      p.pm_skipped;
    Binio.W.contents w
  in
  let pairs =
    let w = Binio.W.create () in
    Binio.W.u32 w (List.length p.pm_pairs);
    List.iter
      (fun ((w1, w2), c) ->
        Binio.W.str w w1;
        Binio.W.str w w2;
        Binio.W.i64 w c)
      p.pm_pairs;
    Binio.W.contents w
  in
  Snapshot.encode ~magic:partial_magic ~version:partial_version
    [
      ("meta", meta); ("vocab", vocab); ("files", files); ("stmts", stmts);
      ("skipped", skipped); ("pairs", pairs);
    ]

let decode ?path bytes =
  let desc = "partial model" in
  let sections, hash =
    Snapshot.decode ~magic:partial_magic ~desc ~version:partial_version ?path
      bytes
  in
  let desc =
    match path with Some p -> Printf.sprintf "%s %s" desc p | None -> desc
  in
  let read name f = Snapshot.read_section ~desc sections name f in
  (* explicit loops throughout: the reader is stateful, so the read order
     must be the write order, which Array.init/List.init do not promise *)
  let read_array r f =
    let n = Binio.R.u32 r in
    let acc = ref [] in
    for _ = 1 to n do
      acc := f r :: !acc
    done;
    Array.of_list (List.rev !acc)
  in
  let lang, use_analysis, max_stmt_paths, n_commits =
    read "meta" (fun r ->
        let lang = Binio.R.str r in
        let use_analysis = Binio.R.bool r in
        let max_stmt_paths = Binio.R.u32 r in
        let n_commits = Binio.R.u32 r in
        (lang, use_analysis, max_stmt_paths, n_commits))
  in
  let vocab = read "vocab" (fun r -> read_array r Binio.R.str) in
  let files =
    read "files" (fun r ->
        read_array r (fun r ->
            let repo = Binio.R.str r in
            let path = Binio.R.str r in
            (repo, path)))
  in
  let stmts =
    read "stmts" (fun r ->
        read_array r (fun r ->
            let ps_file = Binio.R.u32 r in
            let ps_line = Binio.R.u32 r in
            let ps_tree_hash = Binio.R.i64 r in
            let ps_paths = read_array r Binio.R.u32 in
            if ps_file >= Array.length files then
              invalid_arg
                (Printf.sprintf "statement file index %d out of range (%d files)"
                   ps_file (Array.length files));
            Array.iter
              (fun i ->
                if i >= Array.length vocab then
                  invalid_arg
                    (Printf.sprintf
                       "statement path index %d out of range (%d vocab entries)"
                       i (Array.length vocab)))
              ps_paths;
            { ps_file; ps_line; ps_tree_hash; ps_paths }))
  in
  let skipped =
    read "skipped" (fun r ->
        read_array r (fun r ->
            let i = Binio.R.u32 r in
            let reason = Binio.R.str r in
            if i >= Array.length files then
              invalid_arg
                (Printf.sprintf "skipped file index %d out of range (%d files)"
                   i (Array.length files));
            (i, reason)))
  in
  let pairs =
    read "pairs" (fun r ->
        Array.to_list
          (read_array r (fun r ->
               let w1 = Binio.R.str r in
               let w2 = Binio.R.str r in
               let c = Binio.R.i64 r in
               ((w1, w2), c))))
  in
  ( {
      pm_lang = lang;
      pm_use_analysis = use_analysis;
      pm_max_stmt_paths = max_stmt_paths;
      pm_vocab = vocab;
      pm_files = files;
      pm_stmts = stmts;
      pm_skipped = skipped;
      pm_pairs = pairs;
      pm_n_commits = n_commits;
    },
    hash )

let save p ~path =
  let bytes, hash = encode p in
  Snapshot.write ~path bytes;
  hash

let load ~path =
  let bytes = Snapshot.read_file ~desc:"partial model" ~path in
  decode ~path bytes
