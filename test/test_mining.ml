(* Tests for FP-tree mining (Algorithms 1–2, Figure 3), confusing-pair
   mining, and the end-to-end miner on constructed corpora. *)

module Namepath = Namer_namepath.Namepath
module Pattern = Namer_pattern.Pattern
module Fptree = Namer_mining.Fptree
module Miner = Namer_mining.Miner
module Confusing_pairs = Namer_mining.Confusing_pairs
module Tree = Namer_tree.Tree

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------------- FP-tree (Figure 3) ---------------- *)

(* Insert the item lists behind Figure 3(a); [fold_last_nodes] must surface
   the four (condition, deduction) rows of Figure 3(b).  The tree stores
   interned item ids, so the test keeps its own label table. *)
let fig3_label = [| "NP1"; "NP2"; "NP3"; "NP4"; "NP5"; "NP6" |]
let fig3_id s = 1 + (Array.to_list fig3_label |> List.mapi (fun i l -> (l, i)) |> List.assoc s)

let build_figure3 () =
  let t = Fptree.create () in
  let ins items n =
    for _ = 1 to n do
      Fptree.insert t (List.map fig3_id items)
    done
  in
  ins [ "NP1"; "NP2" ] 33;
  ins [ "NP1"; "NP3"; "NP5" ] 15;
  ins [ "NP1"; "NP3"; "NP4" ] 14;
  ins [ "NP1"; "NP3"; "NP4"; "NP6" ] 13;
  t

let test_figure3_structure () =
  let t = build_figure3 () in
  check_int "six distinct nodes" 6 (Fptree.size t)

let test_figure3_patterns () =
  let t = build_figure3 () in
  let rows =
    Fptree.fold_last_nodes t
      ~f:(fun acc ~path_items ~support ->
        (List.map (fun i -> fig3_label.(i - 1)) path_items, support) :: acc)
      []
    |> List.sort compare
  in
  let expect =
    List.sort compare
      [
        ([ "NP1"; "NP2" ], 33);
        ([ "NP1"; "NP3"; "NP5" ], 15);
        (* NP4 carries its own insertions plus the NP6 pass-throughs *)
        ([ "NP1"; "NP3"; "NP4" ], 27);
        ([ "NP1"; "NP3"; "NP4"; "NP6" ], 13);
      ]
  in
  Alcotest.(check (list (pair (list string) int))) "figure 3(b) rows" expect rows

let test_fptree_shared_prefix () =
  let t = Fptree.create () in
  Fptree.insert t [ 1; 2 ];
  Fptree.insert t [ 1; 3 ];
  check_int "prefix shared" 3 (Fptree.size t)

let test_fptree_empty_insert () =
  let t = Fptree.create () in
  Fptree.insert t [];
  check_int "no-op" 0 (Fptree.size t)

(* ---------------- splitPaths ---------------- *)

let np = Namepath.of_string

let paths_abc =
  [ np "A 0 B 0 key"; np "A 1 C 0 value"; np "A 2 D 0 value"; np "A 3 E 0 NUM" ]

let test_split_confusing () =
  let pairs = Confusing_pairs.create () in
  Confusing_pairs.add_pair pairs ("name", "key");
  let splits = Miner.split_paths ~kind:`Confusing ~pairs paths_abc in
  (* only the path ending in the correct word "key" becomes a deduction *)
  check_int "one split" 1 (List.length splits);
  let cond, deduct = List.hd splits in
  check_int "three condition paths" 3 (List.length cond);
  check_bool "deduction ends with key" true
    ((List.hd deduct).Namepath.end_node = Some "key")

let test_split_consistency () =
  let pairs = Confusing_pairs.create () in
  let splits = Miner.split_paths ~kind:`Consistency ~pairs paths_abc in
  (* only the (value, value) pair qualifies; NUM is not a name *)
  check_int "one pair" 1 (List.length splits);
  let cond, deduct = List.hd splits in
  check_int "deduction is the symbolic pair" 2 (List.length deduct);
  check_bool "both symbolic" true (List.for_all Namepath.is_symbolic deduct);
  check_int "rest in condition" 2 (List.length cond)

let test_combinations () =
  let c = Miner.combinations ~max_subset_size:2 [ 1; 2; 3 ] in
  check_bool "contains full set" true (List.mem [ 1; 2; 3 ] c);
  check_bool "contains singletons" true (List.mem [ 1 ] c && List.mem [ 3 ] c);
  check_bool "contains pairs" true (List.mem [ 1; 2 ] c);
  check_bool "empty condition allowed" true (List.mem [] c);
  check_int "1 full + empty + 3 singles + 3 pairs" 8 (List.length c)

(* ---------------- confusing pairs ---------------- *)

let test_pairs_prune () =
  let p = Confusing_pairs.create () in
  for _ = 1 to 5 do
    Confusing_pairs.add_pair p ("True", "Equal")
  done;
  Confusing_pairs.add_pair p ("one", "off");
  let kept = Confusing_pairs.prune p ~min_count:3 in
  check_bool "frequent pair kept" true (Confusing_pairs.mem kept ("True", "Equal"));
  check_bool "rare pair dropped" false (Confusing_pairs.mem kept ("one", "off"));
  check_bool "orientation matters" false (Confusing_pairs.mem kept ("Equal", "True"));
  check_bool "correct word registry" true (Confusing_pairs.is_correct_word kept "Equal")

let test_pairs_identity_excluded () =
  let p = Confusing_pairs.create () in
  Confusing_pairs.add_pair p ("same", "same");
  check_int "identity pairs ignored" 0 (Confusing_pairs.total_pairs p)

let test_pairs_from_commit_trees () =
  let stmt name =
    Tree.node "Assign" [ Tree.node "NameStore" [ Tree.leaf name ]; Tree.node "Num" [ Tree.leaf "1" ] ]
  in
  let p = Confusing_pairs.create () in
  Confusing_pairs.add_commit p
    ~before:(Tree.node "Module" [ stmt "assertTrue" ])
    ~after:(Tree.node "Module" [ stmt "assertEqual" ]);
  check_bool "pair mined from diff" true (Confusing_pairs.mem p ("True", "Equal"))

(* ---------------- end-to-end mining ---------------- *)

(* A corpus of digests: 50 statements satisfying the idiom (callee ends
   with "Equal") and 3 deviants (callee ends with "True"). *)
let mk_stmt word extra =
  Pattern.Stmt_paths.of_paths
    (List.map np
       [
         "NumArgs(2) 0 Call 0 AttributeLoad 0 NameLoad 0 NumST(1) 0 TestCase 0 self";
         "NumArgs(2) 0 Call 0 AttributeLoad 1 Attr 0 NumST(2) 0 TestCase 0 assert";
         "NumArgs(2) 0 Call 0 AttributeLoad 1 Attr 0 NumST(2) 1 TestCase 0 " ^ word;
         "NumArgs(2) 0 Call 2 Num 0 NumST(1) 0 NUM";
         "NumArgs(2) 0 Call 1 AttributeLoad 0 NameLoad 0 NumST(1) 0 " ^ extra;
       ])

let mine_corpus () =
  let pairs = Confusing_pairs.create () in
  Confusing_pairs.add_pair ~count:10 pairs ("True", "Equal");
  let stmts =
    List.init 50 (fun i -> mk_stmt "Equal" (Printf.sprintf "var%d" i))
    @ List.init 3 (fun i -> mk_stmt "True" (Printf.sprintf "bad%d" i))
  in
  let config =
    { Miner.default_config with min_support = 10; min_path_freq = 5; max_subset_size = 2 }
  in
  (Miner.mine ~config ~kind:`Confusing ~pairs stmts, stmts)

let test_miner_end_to_end () =
  let result, stmts = mine_corpus () in
  check_bool "patterns mined" true (Pattern.Store.size result.Miner.store > 0);
  (* the buggy statements violate at least one kept pattern *)
  let buggy = List.nth stmts 51 in
  let violated =
    Pattern.Store.candidates result.Miner.store buggy
    |> List.exists (fun p ->
           match Pattern.check p buggy with Pattern.Violated _ -> true | _ -> false)
  in
  check_bool "deviant statement violates" true violated;
  (* clean statements satisfy every candidate pattern *)
  let clean = List.hd stmts in
  let ok =
    Pattern.Store.candidates result.Miner.store clean
    |> List.for_all (fun p -> Pattern.check p clean <> Pattern.No_match)
  in
  check_bool "idiomatic statement matches candidates" true ok

let test_miner_prunes_low_satisfaction () =
  (* half Equal / half True: satisfaction ratio ~0.5 < 0.8 → pattern dropped *)
  let pairs = Confusing_pairs.create () in
  Confusing_pairs.add_pair ~count:10 pairs ("True", "Equal");
  let stmts =
    List.init 25 (fun i -> mk_stmt "Equal" (Printf.sprintf "v%d" i))
    @ List.init 25 (fun i -> mk_stmt "True" (Printf.sprintf "w%d" i))
  in
  let config =
    { Miner.default_config with min_support = 10; min_path_freq = 5 }
  in
  let result = Miner.mine ~config ~kind:`Confusing ~pairs stmts in
  check_int "contested idiom pruned" 0 (Pattern.Store.size result.Miner.store)

let test_miner_dataset_stats () =
  let result, _ = mine_corpus () in
  let all_good =
    Hashtbl.fold
      (fun _ (s : Miner.pattern_stats) acc ->
        acc && s.Miner.matches >= s.Miner.sats && s.Miner.matches >= s.Miner.viols)
      result.Miner.dataset_stats true
  in
  check_bool "stats internally consistent" true all_good;
  check_bool "stats cover kept patterns" true
    (Hashtbl.length result.Miner.dataset_stats = Pattern.Store.size result.Miner.store)

let test_consistency_mining_end_to_end () =
  let pairs = Confusing_pairs.create () in
  let mk attr value =
    Pattern.Stmt_paths.of_paths
      (List.map np
         [
           "Assign 0 AttributeStore 0 NameLoad 0 NumST(1) 0 Object 0 self";
           "Assign 0 AttributeStore 1 Attr 0 NumST(1) 0 " ^ attr;
           "Assign 1 NameLoad 0 NumST(1) 0 " ^ value;
         ])
  in
  let stmts =
    List.init 40 (fun i -> mk (Printf.sprintf "f%d" (i mod 8)) (Printf.sprintf "f%d" (i mod 8)))
    @ [ mk "help" "docstring" ]
  in
  let config = { Miner.default_config with min_support = 10; min_path_freq = 5 } in
  let result = Miner.mine ~config ~kind:`Consistency ~pairs stmts in
  check_bool "consistency pattern mined" true (Pattern.Store.size result.Miner.store > 0);
  let bad = List.nth stmts 40 in
  let violated =
    Pattern.Store.candidates result.Miner.store bad
    |> List.exists (fun p ->
           match Pattern.check p bad with Pattern.Violated _ -> true | _ -> false)
  in
  check_bool "inconsistent statement violates" true violated

let suite =
  [
    Alcotest.test_case "figure 3(a): tree structure" `Quick test_figure3_structure;
    Alcotest.test_case "figure 3(b): generated rows" `Quick test_figure3_patterns;
    Alcotest.test_case "fp-tree: shared prefixes" `Quick test_fptree_shared_prefix;
    Alcotest.test_case "fp-tree: empty insert" `Quick test_fptree_empty_insert;
    Alcotest.test_case "splitPaths: confusing" `Quick test_split_confusing;
    Alcotest.test_case "splitPaths: consistency" `Quick test_split_consistency;
    Alcotest.test_case "combinations" `Quick test_combinations;
    Alcotest.test_case "pairs: pruning" `Quick test_pairs_prune;
    Alcotest.test_case "pairs: identity excluded" `Quick test_pairs_identity_excluded;
    Alcotest.test_case "pairs: from commit trees" `Quick test_pairs_from_commit_trees;
    Alcotest.test_case "miner: end to end (confusing)" `Quick test_miner_end_to_end;
    Alcotest.test_case "miner: satisfaction pruning" `Quick test_miner_prunes_low_satisfaction;
    Alcotest.test_case "miner: dataset stats" `Quick test_miner_dataset_stats;
    Alcotest.test_case "miner: end to end (consistency)" `Quick
      test_consistency_mining_end_to_end;
  ]

(* ---------------- ordering mining (extension) ---------------- *)

let test_split_ordering () =
  let pairs = Confusing_pairs.create () in
  let paths =
    List.map np
      [
        "Call 0 B 0 resize"; "Call 1 C 0 width"; "Call 2 D 0 height";
        "Call 3 E 0 NUM";
      ]
  in
  let splits =
    Miner.split_paths ~kind:(`Ordering [ ("width", "height") ]) ~pairs paths
  in
  check_int "one ordered split" 1 (List.length splits);
  let cond, deduct = List.hd splits in
  check_int "two-path deduction" 2 (List.length deduct);
  check_int "rest in condition" 2 (List.length cond);
  check_bool "deduction concrete" true
    (List.for_all (fun d -> not (Namepath.is_symbolic d)) deduct)

let test_ordering_mining_end_to_end () =
  let pairs = Confusing_pairs.create () in
  let mk a b extra =
    Pattern.Stmt_paths.of_paths
      (List.map np
         [
           "NumArgs(2) 0 Call 0 AttributeLoad 1 Attr 0 NumST(1) 0 resize";
           "NumArgs(2) 0 Call 1 NameLoad 0 NumST(1) 0 " ^ a;
           "NumArgs(2) 0 Call 2 NameLoad 0 NumST(1) 0 " ^ b;
           "Assign 0 NameStore 0 NumST(1) 0 " ^ extra;
         ])
  in
  let stmts =
    List.init 40 (fun i -> mk "width" "height" (Printf.sprintf "v%d" i))
    @ [ mk "height" "width" "bad" ]
  in
  let config = { Miner.default_config with min_support = 10; min_path_freq = 5 } in
  let result =
    Miner.mine ~config ~kind:(`Ordering [ ("width", "height") ]) ~pairs stmts
  in
  check_bool "ordering patterns mined" true (Pattern.Store.size result.Miner.store > 0);
  let bad = List.nth stmts 40 in
  let violated =
    Pattern.Store.candidates result.Miner.store bad
    |> List.exists (fun p ->
           match Pattern.check p bad with Pattern.Violated _ -> true | _ -> false)
  in
  check_bool "swap detected" true violated

let ordering_suite =
  [
    Alcotest.test_case "splitPaths: ordering" `Quick test_split_ordering;
    Alcotest.test_case "miner: end to end (ordering)" `Quick test_ordering_mining_end_to_end;
  ]

let suite = suite @ ordering_suite

(* ---------------- reference miner ---------------- *)

(* Small corpora of statements over a fixed shape vocabulary.  Each prefix
   has a usual end, so rules with enough support and satisfaction exist,
   and a spread of others (case variants, a confusing pair's words, a
   literal) so that some are violated and some are pruned. *)
let ref_shapes =
  [|
    ("Assign 0 AttributeStore 1 Attr 0 NumST(1) 0", "name");
    ("Assign 1 NameLoad 0 NumST(1) 0", "name");
    ("NumArgs(2) 0 Call 0 AttributeLoad 1 Attr 0 NumST(1) 0", "Equal");
    ("NumArgs(2) 0 Call 1 NameLoad 0 NumST(1) 0", "width");
    ("NumArgs(2) 0 Call 2 NameLoad 0 NumST(1) 0", "height");
    ("Return 0 NameLoad 0 NumST(1) 0", "self");
  |]

let ref_ends = [| "name"; "Name"; "width"; "height"; "Equal"; "True"; "NUM"; "self" |]

let ref_pairs () =
  let pairs = Confusing_pairs.create () in
  Confusing_pairs.add_pair pairs ("True", "Equal");
  Confusing_pairs.add_pair pairs ("Name", "name");
  pairs

let ref_config =
  {
    Miner.min_path_freq = 2;
    max_stmt_paths = 5;
    max_condition_paths = 3;
    max_subset_size = 2;
    min_support = 3;
    min_satisfaction_ratio = 0.8;
  }

let ref_kinds =
  [ ("consistency", `Consistency); ("confusing", `Confusing);
    ("ordering", `Ordering [ ("width", "height"); ("name", "self") ]) ]

(* a random subset of shapes in a random leaf order; each shape takes its
   usual end [weight] times out of [weight + 1] *)
let ref_stmt_gen ~weight =
  let open QCheck.Gen in
  shuffle_l (Array.to_list ref_shapes) >>= fun shapes ->
  int_range 1 (List.length shapes) >>= fun n ->
  flatten_l
    (List.map
       (fun (prefix, usual) ->
         map (fun e -> (prefix, e)) (frequency [ (weight, return usual); (1, oneofa ref_ends) ]))
       (List.filteri (fun i _ -> i < n) shapes))

let ref_digest stmt =
  Pattern.Stmt_paths.of_paths (List.map (fun (p, e) -> np (p ^ " " ^ e)) stmt)

let ref_agrees ~kind stmts =
  let pairs = ref_pairs () in
  let digests = List.map ref_digest stmts in
  Ref_miner.mine ~config:ref_config ~kind ~pairs digests
  = Ref_miner.of_result (Miner.mine ~config:ref_config ~kind ~pairs digests)

let prop_ref_miner =
  QCheck.Test.make ~name:"miner ≡ brute-force Algorithm 1 (all kinds)" ~count:150
    (QCheck.make
       ~print:(fun stmts ->
         String.concat "\n"
           (List.map
              (fun st -> String.concat " ; " (List.map (fun (p, e) -> p ^ " " ^ e) st))
              stmts))
       QCheck.Gen.(int_range 2 10 >>= fun weight -> list_size (int_range 5 40) (ref_stmt_gen ~weight)))
    (fun stmts -> List.for_all (fun (_, kind) -> ref_agrees ~kind stmts) ref_kinds)

(* One fixed corpus, so the comparison is known not to be vacuous: every
   kind keeps patterns, and pruning drops some candidates. *)
let test_ref_miner_fixed () =
  let stmts =
    QCheck.Gen.generate ~rand:(Random.State.make [| 7 |]) ~n:80 (ref_stmt_gen ~weight:8)
  in
  let pairs = ref_pairs () in
  let digests = List.map ref_digest stmts in
  let pruned =
    List.map
      (fun (name, kind) ->
        let expect, n_expect = Ref_miner.mine ~config:ref_config ~kind ~pairs digests in
        let got, n_got =
          Ref_miner.of_result (Miner.mine ~config:ref_config ~kind ~pairs digests)
        in
        check_int (name ^ ": candidates") n_expect n_got;
        check_bool (name ^ ": same kept patterns and dataset stats") true (expect = got);
        check_bool (name ^ ": keeps some") true (expect <> []);
        n_expect - List.length expect)
      ref_kinds
  in
  check_bool "pruning drops candidates" true (List.exists (fun n -> n > 0) pruned)

let ref_miner_suite =
  [
    Alcotest.test_case "reference miner: fixed corpus" `Quick test_ref_miner_fixed;
    QCheck_alcotest.to_alcotest prop_ref_miner;
  ]

let suite = suite @ ref_miner_suite
