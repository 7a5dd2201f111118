(* Tests for name patterns: the Figure 2(e) confusing-word pattern, the
   Example 3.8 consistency pattern, and the pattern store/index. *)

module Namepath = Namer_namepath.Namepath
module Pattern = Namer_pattern.Pattern

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let np = Namepath.of_string

(* Figure 2(d): the paths of the buggy statement. *)
let figure2_paths =
  List.map np
    [
      "NumArgs(2) 0 Call 0 AttributeLoad 0 NameLoad 0 NumST(1) 0 TestCase 0 self";
      "NumArgs(2) 0 Call 0 AttributeLoad 1 Attr 0 NumST(2) 0 TestCase 0 assert";
      "NumArgs(2) 0 Call 0 AttributeLoad 1 Attr 0 NumST(2) 1 TestCase 0 True";
      "NumArgs(2) 0 Call 1 AttributeLoad 0 NameLoad 0 NumST(1) 0 picture";
      "NumArgs(2) 0 Call 2 Num 0 NumST(1) 0 NUM";
    ]

(* Figure 2(e): the pattern. *)
let figure2_pattern =
  Pattern.make
    ~kind:(Pattern.Confusing_word { correct = "Equal" })
    ~condition:
      (List.map np
         [
           "NumArgs(2) 0 Call 0 AttributeLoad 0 NameLoad 0 NumST(1) 0 TestCase 0 self";
           "NumArgs(2) 0 Call 0 AttributeLoad 1 Attr 0 NumST(2) 0 TestCase 0 assert";
           "NumArgs(2) 0 Call 2 Num 0 NumST(1) 0 NUM";
         ])
    ~deduction:
      [
        Namepath.to_symbolic
          (np "NumArgs(2) 0 Call 0 AttributeLoad 1 Attr 0 NumST(2) 1 TestCase 0 True");
      ]

let test_figure2_violation () =
  let s = Pattern.Stmt_paths.of_paths figure2_paths in
  match Pattern.check figure2_pattern s with
  | Pattern.Violated info ->
      check_str "found" "True" info.Pattern.found;
      check_str "suggested fix" "Equal" info.Pattern.suggested
  | _ -> Alcotest.fail "expected a violation"

let test_figure2_satisfaction () =
  (* the corrected statement: assertEqual *)
  let fixed =
    List.map
      (fun (p : Namepath.t) ->
        if p.Namepath.end_node = Some "True" then { p with Namepath.end_node = Some "Equal" }
        else p)
      figure2_paths
  in
  let s = Pattern.Stmt_paths.of_paths fixed in
  check_bool "assertEqual satisfies" true (Pattern.check figure2_pattern s = Pattern.Satisfied)

let test_figure2_no_match () =
  (* a statement missing the NUM argument path does not match *)
  let partial = List.filteri (fun i _ -> i <> 4) figure2_paths in
  let s = Pattern.Stmt_paths.of_paths partial in
  check_bool "missing condition path" true
    (Pattern.check figure2_pattern s = Pattern.No_match)

let test_condition_end_mismatch_no_match () =
  (* same prefixes but the receiver is "other", not "self" *)
  let other =
    List.map
      (fun (p : Namepath.t) ->
        if p.Namepath.end_node = Some "self" then { p with Namepath.end_node = Some "other" }
        else p)
      figure2_paths
  in
  let s = Pattern.Stmt_paths.of_paths other in
  check_bool "condition end must match" true
    (Pattern.check figure2_pattern s = Pattern.No_match)

(* Example 3.8: consistency pattern for self.<n1> = <n2>. *)
let ex38_pattern =
  Pattern.make ~kind:Pattern.Consistency
    ~condition:
      [ np "Assign 0 AttributeStore 0 NameLoad 0 NumST(1) 0 Object 0 self" ]
    ~deduction:
      [
        Namepath.to_symbolic (np "Assign 0 AttributeStore 1 Attr 0 NumST(1) 0 name");
        Namepath.to_symbolic (np "Assign 1 NameLoad 0 NumST(1) 0 Str 0 name");
      ]

let ex38_stmt attr value =
  Pattern.Stmt_paths.of_paths
    (List.map np
       [
         "Assign 0 AttributeStore 0 NameLoad 0 NumST(1) 0 Object 0 self";
         "Assign 0 AttributeStore 1 Attr 0 NumST(1) 0 " ^ attr;
         "Assign 1 NameLoad 0 NumST(1) 0 Str 0 " ^ value;
       ])

let test_consistency_satisfied () =
  check_bool "self.name = name" true
    (Pattern.check ex38_pattern (ex38_stmt "name" "name") = Pattern.Satisfied)

let test_consistency_case_insensitive () =
  check_bool "case-folded comparison" true
    (Pattern.check ex38_pattern (ex38_stmt "Name" "name") = Pattern.Satisfied)

let test_consistency_violated () =
  match Pattern.check ex38_pattern (ex38_stmt "help" "docstring") with
  | Pattern.Violated info ->
      check_str "found (deduction-2 side)" "docstring" info.Pattern.found;
      check_str "suggested" "help" info.Pattern.suggested
  | _ -> Alcotest.fail "expected violation"

let test_consistency_requires_both_prefixes () =
  let s =
    Pattern.Stmt_paths.of_paths
      (List.map np
         [
           "Assign 0 AttributeStore 0 NameLoad 0 NumST(1) 0 Object 0 self";
           "Assign 0 AttributeStore 1 Attr 0 NumST(1) 0 name";
         ])
  in
  check_bool "missing deduction prefix" true (Pattern.check ex38_pattern s = Pattern.No_match)

(* ---------------- store & helpers ---------------- *)

let test_store_dedup () =
  let store = Pattern.Store.create () in
  let id1 = Pattern.Store.add store figure2_pattern in
  let id2 = Pattern.Store.add store figure2_pattern in
  check_int "same canonical form, same id" id1 id2;
  check_int "store size" 1 (Pattern.Store.size store);
  let id3 = Pattern.Store.add store ex38_pattern in
  check_bool "distinct patterns distinct ids" true (id3 <> id1)

let test_store_candidates () =
  let store = Pattern.Store.create () in
  ignore (Pattern.Store.add store figure2_pattern);
  ignore (Pattern.Store.add store ex38_pattern);
  let s = Pattern.Stmt_paths.of_paths figure2_paths in
  let cands = Pattern.Store.candidates store s in
  check_int "only the matching-deduction pattern is a candidate" 1 (List.length cands);
  check_bool "it is the figure-2 pattern" true
    ((List.hd cands).Pattern.kind = Pattern.Confusing_word { correct = "Equal" })

let test_targets_function_name () =
  check_bool "figure 2 pattern targets a callee" true
    (Pattern.targets_function_name figure2_pattern);
  check_bool "consistency on attributes does not" false
    (Pattern.targets_function_name ex38_pattern)

let test_canonical_stable () =
  let p1 =
    Pattern.make ~kind:Pattern.Consistency
      ~condition:[ np "A 0 B 0 x"; np "A 1 C 0 y" ]
      ~deduction:[ Namepath.to_symbolic (np "A 2 D 0 z") ]
  in
  let p2 =
    Pattern.make ~kind:Pattern.Consistency
      ~condition:[ np "A 1 C 0 y"; np "A 0 B 0 x" ] (* reordered *)
      ~deduction:[ Namepath.to_symbolic (np "A 2 D 0 z") ]
  in
  check_str "canonical form order-independent" (Pattern.canonical p1) (Pattern.canonical p2)

let test_epsilon_condition () =
  (* a symbolic condition path matches any end *)
  let p =
    Pattern.make
      ~kind:(Pattern.Confusing_word { correct = "Equal" })
      ~condition:
        [ Namepath.to_symbolic (np "NumArgs(2) 0 Call 2 Num 0 NumST(1) 0 NUM") ]
      ~deduction:
        [
          Namepath.to_symbolic
            (np "NumArgs(2) 0 Call 0 AttributeLoad 1 Attr 0 NumST(2) 1 TestCase 0 True");
        ]
  in
  let s = Pattern.Stmt_paths.of_paths figure2_paths in
  check_bool "ϵ condition matches" true
    (match Pattern.check p s with Pattern.Violated _ -> true | _ -> false)

let suite =
  [
    Alcotest.test_case "figure 2(e): violation" `Quick test_figure2_violation;
    Alcotest.test_case "figure 2(e): satisfaction" `Quick test_figure2_satisfaction;
    Alcotest.test_case "figure 2(e): no match" `Quick test_figure2_no_match;
    Alcotest.test_case "condition end mismatch" `Quick test_condition_end_mismatch_no_match;
    Alcotest.test_case "example 3.8: satisfied" `Quick test_consistency_satisfied;
    Alcotest.test_case "example 3.8: case-insensitive" `Quick test_consistency_case_insensitive;
    Alcotest.test_case "example 3.8: violated" `Quick test_consistency_violated;
    Alcotest.test_case "consistency needs both prefixes" `Quick
      test_consistency_requires_both_prefixes;
    Alcotest.test_case "store: dedup" `Quick test_store_dedup;
    Alcotest.test_case "store: candidate index" `Quick test_store_candidates;
    Alcotest.test_case "feature 13 helper" `Quick test_targets_function_name;
    Alcotest.test_case "canonical order-independence" `Quick test_canonical_stable;
    Alcotest.test_case "ϵ in conditions" `Quick test_epsilon_condition;
  ]

(* ---------------- persistence ---------------- *)

module Pattern_io = Namer_pattern.Pattern_io

let test_io_round_trip () =
  let store = Pattern.Store.create () in
  ignore (Pattern.Store.add store figure2_pattern);
  ignore (Pattern.Store.add store ex38_pattern);
  let reloaded = Pattern_io.of_string (Pattern_io.to_string store) in
  check_int "same size" (Pattern.Store.size store) (Pattern.Store.size reloaded);
  (* canonical forms survive the round trip *)
  let canon s = Pattern.Store.fold (fun acc p -> Pattern.canonical p :: acc) s [] in
  Alcotest.(check (list string)) "same canonical forms"
    (List.sort compare (canon store))
    (List.sort compare (canon reloaded))

let test_io_reloaded_patterns_work () =
  let store = Pattern.Store.create () in
  ignore (Pattern.Store.add store figure2_pattern);
  let reloaded = Pattern_io.of_string (Pattern_io.to_string store) in
  let s = Pattern.Stmt_paths.of_paths figure2_paths in
  let violated =
    Pattern.Store.candidates reloaded s
    |> List.exists (fun p ->
           match Pattern.check p s with Pattern.Violated _ -> true | _ -> false)
  in
  check_bool "reloaded pattern still fires" true violated

let test_io_comments_and_blanks () =
  let text = "# comment\n\n" ^ Pattern.canonical ex38_pattern ^ "\n" in
  check_int "comments skipped" 1 (Pattern.Store.size (Pattern_io.of_string text))

let test_io_parse_error () =
  check_bool "garbage rejected" true
    (try
       ignore (Pattern_io.of_string "NOT A PATTERN\n");
       false
     with Pattern_io.Parse_error _ -> true)

let io_suite =
  [
    Alcotest.test_case "io: round trip" `Quick test_io_round_trip;
    Alcotest.test_case "io: reloaded patterns fire" `Quick test_io_reloaded_patterns_work;
    Alcotest.test_case "io: comments and blanks" `Quick test_io_comments_and_blanks;
    Alcotest.test_case "io: parse errors" `Quick test_io_parse_error;
  ]

let suite = suite @ io_suite

(* ---------------- ordering patterns (extension) ---------------- *)

let ordering_pattern =
  Pattern.make
    ~kind:(Pattern.Ordering { first = "width"; second = "height" })
    ~condition:[ np "NumArgs(2) 0 Call 0 AttributeLoad 1 Attr 0 NumST(1) 0 resize" ]
    ~deduction:
      [
        np "NumArgs(2) 0 Call 1 NameLoad 0 NumST(1) 0 width";
        np "NumArgs(2) 0 Call 2 NameLoad 0 NumST(1) 0 height";
      ]

let resize_stmt a b =
  Pattern.Stmt_paths.of_paths
    (List.map np
       [
         "NumArgs(2) 0 Call 0 AttributeLoad 0 NameLoad 0 NumST(1) 0 image";
         "NumArgs(2) 0 Call 0 AttributeLoad 1 Attr 0 NumST(1) 0 resize";
         "NumArgs(2) 0 Call 1 NameLoad 0 NumST(1) 0 " ^ a;
         "NumArgs(2) 0 Call 2 NameLoad 0 NumST(1) 0 " ^ b;
       ])

let test_ordering_satisfied () =
  check_bool "canonical order satisfies" true
    (Pattern.check ordering_pattern (resize_stmt "width" "height") = Pattern.Satisfied)

let test_ordering_swap_violates () =
  match Pattern.check ordering_pattern (resize_stmt "height" "width") with
  | Pattern.Violated info ->
      check_str "found" "height" info.Pattern.found;
      check_str "suggested" "width" info.Pattern.suggested
  | _ -> Alcotest.fail "expected swap violation"

let test_ordering_unrelated_no_match () =
  check_bool "other words are not this pattern's business" true
    (Pattern.check ordering_pattern (resize_stmt "size" "scale") = Pattern.No_match)

let test_ordering_io_round_trip () =
  let store = Pattern.Store.create () in
  ignore (Pattern.Store.add store ordering_pattern);
  let reloaded = Pattern_io.of_string (Pattern_io.to_string store) in
  check_int "round trip" 1 (Pattern.Store.size reloaded);
  check_bool "kind preserved" true
    (Pattern.Store.fold
       (fun acc p ->
         acc || p.Pattern.kind = Pattern.Ordering { first = "width"; second = "height" })
       reloaded false)

let ordering_suite =
  [
    Alcotest.test_case "ordering: satisfied" `Quick test_ordering_satisfied;
    Alcotest.test_case "ordering: swap violates" `Quick test_ordering_swap_violates;
    Alcotest.test_case "ordering: unrelated no-match" `Quick test_ordering_unrelated_no_match;
    Alcotest.test_case "ordering: io round trip" `Quick test_ordering_io_round_trip;
  ]

let suite = suite @ ordering_suite

(* ---------------- relate ≡ check ---------------- *)

(* A string-level reading of Definitions 3.7/3.9, the oracle for both
   [relate] and [check]: a prefix's end is that of the first concrete path
   at it; an unknown prefix or word simply occurs in no statement. *)
type pdesc = {
  d_kind : [ `Cons | `Conf of string | `Ord of string * string ];
  d_cond : (string * string option) list;  (** prefix, wanted end (None = ϵ) *)
  d_ded : string list;  (** deduction prefixes *)
}

let path_of prefix end_node =
  np (prefix ^ " " ^ Option.value end_node ~default:"ϵ")

let pattern_of_desc d =
  let kind =
    match d.d_kind with
    | `Cons -> Pattern.Consistency
    | `Conf correct -> Pattern.Confusing_word { correct }
    | `Ord (first, second) -> Pattern.Ordering { first; second }
  in
  Pattern.make ~kind
    ~condition:(List.map (fun (p, w) -> path_of p w) d.d_cond)
    ~deduction:(List.map (fun p -> path_of p None) d.d_ded)

let spec_end stmt prefix =
  List.find_map (fun (p, e) -> if p = prefix then e else None) stmt

(* [`Rel 0|1], [`Viol (offending prefix, found, suggested)] or [`Raise] *)
let spec_relation d stmt =
  let holds (p, want) =
    match (spec_end stmt p, want) with
    | None, _ -> false
    | Some _, None -> true
    | Some got, Some w -> got = w
  in
  if not (List.for_all holds d.d_cond) then `Rel 0
  else
    match (d.d_kind, d.d_ded) with
    | `Cons, [ a; b ] -> (
        match (spec_end stmt a, spec_end stmt b) with
        | Some e1, Some e2 ->
            if String.lowercase_ascii e1 = String.lowercase_ascii e2 then `Rel 1
            else `Viol (b, e2, e1)
        | _ -> `Rel 0)
    | `Conf correct, [ a ] -> (
        match spec_end stmt a with
        | None -> `Rel 0
        | Some e -> if e = correct then `Rel 1 else `Viol (a, e, correct))
    | `Ord (first, second), [ a; b ] -> (
        match (spec_end stmt a, spec_end stmt b) with
        | Some e1, Some e2 ->
            if e1 = first && e2 = second then `Rel 1
            else if e1 = second && e2 = first then `Viol (a, second, first)
            else `Rel 0
        | _ -> `Rel 0)
    | _ -> `Raise

let observed_relate p s =
  match Pattern.relate p s with
  | 0 -> `Rel 0
  | 1 -> `Rel 1
  | 2 -> `Rel 2
  | r -> `Bad r
  | exception Invalid_argument _ -> `Raise

let observed_check p s =
  match Pattern.check p s with
  | Pattern.No_match -> `Rel 0
  | Pattern.Satisfied -> `Rel 1
  | Pattern.Violated i -> `Viol (i.Pattern.offending_prefix, i.Pattern.found, i.Pattern.suggested)
  | exception Invalid_argument _ -> `Raise

(* relate's code agrees with check's constructor, and check with the spec *)
let relation_agrees d stmt_paths s =
  let spec = spec_relation d stmt_paths in
  let p = pattern_of_desc d in
  let r = observed_relate p s and c = observed_check p s in
  let relate_ok =
    match (r, c) with
    | `Rel 2, `Viol _ | `Raise, `Raise -> true
    | `Rel a, `Rel b -> a = b
    | _ -> false
  in
  relate_ok && c = spec

let rel_prefixes = [| "S 0 A 0"; "S 1 B 0"; "S 2 C 0"; "S 3 D 0" |]
let rel_ends = [| "x"; "X"; "y"; "Y"; "z" |]

(* Strings never interned: only ever looked up while the table is frozen,
   where they compile to the never-matching [-2] sentinel. *)
let unseen_prefix = "S 9 Unseen 0"
let unseen_end = "never-interned-subtoken"

let rel_case_gen =
  let open QCheck.Gen in
  bool >>= fun frozen ->
  let pick arr unseen =
    if frozen then frequency [ (6, oneofa arr); (1, return unseen) ] else oneofa arr
  in
  let pfx = pick rel_prefixes unseen_prefix and word = pick rel_ends unseen_end in
  let want = frequency [ (3, map Option.some word); (1, return None) ] in
  let kind =
    frequency
      [
        (1, return `Cons);
        (1, map (fun w -> `Conf w) word);
        (1, map2 (fun a b -> `Ord (a, b)) word word);
      ]
  in
  let desc =
    kind >>= fun d_kind ->
    let arity = match d_kind with `Conf _ -> 1 | _ -> 2 in
    frequency [ (8, return arity); (1, int_range 0 3) ] >>= fun n_ded ->
    list_repeat n_ded pfx >>= fun d_ded ->
    list_size (int_range 0 3) (pair pfx want) >>= fun d_cond ->
    return { d_kind; d_cond; d_ded }
  in
  let stmt_path =
    pair (oneofa rel_prefixes)
      (frequency [ (5, map Option.some (oneofa rel_ends)); (1, return None) ])
  in
  triple (return frozen)
    (list_size (int_range 1 8) desc)
    (list_size (int_range 1 8) (list_size (int_range 0 6) stmt_path))

let rel_case_print (frozen, descs, stmts) =
  let pd d =
    let k =
      match d.d_kind with
      | `Cons -> "cons"
      | `Conf w -> "conf->" ^ w
      | `Ord (a, b) -> Printf.sprintf "ord(%s<%s)" a b
    in
    Printf.sprintf "%s cond=[%s] ded=[%s]" k
      (String.concat "; "
         (List.map (fun (p, w) -> p ^ " " ^ Option.value w ~default:"ϵ") d.d_cond))
      (String.concat "; " d.d_ded)
  in
  let ps s =
    String.concat "; " (List.map (fun (p, e) -> p ^ " " ^ Option.value e ~default:"ϵ") s)
  in
  Printf.sprintf "frozen=%b\npatterns:\n  %s\nstmts:\n  %s" frozen
    (String.concat "\n  " (List.map pd descs))
    (String.concat "\n  " (List.map ps stmts))

(* Digests are interned first; patterns are compiled (lazily, on first
   relate) afterwards, under a frozen table in half the cases. *)
let prop_relate_is_check =
  QCheck.Test.make ~name:"pattern: relate ≡ check ≡ spec" ~count:300
    (QCheck.make ~print:rel_case_print rel_case_gen)
    (fun (frozen, descs, stmts) ->
      let digests =
        List.map
          (fun st ->
            (st, Pattern.Stmt_paths.of_paths (List.map (fun (p, e) -> path_of p e) st)))
          stmts
      in
      let run () =
        List.for_all
          (fun d -> List.for_all (fun (st, s) -> relation_agrees d st s) digests)
          descs
      in
      if frozen then begin
        Namepath.Interned.freeze ();
        Fun.protect ~finally:Namepath.Interned.thaw run
      end
      else run ())

(* The corner cases the property must reach, pinned explicitly. *)
let test_relate_corners () =
  let stmt = [ ("S 0 A 0", Some "x"); ("S 1 B 0", Some "X"); ("S 2 C 0", Some "y") ] in
  let s = Pattern.Stmt_paths.of_paths (List.map (fun (p, e) -> path_of p e) stmt) in
  let d kind cond ded = { d_kind = kind; d_cond = cond; d_ded = ded } in
  let expect name code desc =
    check_bool name true (relation_agrees desc stmt s);
    Alcotest.(check string)
      name code
      (match observed_relate (pattern_of_desc desc) s with
      | `Rel r -> string_of_int r
      | `Raise -> "raise"
      | `Bad r -> "bad " ^ string_of_int r)
  in
  expect "ϵ want matches any end" "1" (d `Cons [ ("S 2 C 0", None) ] [ "S 0 A 0"; "S 1 B 0" ]);
  expect "case-differing consistency ends satisfy" "1" (d `Cons [] [ "S 0 A 0"; "S 1 B 0" ]);
  expect "consistency violation" "2" (d `Cons [] [ "S 0 A 0"; "S 2 C 0" ]);
  expect "exact ordering swap violates" "2" (d (`Ord ("y", "x")) [] [ "S 0 A 0"; "S 2 C 0" ]);
  expect "ordering in order satisfies" "1" (d (`Ord ("x", "y")) [] [ "S 0 A 0"; "S 2 C 0" ]);
  expect "non-exact ordering swap is no match" "0"
    (d (`Ord ("y", "z")) [] [ "S 0 A 0"; "S 2 C 0" ]);
  expect "malformed raises when its condition holds" "raise" (d `Cons [] [ "S 0 A 0" ]);
  expect "malformed is no match when its condition fails" "0"
    (d `Cons [ ("S 3 D 0", None) ] [ "S 0 A 0" ]);
  Namepath.Interned.freeze ();
  Fun.protect ~finally:Namepath.Interned.thaw (fun () ->
      expect "-2 condition want never matches" "0"
        (d `Cons [ ("S 2 C 0", Some unseen_end) ] [ "S 0 A 0"; "S 1 B 0" ]);
      expect "-2 deduction prefix never matches" "0" (d `Cons [] [ "S 0 A 0"; unseen_prefix ]);
      expect "-2 correct word: any found word violates" "2"
        (d (`Conf unseen_end) [] [ "S 0 A 0" ]))

let relate_suite =
  [
    Alcotest.test_case "relate: corner cases" `Quick test_relate_corners;
    QCheck_alcotest.to_alcotest prop_relate_is_check;
  ]

let suite = suite @ relate_suite

(* ---------------- store index ---------------- *)

module Corpus = Namer_corpus.Corpus
module Frontend = Namer_core.Frontend
module Miner = Namer_mining.Miner
module Confusing_pairs = Namer_mining.Confusing_pairs

let seed_digests =
  lazy
    (let cfg = { (Corpus.default_config Corpus.Python) with Corpus.n_repos = 10; seed = 77 } in
     (Corpus.generate cfg).Corpus.files
     |> List.concat_map (fun (f : Corpus.file) ->
            match Frontend.parse_file_opt Corpus.Python ~use_analysis:true f.Corpus.source with
            | None -> []
            | Some parsed ->
                List.map
                  (fun (s : Frontend.stmt) ->
                    let origins = parsed.Frontend.origins ~cls:s.Frontend.cls ~fn:s.Frontend.fn in
                    Pattern.Stmt_paths.of_tree
                      (Namer_namepath.Astplus.transform ~origins s.Frontend.tree))
                  parsed.Frontend.stmts))

(* Mined with no support or ratio floor, so the store is the whole
   candidate set — the shape prune matches against, with buckets hundreds
   of patterns deep. *)
let seed_store =
  lazy
    (let digests = Lazy.force seed_digests in
     let config =
       {
         Miner.default_config with
         Miner.min_support = 1;
         min_satisfaction_ratio = 0.0;
         min_path_freq = 3;
       }
     in
     let pairs = Confusing_pairs.create () in
     List.iter (Confusing_pairs.add_pair pairs) (Namer_core.Namer.builtin_pairs Corpus.Python);
     let store = Pattern.Store.create () in
     List.iter
       (fun kind ->
         Pattern.Store.iter
           (fun p -> ignore (Pattern.Store.add store { p with Pattern.id = -1 }))
           (Miner.mine ~config ~kind ~pairs digests).Miner.store)
       [
         `Consistency;
         `Confusing;
         `Ordering Namer_core.Namer.default_config.Namer_core.Namer.ordering_vocab;
       ];
     store)

let bucket_key (p : Pattern.t) = Namepath.Interned.prefix_id (List.hd p.Pattern.deduction)

(* The list-returning lookup the store shipped before its index became
   dense arrays: a table of newest-first id lists, deduplicated per call
   through a fresh hashtable.  Kept as the order golden. *)
let golden_candidates store =
  let index = Hashtbl.create 1024 in
  Pattern.Store.iter
    (fun p ->
      let k = bucket_key p in
      match Hashtbl.find_opt index k with
      | Some l -> l := p.Pattern.id :: !l
      | None -> Hashtbl.replace index k (ref [ p.Pattern.id ]))
    store;
  fun s ->
    let seen = Hashtbl.create 16 and acc = ref [] in
    Array.iter
      (fun pfx ->
        match Hashtbl.find_opt index pfx with
        | Some l ->
            List.iter
              (fun id ->
                if not (Hashtbl.mem seen id) then begin
                  Hashtbl.replace seen id ();
                  acc := id :: !acc
                end)
              !l
        | None -> ())
      (Pattern.Stmt_paths.prefix_ids s);
    List.rev !acc

let visited store s =
  let acc = ref [] in
  Pattern.Store.iter_candidates (fun p -> acc := p.Pattern.id :: !acc) store s;
  List.rev !acc

(* A bucket, read through [iter_candidates]: a digest whose only prefix is
   [k] visits exactly the patterns indexed under [k], newest first. *)
let digest_at k =
  { Pattern.Stmt_paths.ipaths = [||]; index_prefix = [| k |]; index_end = [| 0 |];
    n_paths = 0; overlay = Namepath.Interned.no_overlay }

let bucket store k = Array.of_list (List.rev (visited store (digest_at k)))

let test_store_one_bucket () =
  let store = Lazy.force seed_store in
  check_bool "the store holds the candidate set" true (Pattern.Store.size store > 1000);
  let keys = Hashtbl.create 256 in
  Pattern.Store.iter (fun p -> Hashtbl.replace keys (bucket_key p) ()) store;
  check_bool "every pattern sits in the bucket of its first deduction prefix" true
    (Pattern.Store.fold
       (fun ok p -> ok && Array.mem p.Pattern.id (bucket store (bucket_key p)))
       store true);
  let buckets = Hashtbl.fold (fun k () acc -> bucket store k :: acc) keys [] in
  check_int "bucket sizes sum to the store size: no pattern in two buckets"
    (Pattern.Store.size store)
    (List.fold_left (fun n b -> n + Array.length b) 0 buckets);
  check_bool "buckets hold ids oldest first" true
    (List.for_all
       (fun b ->
         let n = Array.length b in
         n <= 1 || Array.for_all2 ( < ) (Array.sub b 0 (n - 1)) (Array.sub b 1 (n - 1)))
       buckets);
  check_bool "some bucket is hundreds deep" true
    (List.exists (fun b -> Array.length b > 200) buckets)

let test_store_iter_order () =
  let store = Lazy.force seed_store in
  let golden = golden_candidates store in
  let visits = ref 0 in
  List.iter
    (fun s ->
      let ids = visited store s in
      visits := !visits + List.length ids;
      check_bool "no id visited twice" true
        (List.length (List.sort_uniq compare ids) = List.length ids);
      Alcotest.(check (list int)) "same sequence as the old candidate list" (golden s) ids;
      Alcotest.(check (list int))
        "candidates is iter_candidates collected" ids
        (List.map (fun p -> p.Pattern.id) (Pattern.Store.candidates store s)))
    (Lazy.force seed_digests);
  check_bool "the corpus visits candidates" true (!visits > 1000)

(* The scan vocabulary's unknown prefix, [-2], has no bucket: a digest
   carrying it is visited without error and yields nothing. *)
let test_store_negative_prefix () =
  let store = Lazy.force seed_store in
  check_int "a -2 prefix has no candidates" 0 (List.length (visited store (digest_at (-2))));
  check_int "candidates agrees" 0
    (List.length (Pattern.Store.candidates store (digest_at (-2))))

let store_index_suite =
  [
    Alcotest.test_case "store: one bucket per pattern" `Quick test_store_one_bucket;
    Alcotest.test_case "store: iter_candidates order golden" `Quick test_store_iter_order;
    Alcotest.test_case "store: -2 prefix yields no candidates" `Quick
      test_store_negative_prefix;
  ]

let suite = suite @ store_index_suite
