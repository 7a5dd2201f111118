(* Reference miner: Algorithm 1 (with Algorithm 2's [combinations]) by
   brute force, kept so the property tests can check [Miner.mine] — its
   interned id space, FP-tree, sharded frequency pass and dense prune
   counters — against the plain definition on small corpora.

   Everything here works on canonical path text: no interned ids, no
   FP-tree, no candidate index.  Each statement's splits are enumerated
   directly and turned into the same item lists the FP-tree receives
   (frequent condition paths in canonical order, at most
   [max_condition_paths] of them, then the sorted deduction); distinct item
   lists expand into condition subsets; candidates are deduplicated by
   their item text; and [pruneUncommon] calls [Pattern.check] for every
   candidate against every statement. *)

module Namepath = Namer_namepath.Namepath
module Pattern = Namer_pattern.Pattern
module Miner = Namer_mining.Miner
module Confusing_pairs = Namer_mining.Confusing_pairs

let text = Namepath.to_string
let by_text a b = compare (text a) (text b)

(* literal abstractions and operator tokens are not names *)
let is_name_end e =
  String.length e > 0
  && (match e.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && not (List.mem e [ "NUM"; "STR"; "BOOL"; "NONE" ])

let is_call_argument (np : Namepath.t) =
  List.exists (fun (s : Namepath.step) -> s.Namepath.value = "Call" && s.index > 0) np.prefix

let rec take k = function x :: xs when k > 0 -> x :: take (k - 1) xs | _ -> []

(* Every (condition, deduction) split of one statement's paths. *)
let splits ~kind ~pairs (paths : Namepath.t list) =
  let arr = Array.of_list paths in
  let n = Array.length arr in
  let others i j = List.filteri (fun k _ -> k <> i && k <> j) paths in
  let out = ref [] in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      match (kind, arr.(i).Namepath.end_node, arr.(j).Namepath.end_node) with
      | `Consistency, Some e1, Some e2
        when i < j
             && String.lowercase_ascii e1 = String.lowercase_ascii e2
             && is_name_end e1 ->
          out :=
            (others i j, [ Namepath.to_symbolic arr.(i); Namepath.to_symbolic arr.(j) ]) :: !out
      | `Confusing, Some e, _ when i = j && Confusing_pairs.is_correct_word pairs e ->
          out := (others i i, [ arr.(i) ]) :: !out
      | `Ordering vocab, Some e1, Some e2
        when i <> j
             && is_call_argument arr.(i)
             && is_call_argument arr.(j)
             && List.mem (e1, e2) vocab ->
          out := (others i j, [ arr.(i); arr.(j) ]) :: !out
      | _ -> ()
    done
  done;
  !out

(* Algorithm 2, line 7: the full condition set and every subset of at most
   [k] paths, order preserved. *)
let subsets ~k conds =
  let n = List.length conds in
  List.init (1 lsl n) (fun mask -> List.filteri (fun i _ -> mask land (1 lsl i) <> 0) conds)
  |> List.filter (fun s -> List.length s <= k || List.length s = n)

type kept = { canonical : string; matches : int; sats : int; viols : int }

(** [mine ~config ~kind ~pairs stmts] — the kept patterns (sorted by
    canonical text) with their corpus statistics, and the candidate count. *)
let mine ~(config : Miner.config) ~kind ~pairs (stmts : Pattern.Stmt_paths.t list) =
  let stmt_paths = List.map Pattern.Stmt_paths.paths stmts in
  (* line 5: a path is frequent when its text occurs more than
     [min_path_freq] times, each statement path counting for its concrete
     and its symbolic form *)
  let freq = Hashtbl.create 256 in
  let bump key =
    Hashtbl.replace freq key (1 + Option.value (Hashtbl.find_opt freq key) ~default:0)
  in
  List.iter
    (List.iter (fun np ->
         bump (text np);
         bump (text (Namepath.to_symbolic np))))
    stmt_paths;
  let frequent np =
    Option.value (Hashtbl.find_opt freq (text np)) ~default:0 > config.min_path_freq
  in
  (* lines 6-7: the distinct item lists *)
  let items = Hashtbl.create 256 in
  List.iter
    (fun paths ->
      splits ~kind ~pairs (take config.max_stmt_paths paths)
      |> List.iter (fun (cond, ded) ->
             if List.for_all frequent ded then begin
               let cond =
                 take config.max_condition_paths
                   (List.stable_sort by_text (List.filter frequent cond))
               in
               let ded = List.stable_sort by_text ded in
               Hashtbl.replace items (List.map text (cond @ ded)) (cond, ded)
             end))
    stmt_paths;
  (* line 8: candidates, deduplicated by item text *)
  let candidates = Hashtbl.create 1024 in
  Hashtbl.iter
    (fun _ (cond, ded) ->
      let kind_v =
        match (kind, List.map (fun (d : Namepath.t) -> d.Namepath.end_node) ded) with
        | `Consistency, _ -> Pattern.Consistency
        | `Confusing, [ Some correct ] -> Pattern.Confusing_word { correct }
        | `Ordering _, [ Some first; Some second ] -> Pattern.Ordering { first; second }
        | _ -> assert false
      in
      subsets ~k:config.max_subset_size cond
      |> List.iter (fun c ->
             let key = List.map text (c @ ded) in
             if not (Hashtbl.mem candidates key) then
               Hashtbl.replace candidates key
                 (Pattern.make ~kind:kind_v ~condition:c ~deduction:ded)))
    items;
  (* line 9: pruneUncommon over every candidate × statement *)
  let kept =
    Hashtbl.fold
      (fun _ p acc ->
        let sats = ref 0 and viols = ref 0 in
        List.iter
          (fun s ->
            match Pattern.check p s with
            | Pattern.Satisfied -> incr sats
            | Pattern.Violated _ -> incr viols
            | Pattern.No_match -> ())
          stmts;
        let matches = !sats + !viols in
        if
          matches > 0
          && matches >= config.min_support
          && float_of_int !sats /. float_of_int matches >= config.min_satisfaction_ratio
        then { canonical = Pattern.canonical p; matches; sats = !sats; viols = !viols } :: acc
        else acc)
      candidates []
  in
  (List.sort compare kept, Hashtbl.length candidates)

(** The same view of a [Miner.mine] result. *)
let of_result (r : Miner.result) =
  let kept =
    Pattern.Store.fold
      (fun acc p ->
        let st = Hashtbl.find r.Miner.dataset_stats p.Pattern.id in
        {
          canonical = Pattern.canonical p;
          matches = st.Miner.matches;
          sats = st.Miner.sats;
          viols = st.Miner.viols;
        }
        :: acc)
      r.Miner.store []
  in
  (List.sort compare kept, r.Miner.n_candidates)
