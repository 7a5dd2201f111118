(* Tests for Namer_parallel: deque LIFO/FIFO discipline, pool submit/join
   under contention, exception propagation, work-stealing smoke, shard-plan
   determinism properties, and the headline guarantee — a jobs=4 build is
   byte-identical to the jobs=1 build on the same corpus. *)

module Pool = Namer_parallel.Pool
module Shard = Namer_parallel.Shard
module Accumulator = Namer_parallel.Accumulator
module Counter = Namer_util.Counter
module Corpus = Namer_corpus.Corpus
module Namer = Namer_core.Namer
module Pattern = Namer_pattern.Pattern

let with_pool ~domains f =
  let pool = Pool.create ~domains () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

(* ---------------- deque ---------------- *)

let test_deque_discipline () =
  let d = Pool.Deque.create () in
  List.iter (Pool.Deque.push_bottom d) [ 1; 2; 3; 4 ];
  Alcotest.(check int) "length" 4 (Pool.Deque.length d);
  (* owner end is LIFO *)
  Alcotest.(check (option int)) "pop_bottom newest" (Some 4) (Pool.Deque.pop_bottom d);
  (* thief end is FIFO *)
  Alcotest.(check (option int)) "steal_top oldest" (Some 1) (Pool.Deque.steal_top d);
  Alcotest.(check (option int)) "steal_top next" (Some 2) (Pool.Deque.steal_top d);
  Alcotest.(check (option int)) "pop_bottom last" (Some 3) (Pool.Deque.pop_bottom d);
  Alcotest.(check (option int)) "empty pop" None (Pool.Deque.pop_bottom d);
  Alcotest.(check (option int)) "empty steal" None (Pool.Deque.steal_top d)

let test_deque_growth () =
  let d = Pool.Deque.create () in
  for i = 1 to 1000 do
    Pool.Deque.push_bottom d i
  done;
  let stolen = ref [] in
  let rec drain () =
    match Pool.Deque.steal_top d with
    | Some x ->
        stolen := x :: !stolen;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "steals preserve push order"
    (List.init 1000 (fun i -> i + 1))
    (List.rev !stolen)

(* ---------------- pool ---------------- *)

let test_pool_submit_join () =
  with_pool ~domains:3 @@ fun pool ->
  let futs = List.init 200 (fun i -> Pool.submit pool (fun () -> i * i)) in
  let results = List.map Pool.await futs in
  Alcotest.(check (list int)) "200 tasks under contention"
    (List.init 200 (fun i -> i * i))
    results;
  Alcotest.(check int) "all tasks executed" 200
    (Array.fold_left ( + ) 0 (Pool.executed pool))

let test_pool_map_list_order () =
  with_pool ~domains:4 @@ fun pool ->
  (* uneven task durations: results must still come back in input order *)
  let xs = List.init 50 (fun i -> i) in
  let ys =
    Pool.map_list pool
      (fun i ->
        let spin = if i mod 7 = 0 then 10_000 else 10 in
        let acc = ref 0 in
        for _ = 1 to spin do
          incr acc
        done;
        ignore !acc;
        i * 2)
      xs
  in
  Alcotest.(check (list int)) "input order" (List.map (fun i -> i * 2) xs) ys

let test_pool_exception () =
  with_pool ~domains:2 @@ fun pool ->
  let fut = Pool.submit pool (fun () -> failwith "task blew up") in
  Alcotest.check_raises "await re-raises" (Failure "task blew up") (fun () ->
      ignore (Pool.await fut));
  (* the pool survives a failed task *)
  Alcotest.(check int) "pool still works" 7 (Pool.await (Pool.submit pool (fun () -> 7)))

let test_pool_stealing () =
  with_pool ~domains:4 @@ fun pool ->
  (* pin every task to worker 0: the only way others execute is stealing *)
  let futs =
    List.init 100 (fun i ->
        Pool.submit ~on:0 pool (fun () ->
            let acc = ref 0 in
            for _ = 1 to 5000 do
              incr acc
            done;
            !acc + i))
  in
  List.iteri
    (fun i r -> Alcotest.(check int) "pinned task result" (5000 + i) r)
    (List.map Pool.await futs);
  let executed = Pool.executed pool in
  Alcotest.(check int) "every task ran" 100 (Array.fold_left ( + ) 0 executed)

let test_run_sequential_path () =
  Pool.run ~jobs:1 (fun pool ->
      Alcotest.(check bool) "jobs=1 gives no pool" true (pool = None));
  Pool.run ~jobs:3 (fun pool ->
      match pool with
      | None -> Alcotest.fail "jobs=3 must give a pool"
      | Some p -> Alcotest.(check int) "pool size" 3 (Pool.size p))

(* ---------------- shards ---------------- *)

let test_shard_concat_identity () =
  let xs = List.init 37 string_of_int in
  List.iter
    (fun shards ->
      Alcotest.(check (list string))
        (Printf.sprintf "concat of %d shards = input" shards)
        xs
        (List.concat (Shard.contiguous ~shards xs)))
    [ 1; 2; 3; 5; 16; 64 ]

let prop_shard_merge_deterministic =
  QCheck.Test.make ~name:"parallel: counter reduce independent of shard count"
    ~count:50
    QCheck.(pair (small_list small_string) (int_range 1 32))
    (fun (words, shards) ->
      let reduce ~shards =
        let module C = struct
          type t = string Counter.t

          let empty () = Counter.create ()
          let merge = Counter.merge
        end in
        let c =
          Accumulator.sharded_reduce
            (module C)
            ~shards
            (fun ws ->
              let c = Counter.create () in
              List.iter (Counter.add c) ws;
              c)
            words
        in
        List.sort compare (Counter.fold (fun w n acc -> (w, n) :: acc) c [])
      in
      reduce ~shards = reduce ~shards:1)

let prop_shard_concat_map_order =
  QCheck.Test.make ~name:"parallel: sharded_concat_map preserves order" ~count:50
    QCheck.(pair (small_list small_int) (int_range 1 16))
    (fun (xs, shards) ->
      Accumulator.sharded_concat_map ~shards (List.map (fun x -> x + 1)) xs
      = List.map (fun x -> x + 1) xs)

(* ---------------- end-to-end byte equality ---------------- *)

let render_reports (t : Namer.t) =
  Array.to_list t.Namer.violations
  |> List.map (fun (v : Namer.violation) ->
         Printf.sprintf "%s:%d %s %s->%s [%s]"
           v.Namer.v_stmt.Namer.sctx.Namer_classifier.Features.file
           v.Namer.v_stmt.Namer.line
           (String.concat ","
              (List.map string_of_float (Array.to_list v.Namer.v_features)))
           v.Namer.v_info.Pattern.found v.Namer.v_info.Pattern.suggested
           (Namer.describe_fix v))
  |> String.concat "\n"

let test_jobs_byte_equality () =
  let corpus =
    Corpus.generate { (Corpus.default_config Corpus.Python) with Corpus.n_repos = 8 }
  in
  let build ~jobs =
    (* cap_domains off: on a 1-core runner the cap would collapse jobs=4 to
       the inline path, and this test exists to exercise real worker
       domains — shard-local interner tables folded as shard partials,
       and the frozen global table — against the sequential build. *)
    Namer.build
      { Namer.default_config with Namer.use_classifier = false; jobs; cap_domains = false }
      corpus
  in
  let seq = build ~jobs:1 and par = build ~jobs:4 in
  Alcotest.(check int) "same pattern count"
    (Pattern.Store.size seq.Namer.store)
    (Pattern.Store.size par.Namer.store);
  Alcotest.(check int) "same violation count"
    (Array.length seq.Namer.violations)
    (Array.length par.Namer.violations);
  Alcotest.(check string) "byte-identical reports (features included)"
    (render_reports seq) (render_reports par);
  Alcotest.(check int) "same aggregate stmt totals" seq.Namer.n_stmts par.Namer.n_stmts

let suite =
  [
    Alcotest.test_case "deque LIFO/FIFO discipline" `Quick test_deque_discipline;
    Alcotest.test_case "deque growth and drain" `Quick test_deque_growth;
    Alcotest.test_case "pool submit/join under contention" `Quick test_pool_submit_join;
    Alcotest.test_case "map_list keeps input order" `Quick test_pool_map_list_order;
    Alcotest.test_case "exception propagation" `Quick test_pool_exception;
    Alcotest.test_case "work stealing drains a pinned worker" `Quick test_pool_stealing;
    Alcotest.test_case "run: sequential vs pooled path" `Quick test_run_sequential_path;
    Alcotest.test_case "shard concat identity" `Quick test_shard_concat_identity;
    QCheck_alcotest.to_alcotest prop_shard_merge_deterministic;
    QCheck_alcotest.to_alcotest prop_shard_concat_map_order;
    Alcotest.test_case "jobs=1 ≡ jobs=4 on a corpus" `Slow test_jobs_byte_equality;
  ]
