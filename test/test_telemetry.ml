(* Tests for Namer_telemetry: span nesting, counter/histogram aggregation,
   the Null-sink zero-cost path, exception safety, and a golden-file check
   that the Chrome-trace export is valid JSON with monotonically ordered
   [ts] fields. *)

module T = Namer_telemetry.Telemetry
module J = Namer_util.Json

let with_memory_sink f =
  T.reset ();
  T.set_sink T.Memory;
  Fun.protect ~finally:(fun () -> T.set_sink T.Null; T.reset ()) f

(* ---------------- spans ---------------- *)

let test_span_nesting () =
  with_memory_sink @@ fun () ->
  let r =
    T.with_span "outer" (fun () ->
        T.with_span "inner" (fun () -> ());
        T.with_span "inner" (fun () -> ());
        42)
  in
  Alcotest.(check int) "with_span returns" 42 r;
  let spans = T.spans () in
  Alcotest.(check int) "three spans" 3 (List.length spans);
  let outer = List.hd spans in
  Alcotest.(check string) "chronological order" "outer" outer.T.name;
  Alcotest.(check int) "outer depth" 0 outer.T.depth;
  List.iter
    (fun (s : T.span) ->
      if s.T.name = "inner" then begin
        Alcotest.(check int) "inner depth" 1 s.T.depth;
        Alcotest.(check bool) "inner starts after outer" true (s.T.ts_us >= outer.T.ts_us);
        Alcotest.(check bool) "inner inside outer" true
          (s.T.ts_us +. s.T.dur_us <= outer.T.ts_us +. outer.T.dur_us +. 1.0)
      end)
    spans

let test_span_exception_safety () =
  with_memory_sink @@ fun () ->
  (try T.with_span "boom" (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check int) "span recorded despite raise" 1 (List.length (T.spans ()));
  (* depth must be restored: a following span is top-level again *)
  T.with_span "after" (fun () -> ());
  let after = List.nth (T.spans ()) 1 in
  Alcotest.(check int) "depth restored" 0 after.T.depth

let test_stage_aggregation () =
  with_memory_sink @@ fun () ->
  T.with_span "a" (fun () -> T.with_span "b" (fun () -> ()));
  T.with_span "b" (fun () -> ());
  let stages = T.stages () in
  Alcotest.(check int) "two stages" 2 (List.length stages);
  let b = List.find (fun (s : T.stage) -> s.T.stage = "b") stages in
  Alcotest.(check int) "b folded" 2 b.T.s_count;
  (* first-appearance order: "a" starts before its child "b" *)
  Alcotest.(check string) "order by first appearance" "a"
    (List.hd stages).T.stage;
  Alcotest.(check bool) "table renders" true
    (String.length (T.stage_table ()) > 0)

(* A span re-opened under the name of an enclosing one on the same domain
   is folded into it: the stage is counted once, not twice. *)
let test_same_name_nesting_folds () =
  with_memory_sink @@ fun () ->
  T.with_span "build" (fun () ->
      T.with_span "digest" (fun () -> ());
      T.with_span "build" (fun () -> T.with_span "mine" (fun () -> ())));
  let names = List.map (fun (s : T.span) -> s.T.name) (T.spans ()) in
  Alcotest.(check (list string)) "inner build folded" [ "build"; "digest"; "mine" ] names;
  let mine = List.find (fun (s : T.span) -> s.T.name = "mine") (T.spans ()) in
  Alcotest.(check int) "folded span adds no depth" 1 mine.T.depth;
  T.with_span "build" (fun () -> ());
  Alcotest.(check int) "sibling spans still count" 2
    (List.find (fun (s : T.stage) -> s.T.stage = "build") (T.stages ())).T.s_count

(* ---------------- counters and histograms ---------------- *)

let test_counters () =
  with_memory_sink @@ fun () ->
  T.count "files";
  T.count "files";
  T.count ~by:3 "stmts";
  Alcotest.(check int) "files" 2 (T.counter "files");
  Alcotest.(check int) "stmts" 3 (T.counter "stmts");
  Alcotest.(check int) "missing" 0 (T.counter "nope");
  Alcotest.(check (list (pair string int))) "sorted registry"
    [ ("files", 2); ("stmts", 3) ]
    (T.counters ())

let test_histograms () =
  with_memory_sink @@ fun () ->
  List.iter (T.observe "ms") [ 1.0; 2.0; 3.0; 4.0; 5.0 ];
  match T.histogram "ms" with
  | None -> Alcotest.fail "histogram missing"
  | Some s ->
      Alcotest.(check int) "n" 5 s.T.n;
      Alcotest.(check (float 1e-9)) "total" 15.0 s.T.total;
      Alcotest.(check (float 1e-9)) "mean" 3.0 s.T.mean;
      Alcotest.(check (float 1e-9)) "p50" 3.0 s.T.p50;
      Alcotest.(check (float 1e-6)) "p90" 4.6 s.T.p90;
      Alcotest.(check (float 1e-6)) "p99" 4.96 s.T.p99

let test_record_ms () =
  with_memory_sink @@ fun () ->
  T.with_span ~record_ms:"lat" "work" (fun () -> ());
  match T.histogram "lat" with
  | None -> Alcotest.fail "record_ms histogram missing"
  | Some s -> Alcotest.(check int) "one observation" 1 s.T.n

(* ---------------- Null sink: zero-cost path ---------------- *)

let test_null_sink_records_nothing () =
  T.set_sink T.Null;
  T.reset ();
  let r = T.with_span "x" (fun () -> T.count "c"; T.observe "h" 1.0; 7) in
  Alcotest.(check int) "value passes through" 7 r;
  Alcotest.(check int) "no spans" 0 (List.length (T.spans ()));
  Alcotest.(check int) "no counters" 0 (List.length (T.counters ()));
  Alcotest.(check int) "no histograms" 0 (List.length (T.histograms ()));
  Alcotest.(check bool) "disabled" false (T.enabled ())

(* ---------------- Chrome trace export (golden check) ---------------- *)

let test_chrome_trace_valid_json () =
  with_memory_sink @@ fun () ->
  T.with_span "build" (fun () ->
      T.with_span "parse" (fun () -> ());
      T.with_span ~args:[ ("kind", "consistency") ] "mine" (fun () -> ()));
  let rendered = J.to_string ~indent:2 (T.to_chrome_json ()) in
  match J.parse rendered with
  | Error msg -> Alcotest.fail ("export is not valid JSON: " ^ msg)
  | Ok (J.Obj fields) -> (
      match List.assoc_opt "traceEvents" fields with
      | Some (J.List events) ->
          Alcotest.(check int) "three events" 3 (List.length events);
          let ts_of = function
            | J.Obj f -> (
                match List.assoc_opt "ts" f with
                | Some (J.Float x) -> x
                | Some (J.Int x) -> float_of_int x
                | _ -> Alcotest.fail "event without numeric ts")
            | _ -> Alcotest.fail "event is not an object"
          in
          let ts = List.map ts_of events in
          let rec monotonic = function
            | a :: (b :: _ as rest) -> a <= b && monotonic rest
            | _ -> true
          in
          Alcotest.(check bool) "ts monotonically ordered" true (monotonic ts);
          List.iter
            (fun ev ->
              match ev with
              | J.Obj f ->
                  Alcotest.(check bool) "complete event" true
                    (List.assoc_opt "ph" f = Some (J.String "X"))
              | _ -> ())
            events
      | _ -> Alcotest.fail "no traceEvents array")
  | Ok _ -> Alcotest.fail "top level is not an object"

let test_metrics_json_roundtrip () =
  with_memory_sink @@ fun () ->
  T.with_span "stage" (fun () -> ());
  T.count ~by:5 "things";
  T.observe "h" 2.0;
  let rendered = J.to_string ~indent:2 (T.metrics_json ()) in
  match J.parse rendered with
  | Error msg -> Alcotest.fail ("metrics JSON invalid: " ^ msg)
  | Ok (J.Obj fields) ->
      List.iter
        (fun key ->
          Alcotest.(check bool) (key ^ " present") true
            (List.mem_assoc key fields))
        [ "counters"; "histograms"; "stages" ]
  | Ok _ -> Alcotest.fail "metrics top level is not an object"

let suite =
  [
    Alcotest.test_case "span nesting" `Quick test_span_nesting;
    Alcotest.test_case "span exception safety" `Quick test_span_exception_safety;
    Alcotest.test_case "stage aggregation" `Quick test_stage_aggregation;
    Alcotest.test_case "same-name nesting folds" `Quick test_same_name_nesting_folds;
    Alcotest.test_case "counters" `Quick test_counters;
    Alcotest.test_case "histograms" `Quick test_histograms;
    Alcotest.test_case "record_ms" `Quick test_record_ms;
    Alcotest.test_case "null sink records nothing" `Quick test_null_sink_records_nothing;
    Alcotest.test_case "chrome trace valid json" `Quick test_chrome_trace_valid_json;
    Alcotest.test_case "metrics json roundtrip" `Quick test_metrics_json_roundtrip;
  ]
