(* The fused per-file scan against its reference (test/ref_scan.ml): the
   same reports at every [jobs] over corpora whose vocabulary the model
   never saw, the two overlay edge cases pinned, and the global interner
   left exactly as the model load left it.  Varying [jobs] moves the shard
   boundaries, and with them which files share an overlay. *)

module Namer = Namer_core.Namer
module Corpus = Namer_corpus.Corpus
module Vocab = Namer_corpus.Vocab
module Interned = Namer_namepath.Namepath.Interned

let model =
  lazy
    (let corpus =
       Corpus.generate
         { (Corpus.default_config Corpus.Python) with Corpus.n_repos = 8; seed = 11 }
     in
     Namer.model_of
       (Namer.build { Namer.default_config with Namer.use_classifier = false } corpus))

(* The size of both global vocabularies: what a scan must leave unchanged. *)
let vocab_size () =
  let prefixes, ends = Interned.export_global () in
  (List.length prefixes, Interned.n_ends (), List.length ends)

let rows (r : Namer.scan_result) = Array.to_list (Array.map Ref_scan.of_report r.Namer.sr_reports)
let show rs = String.concat "\n" (List.map Ref_scan.render rs)

(* Every scan plan reports the same rows and leaves the vocabulary flat;
   the reference, run last because it interns, reports them too. *)
let check_against_reference m files =
  let refs = List.map Namer.ref_of_file files in
  let before = vocab_size () in
  let scans =
    List.map
      (fun jobs ->
        let r = Namer.scan_refs ~jobs ~cap_domains:false m refs in
        Alcotest.(check bool)
          (Printf.sprintf "jobs=%d leaves the interner flat" jobs)
          true
          (vocab_size () = before);
        (jobs, rows r))
      [ 1; 3; 4 ]
  in
  let expected = Ref_scan.scan m files in
  List.iter
    (fun (jobs, got) ->
      Alcotest.(check string)
        (Printf.sprintf "jobs=%d equals the reference" jobs)
        (show expected) (show got))
    scans;
  expected

(* [fresh_tag ()]: a new lowercase tag per call, so each corpus brings
   ends that no earlier reference run has interned. *)
let fresh_tag =
  let n = ref 0 in
  let rec letters n =
    (if n >= 26 then letters ((n / 26) - 1) else "") ^ String.make 1 (Char.chr (97 + (n mod 26)))
  in
  fun () ->
    incr n;
    "zq" ^ letters !n

let is_start = function 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false
let is_ident c = is_start c || match c with '0' .. '9' -> true | _ -> false

let vocab_words =
  let t = Hashtbl.create 256 in
  Array.iter (fun w -> Hashtbl.replace t w ()) Vocab.attributes;
  Array.iter (fun w -> Hashtbl.replace t w ()) Vocab.entities;
  t

(* Rewrite the vocabulary words of a source, occurrence by occurrence:
   most stay, some change case (an unseen end whose lowercase is a model
   end — upper or capitalized, the casings the subtoken split keeps in one
   piece), some get a fresh suffix (an unseen end and an unseen
   lowercase), some both.  Per-occurrence choices break consistent names
   apart, so violations land between seen and unseen ends. *)
let rewrite rng tag source =
  let n = String.length source and b = Buffer.create (String.length source + 64) in
  let variant w =
    match Random.State.int rng 10 with
    | 5 -> String.uppercase_ascii w
    | 6 -> String.capitalize_ascii w
    | 7 | 8 -> w ^ tag
    | 9 -> String.capitalize_ascii (w ^ tag)
    | _ -> w
  in
  let i = ref 0 in
  while !i < n do
    if is_start source.[!i] then begin
      let j = ref !i in
      while !j < n && is_ident source.[!j] do
        incr j
      done;
      let w = String.sub source !i (!j - !i) in
      Buffer.add_string b (if Hashtbl.mem vocab_words w then variant w else w);
      i := !j
    end
    else begin
      Buffer.add_char b source.[!i];
      incr i
    end
  done;
  Buffer.contents b

let unseen_corpus seed =
  let tag = fresh_tag () in
  let rng = Random.State.make [| seed |] in
  let corpus =
    Corpus.generate
      { (Corpus.default_config Corpus.Python) with Corpus.n_repos = 3; seed }
  in
  List.map
    (fun (f : Corpus.file) -> { f with Corpus.source = rewrite rng tag f.Corpus.source })
    corpus.Corpus.files

let prop_matches_reference =
  QCheck.Test.make ~count:4 ~name:"scan_refs = reference scan on unseen vocabulary"
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let m = Lazy.force model in
      ignore (check_against_reference m (unseen_corpus seed));
      true)

(* The two overlay edge cases, in one constructor:
   - [self.<w> = <W>]: the value is unseen, but its lowercase is the
     model's end [w]; consistent case-insensitively, so no report;
   - [self.<u> = <v>]: both ends unseen and different; a consistency
     violation whose found and suggested texts both come from the
     overlay. *)
let test_overlay_edge_cases () =
  let m = Lazy.force model in
  let tag = fresh_tag () in
  let w =
    List.find
      (fun w ->
        Interned.lookup_end w <> None
        && Interned.lookup_end (String.uppercase_ascii w) = None)
      (Array.to_list Vocab.attributes)
  in
  let w_upper = String.uppercase_ascii w in
  let u = "plonk" ^ tag and v = "frib" ^ tag in
  List.iter
    (fun e ->
      Alcotest.(check bool) (e ^ " is unseen") true (Interned.lookup_end e = None))
    [ u; v ];
  let source =
    String.concat "\n"
      [
        "import logging";
        "";
        "class Gadget(object):";
        Printf.sprintf "    def __init__(self, %s, %s, %s):" w u v;
        "        self.items = []";
        Printf.sprintf "        self.%s = %s" w w_upper;
        Printf.sprintf "        self.%s = %s" u v;
        "";
      ]
  in
  let file = { Corpus.repo = "repo900"; path = "repo900/src/gadget.py"; source } in
  let expected = check_against_reference m [ file ] in
  Alcotest.(check bool) "no report on the case-folded assignment" true
    (List.for_all (fun (_, line, _, _, _, _) -> line <> 6) expected);
  Alcotest.(check bool) "a consistency report between two unseen ends" true
    (List.exists
       (fun (_, line, _, suggested, found, kind) ->
         line = 7 && kind = "consistency"
         && List.sort compare [ found; suggested ] = List.sort compare [ u; v ])
       expected)

let suite =
  [
    Alcotest.test_case "overlay edge cases" `Quick test_overlay_edge_cases;
    QCheck_alcotest.to_alcotest prop_matches_reference;
  ]
