(* What the measured operations share: collecting a directory into file
   references, the CLI's self-mining training config, the digests the
   output checks compare, and the cold-state guard. *)

module J = Namer_util.Json
module Namer = Namer_core.Namer
module Corpus = Namer_corpus.Corpus
module Pattern = Namer_pattern.Pattern
module Miner = Namer_mining.Miner
module Interned = Namer_namepath.Namepath.Interned

let now = Unix.gettimeofday

(* Sorted, unlike the CLI's directory walk, so that the interner's
   first-seen order — and with it the model hash — does not depend on the
   order in which a file system lists a directory. *)
let rec walk_files dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun entry ->
         let path = Filename.concat dir entry in
         if Sys.is_directory path then walk_files path else [ path ])

let ext = function Corpus.Python -> ".py" | Corpus.Java -> ".java"

(* One shard key for the whole directory, as `namer train DIR` and
   `namer scan DIR` build their references. *)
let collect_refs lang dir =
  walk_files dir
  |> List.filter (fun p -> Filename.check_suffix p (ext lang))
  |> List.map (fun path -> Namer.ref_of_path ~repo:dir ~path ~file:path)

(* The CLI's training config for a directory: no commit history, no
   labels, thresholds scaled to the corpus size. *)
let self_mining_config ~n_files ~jobs =
  {
    Namer.default_config with
    Namer.use_classifier = false;
    jobs;
    miner =
      {
        Miner.default_config with
        min_support = max 5 (n_files / 20);
        min_path_freq = max 3 (n_files / 50);
      };
  }

let hex s = Digest.to_hex (Digest.string s)

(* The pattern set of a store, independent of pattern ids and order. *)
let patterns_digest store =
  Pattern.Store.fold (fun acc p -> Pattern.canonical p :: acc) store []
  |> List.sort compare |> String.concat "\n" |> hex

type report = {
  file : string;
  line : int;
  prefix : string;
  found : string;
  suggested : string;
  kind : string;
}

(* Reports in the order [Namer.scan_refs] returns them. *)
let sort_reports rs =
  List.sort
    (fun a b ->
      compare
        (a.file, a.line, a.prefix, a.suggested, a.found, a.kind)
        (b.file, b.line, b.prefix, b.suggested, b.found, b.kind))
    rs

let reports_digest rs =
  rs
  |> List.map (fun r ->
         String.concat "\t"
           [ r.file; string_of_int r.line; r.prefix; r.found; r.suggested; r.kind ])
  |> String.concat "\n" |> hex

let of_scan_result (r : Namer.scan_result) =
  Array.to_list r.Namer.sr_reports
  |> List.map (fun (x : Namer.report) ->
         {
           file = x.Namer.r_file;
           line = x.Namer.r_line;
           prefix = x.Namer.r_prefix;
           found = x.Namer.r_found;
           suggested = x.Namer.r_suggested;
           kind = x.Namer.r_kind;
         })

(* Peak resident set of this process, from the kernel. *)
let vm_hwm_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> 0
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Fun.id
        | _ -> go ()
      in
      Fun.protect ~finally:(fun () -> close_in_noerr ic) go

(* The interner and the peak heap last as long as the process: every
   measured operation must find them untouched. *)
let assert_cold () =
  if Interned.n_ends () <> 0 then begin
    prerr_endline "perfbench: the name-path interner is not empty before the first timed call";
    exit 3
  end

let emit fields = print_endline (J.to_string (J.Obj fields))
let ms dt = J.Float (dt *. 1e3)

(* The wall-clock start and end of a window, for the harness to net the
   time the hypervisor stole in it out of its duration. *)
let instants t0 t1 = J.List [ J.Float t0; J.Float t1 ]
