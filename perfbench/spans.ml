(* Spans recorded by the benchmark around single calls into a layer.

   The traced replay calls each layer's public function one after another,
   never nested, so a span's self time is its whole duration.  Spans are
   aggregated by name in memory: total wall seconds, words allocated on
   the calling domain and the number of calls. *)

type acc = { mutable wall_s : float; mutable words : float; mutable calls : int }

let table : (string, acc) Hashtbl.t = Hashtbl.create 32

let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let find name =
  match Hashtbl.find_opt table name with
  | Some a -> a
  | None ->
      let a = { wall_s = 0.0; words = 0.0; calls = 0 } in
      Hashtbl.add table name a;
      a

let span name f =
  let w0 = alloc_words () and t0 = Unix.gettimeofday () in
  let r = f () in
  let t1 = Unix.gettimeofday () and w1 = alloc_words () in
  let a = find name in
  a.wall_s <- a.wall_s +. (t1 -. t0);
  a.words <- a.words +. (w1 -. w0);
  a.calls <- a.calls + 1;
  r

let self_ms name = match Hashtbl.find_opt table name with Some a -> a.wall_s *. 1e3 | None -> 0.0

let alloc_kb name =
  match Hashtbl.find_opt table name with
  | Some a -> a.words *. float_of_int (Sys.word_size / 8) /. 1024.0
  | None -> 0.0

let total_self_ms () = Hashtbl.fold (fun _ a acc -> acc +. (a.wall_s *. 1e3)) table 0.0
