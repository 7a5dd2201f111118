(** Partial models — the mergeable training state of one corpus slice, and
    the merge algebra over them.

    A partial is a versioned, checksummed snapshot ([NAMERPRT]) carrying a
    slice's whole-path vocabulary (first-seen order), its digested
    statements as vocab-index arrays, its file list and skipped files, and
    its unpruned confusing-pair tallies.  {!merge} combines two partials
    covering disjoint slices into the partial of their concatenation —
    closed and associative, with {!empty} as identity.  Every training
    run is such a merge: a digest packages each shard as a partial and
    folds them with {!merge_all}, and a model is always the finalize of a
    partial, so [train(A+B) ≡ merge(train A, train B)] holds by
    construction (DESIGN.md §13; property-tested in
    [test/test_partial_model.ml]).

    This module owns the representation and the algebra; digesting a corpus
    slice into a partial and finalizing a partial into a scan model live in
    [Namer_core.Namer.Partial], which has the pipeline. *)

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
      (** distinct whole-path canonical texts, first-seen statement order;
          replaying them through the interner in this order reproduces the
          id assignment of a sequential digest of the same statements *)
  pm_files : (string * string) array;  (** (repo, path), corpus order *)
  pm_stmts : pstmt array;  (** corpus order; [ps_file] indexes [pm_files] *)
  pm_skipped : (int * string) array;  (** (file index, reason) *)
  pm_pairs : ((string * string) * int) list;
      (** unpruned commit-pair tallies, sorted by pair — pruning and the
          builtin-catalog fallback happen at finalize time, never per slice *)
  pm_n_commits : int;  (** commits the tallies were mined from *)
}

exception Merge_error of string
(** Incompatible or overlapping operands: different languages, different
    digest-shaping config, or a shared file (which rejects re-merging a
    slice — the tallies would double-count). *)

val empty : t
(** The identity element: [merge empty p == p == merge p empty]. *)

val is_empty : t -> bool

val n_files : t -> int
val n_stmts : t -> int
val n_repos : t -> int

val merge : t -> t -> t
(** [merge a b] is the partial of slice [a] followed by slice [b]:
    vocabularies merge in first-seen order, statements and files
    concatenate with reindexing, pair tallies sum.  Associative;
    commutative up to statement order (finalized scan reports are
    order-insensitive).  [merge a b = merge_all [a; b]].
    @raise Merge_error on incompatible or overlapping operands. *)

val merge_all : t list -> t
(** The partial of the slices in list order ({!empty} for [[]]): equal,
    byte for byte, to the left fold of {!merge}, but one pass with one
    running vocabulary — linear in the total vocabulary, however many
    partials are folded. *)

val partial_magic : string
val partial_version : int

val encode : t -> string * string
(** [(bytes, hash)] — the snapshot bytes and their checksum identity. *)

val decode : ?path:string -> string -> t * string
(** Inverse of {!encode}, with full validation (indices in range).
    @raise Snapshot.Error naming the failing section on malformed input. *)

val save : t -> path:string -> string
(** Atomic write; returns the partial's hash. *)

val load : path:string -> t * string
(** @raise Snapshot.Error on unreadable or malformed files. *)
