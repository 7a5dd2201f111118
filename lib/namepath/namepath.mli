(** Name paths (Definition 3.2) — the program abstraction for one
    identifier-name usage — and their relational operators (Definition 3.4).

    See the implementation comments for the extraction invariants (§3.1 of
    the paper): extracted paths are concrete and have pairwise-distinct
    prefixes. *)

(** One step of a prefix: a non-terminal's value and the index of the child
    taken. *)
type step = { value : string; index : int }

type t = {
  prefix : step list;  (** S — the root-to-parent steps *)
  end_node : string option;  (** the terminal subtoken; [None] is ϵ *)
}

(** Whether the end node is the symbolic ϵ. *)
val is_symbolic : t -> bool

(** [same_prefix a b] is the paper's [a ∼ b]: equal prefixes. *)
val same_prefix : t -> t -> bool

(** [equal a b] is the paper's [a = b]: equal prefixes, and equal end nodes
    or either ϵ. *)
val equal : t -> t -> bool

(** Forget the end node (make the path symbolic). *)
val to_symbolic : t -> t

(** Canonical text of the prefix alone — the interning key used by the
    pattern store's index. *)
val prefix_key : t -> string

(** Canonical text of the whole path, e.g.
    ["NumArgs(2) 0 Call 0 … NumST(2) 1 TestCase 0 True"]; ϵ renders as
    ["ϵ"]. *)
val to_string : t -> string

val pp : Format.formatter -> t -> unit

(** Ordering by canonical text — the [sort] of Algorithm 1, line 7. *)
val compare_canonical : t -> t -> int

(** [extract ?limit t] enumerates the concrete name paths of AST+ [t] in
    leaf order, keeping at most [limit] (default 10, the paper's
    regularization) and the first path per distinct prefix. *)
val extract : ?limit:int -> Namer_tree.Tree.t -> t list

(** Inverse of {!to_string}.  @raise Invalid_argument on malformed input. *)
val of_string : string -> t

(** Hash-consed name paths: canonical texts, prefixes and end subtokens
    become dense integer ids, rendered exactly once at extraction time, so
    the mining/scan hot loops compare, hash and sort machine integers.

    Interning normally targets the implicit {!Interned.global} table.  The
    multicore contract: populate it sequentially — a training digest
    interns into {!Interned.create_table} shard-local tables instead, and
    reaches the global table only through a partial model's vocabulary
    replay, which reproduces the sequential id assignment exactly — then
    {!Interned.freeze} before domains fan out; a frozen table is read-only
    and safe to share.  A scan only looks the global table up
    ({!Interned.scan_tree}) and gives names the model never saw ids in a
    per-shard {!Interned.overlay}, so scans never write it.  Strings
    survive only at the serialization boundary ({!of_string}/{!to_string},
    pattern persistence, report rendering). *)
module Interned : sig
  type path := t

  type t = {
    np : path;  (** the underlying name path *)
    pid : int;  (** id of the whole canonical text *)
    prefix : int;  (** id of the prefix text — the memoized prefix key *)
    end_ : int;  (** id of the end subtoken; [-1] is ϵ *)
    sym : int;  (** pid of the symbolic form (= [pid] when already ϵ) *)
  }

  (** One id space: interners for whole paths / prefixes / ends plus the
      derived lowercase-fold, path-of-pid and canonical-rank maps. *)
  type table

  val create_table : unit -> table
  val global : table

  (** Intern one path ([table] defaults to {!global}), rendering its texts
      exactly once.  @raise Invalid_argument on a frozen table when new. *)
  val of_path : ?table:table -> path -> t

  val of_paths : ?table:table -> path list -> t list

  (** Fused extract-and-intern: semantically
      [of_paths ?table (extract ?limit tree)] with bit-identical id
      assignment, but each prefix text rendered once, incrementally — the
      digest hot path. *)
  val extract_tree : ?table:table -> ?limit:int -> Namer_tree.Tree.t -> t list

  (** A scan's private end vocabulary: ids for ends the model has never
      seen, numbered past the global range, with their own lowercase-fold
      map.  Made per scan shard and dropped with it, so scans never grow
      the global table. *)
  type overlay

  (** The shared empty overlay that globally interned digests carry. *)
  val no_overlay : overlay

  (** A fresh overlay over the current global vocabulary (valid while the
      global end table does not grow). *)
  val overlay : unit -> overlay

  (** Lookup-only extraction against the global (model) vocabulary: the
      paths of {!extract_tree}, nothing interned.  An unknown prefix is the
      never-matching [-2]; an unknown end gets an id in the overlay; [pid]
      and [sym] are [-2] (matching never reads them). *)
  val scan_tree : overlay -> ?limit:int -> Namer_tree.Tree.t -> t list

  (** {!end_name} and {!lower_end} for a digest carrying the overlay: ids
      below its range resolve in the global table, the rest in the
      overlay. *)
  val end_name_in : overlay -> int -> string

  val lower_end_in : overlay -> int -> int

  (** Global-table ids for pattern compilation: intern when unfrozen; when
      frozen, unknown strings map to the never-matching sentinel [-2]. *)
  val prefix_id : path -> int

  val path_id : path -> int
  val end_id : string -> int

  (** String views (global table).  @raise Invalid_argument on unknown ids. *)
  val end_name : int -> string

  val prefix_name : int -> string
  val lookup_end : string -> int option
  val n_ends : unit -> int

  (** Lowercase-folded end id — consistency checks are case-insensitive. *)
  val lower_end : int -> int

  (** The name path behind a global path id. *)
  val path_of_pid : int -> path

  (** Freeze the global table read-only and precompute canonical-text ranks
      so {!compare_rank} is an integer comparison.  Pair with {!thaw}. *)
  val freeze : unit -> unit

  val thaw : unit -> unit
  val is_frozen : unit -> bool

  (** Canonical-text order ({!compare_canonical}) on interned paths; rank
      ints when frozen, text otherwise — identical sort either way. *)
  val compare_rank : t -> t -> int

  (** Same order on bare global path ids. *)
  val compare_pids : int -> int -> int

  (** Global prefix and end vocabularies in id order, for model snapshots
      (whole-path ids are per-scan digest state and are not exported). *)
  val export_global : unit -> string list * string list

  (** Re-populate the global table from a snapshot in saved id order —
      exact id (and lowercase-fold) reproduction on an empty table, a
      harmless merge otherwise.  @raise Invalid_argument when frozen. *)
  val preload_global : prefixes:string list -> ends:string list -> unit
end

(** Alias for {!Interned.extract_tree}. *)
val extract_interned :
  ?table:Interned.table -> ?limit:int -> Namer_tree.Tree.t -> Interned.t list
