(** String interning: a bijection between strings and dense integer ids
    (first-seen order, starting at 0).  Explicit values — no global state.

    Interners can be {!freeze}-frozen into read-only lookup tables, the
    multicore contract of the hash-consed pipeline (one domain populates,
    freezes, read-only shards fan out), and {!remap}-merged (one interner's
    strings folded into another in first-seen order). *)

type t

val create : ?size:int -> unit -> t

(** Id of [s], allocating if new.
    @raise Invalid_argument if [s] is unknown and the interner is frozen. *)
val intern : t -> string -> int

(** Id of [s] if already interned.  Read-only — safe concurrently on a
    frozen interner. *)
val lookup : t -> string -> int option

(** String for [id].  @raise Invalid_argument for unknown ids. *)
val name : t -> int -> string

val size : t -> int

(** Make the interner read-only: {!intern} of unknown strings raises until
    {!thaw}.  Idempotent; ids survive freeze/thaw cycles unchanged. *)
val freeze : t -> unit

val thaw : t -> unit
val is_frozen : t -> bool

(** [iter f t] applies [f id name] in first-seen id order. *)
val iter : (int -> string -> unit) -> t -> unit

(** [remap ~into t] interns [t]'s strings into [into] in [t]'s id order and
    returns the id translation array: [name into m.(id) = name t id]. *)
val remap : into:t -> t -> int array
