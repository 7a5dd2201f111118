(** Mergeable (monoid-style) accumulators for the sharded pipeline.

    A pipeline stage parallelizes by giving every shard its own fresh
    accumulator ([empty]), folding the shard into it on a worker domain,
    and then folding the per-shard accumulators into one ([merge]) on the
    submitting domain *in shard order*.  When [merge] is commutative and
    associative over the accumulated payload (integer sums, set unions —
    everything the pipeline accumulates), the result is independent of both
    the shard plan and the execution schedule, which is the determinism
    contract of {!Namer_parallel.Shard}. *)

module type MERGEABLE = sig
  type t

  val empty : unit -> t

  (** [merge ~into x] folds [x] into [into]; [x] must not be used after. *)
  val merge : into:t -> t -> unit
end

(** [sharded_map ?pool ~shards f xs] applies [f] to every contiguous
    shard of [xs] — on the pool's domains when [pool] is [Some], inline
    otherwise — and returns the per-shard results in shard order.

    Self-healing: a shard whose pool task failed (poisoned task, injected
    fault) is recomputed inline on the submitting domain — counted as
    [pool.shard_retries] — so one bad task degrades to a retry, not an
    aborted stage.  A shard that also fails inline propagates its
    exception: that is a deterministic bug in [f], not a transient. *)
val sharded_map :
  ?pool:Pool.t ->
  shards:int ->
  ('a list -> 'b) ->
  'a list ->
  'b list

(** [sharded_concat_map] — like {!sharded_map}, flattening in shard order,
    so the output order equals the sequential [List.concat_map]. *)
val sharded_concat_map :
  ?pool:Pool.t ->
  shards:int ->
  ('a list -> 'b list) ->
  'a list ->
  'b list

(** [sharded_reduce (module M) ?pool ~shards f xs] maps every shard to
    an [M.t] and merges them into one accumulator in shard order. *)
val sharded_reduce :
  (module MERGEABLE with type t = 'acc) ->
  ?pool:Pool.t ->
  shards:int ->
  ('a list -> 'acc) ->
  'a list ->
  'acc
