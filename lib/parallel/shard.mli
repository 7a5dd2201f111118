(** Deterministic corpus sharding.

    A shard plan is a *pure function* of the input list and the requested
    shard count — never of timing, domain count or scheduling — and every
    plan is contiguous: concatenating the shards in index order
    reconstructs the input exactly.  Those two properties are what let the
    parallel pipeline merge per-shard results in shard order and produce
    output bit-identical to the sequential run (the [--jobs 1] /
    [--jobs N] byte-equality guarantee). *)

(** [contiguous ~shards xs] splits [xs] into at most [shards] contiguous
    chunks of near-equal length.  Empty shards are dropped;
    [List.concat (contiguous ~shards xs) = xs]. *)
val contiguous : shards:int -> 'a list -> 'a list list

(** [chunks ~size xs] splits [xs] into consecutive slices of [size]
    ([>= 1]) elements, the last one possibly shorter — the streaming
    batch plan.  [List.concat (chunks ~size xs) = xs]; first-seen order
    over the concatenation of the slices is first-seen order over [xs]. *)
val chunks : size:int -> 'a list -> 'a list list

(** Shard count heuristic: [oversubscribe ~jobs] = [4 × jobs], enough
    slack for the work-stealing pool to rebalance uneven shards. *)
val oversubscribe : jobs:int -> int
