(** Deterministic contiguous sharding — see the interface for the
    contract the parallel merge relies on. *)

let oversubscribe ~jobs = 4 * max 1 jobs

let chunks ~size xs =
  let size = max 1 size in
  let rec take k acc = function
    | rest when k = 0 -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | x :: rest -> take (k - 1) (x :: acc) rest
  in
  let rec go acc = function
    | [] -> List.rev acc
    | xs ->
        let chunk, rest = take size [] xs in
        go (chunk :: acc) rest
  in
  go [] xs

let contiguous ~shards xs =
  let shards = max 1 shards in
  chunks ~size:((List.length xs + shards - 1) / shards) xs
