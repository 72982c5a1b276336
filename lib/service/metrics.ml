type counter = { mutable ok : int; mutable err : int; latency : Aa_obs.Histogram.t }

type t = {
  kinds : (string, counter) Hashtbl.t;
  overall : Aa_obs.Histogram.t;
  mutable total_ok : int;
  mutable total_err : int;
  mutable last_gap : float option;
}

let create () =
  {
    kinds = Hashtbl.create 16;
    overall = Aa_obs.Histogram.create ();
    total_ok = 0;
    total_err = 0;
    last_gap = None;
  }

let counter t kind =
  match Hashtbl.find_opt t.kinds kind with
  | Some c -> c
  | None ->
      let c = { ok = 0; err = 0; latency = Aa_obs.Histogram.create () } in
      Hashtbl.add t.kinds kind c;
      c

let record t ~kind ~ok ~latency =
  let c = counter t kind in
  if ok then begin
    c.ok <- c.ok + 1;
    t.total_ok <- t.total_ok + 1
  end
  else begin
    c.err <- c.err + 1;
    t.total_err <- t.total_err + 1
  end;
  Aa_obs.Histogram.add c.latency latency;
  Aa_obs.Histogram.add t.overall latency

let note_gap t gap = t.last_gap <- Some gap
let requests t = t.total_ok + t.total_err

let seconds x = Printf.sprintf "%.3e" x

let quantiles prefix h =
  [
    (prefix ^ "p50", seconds (Aa_obs.Histogram.quantile h 0.50));
    (prefix ^ "p95", seconds (Aa_obs.Histogram.quantile h 0.95));
    (prefix ^ "p99", seconds (Aa_obs.Histogram.quantile h 0.99));
  ]

let report t =
  let totals =
    [
      ("requests", string_of_int (requests t));
      ("ok", string_of_int t.total_ok);
      ("err", string_of_int t.total_err);
    ]
    @ quantiles "" t.overall
  in
  let gap =
    match t.last_gap with
    | None -> []
    | Some g -> [ ("rebalance.gap", Printf.sprintf "%.6f" g) ]
  in
  let per_kind =
    Hashtbl.fold (fun k c acc -> (k, c) :: acc) t.kinds []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.concat_map (fun (k, c) ->
           [ (k ^ ".ok", string_of_int c.ok); (k ^ ".err", string_of_int c.err) ]
           @ quantiles (k ^ ".") c.latency)
  in
  totals @ gap @ per_kind
