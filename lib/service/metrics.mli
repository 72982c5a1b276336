(** The allocation daemon's request book: request counters by type and
    outcome, per-type latency histograms with p50/p95/p99, and the
    latest REBALANCE utility gap. Everything is O(1) per request —
    latencies go into {!Aa_obs.Histogram}'s fixed log-scale buckets (20
    per decade from 1 ns), so quantiles carry ~±6% relative bucketing
    error, plenty for an operational view. {!Shard} keeps the one book
    a daemon has; surfaced through the STATS request. *)

type t

val create : unit -> t

val record : t -> kind:string -> ok:bool -> latency:float -> unit
(** Count one request of the given kind (e.g. ["admit"], ["malformed"])
    with its outcome and wall-clock latency in seconds. *)

val note_gap : t -> float -> unit
(** Remember the online/offline ratio reported by the latest REBALANCE. *)

val requests : t -> int
(** Total requests recorded. *)

val report : t -> (string * string) list
(** Stable, ordered key/value dump: totals ([requests], [ok], [err]),
    overall [p50]/[p95]/[p99] (seconds), [rebalance.gap] when one was
    measured, then per-kind [<kind>.ok], [<kind>.err], [<kind>.p50/95/99]
    in kind order. *)
