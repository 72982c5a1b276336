(** Wire protocol of the [aa_serve] allocation daemon.

    Line-oriented, UTF-8-free, human-typeable: one request per line, one
    response line per request (blank and [#]-comment lines are skipped
    by the session loop and get no response). Utility specs reuse the
    [thread] grammar of instance files
    ({!Aa_io.Format_text.parse_thread_spec}).

    Requests:
    {v
    ADMIT <utility-spec>        place a new thread (greedy, no migration)
    DEPART <id>                 remove a thread, free its resources
    UPDATE <id> <utility-spec>  replace a thread's utility in place
    QUERY <id>                  a thread's server, allocation and value
    STATS                       operational counters and latency quantiles
    SNAPSHOT                    compact the journal to current state
    REBALANCE                   offline Algorithm 2 re-solve of the active
                                set; reports the online/offline gap
    TRACE                       dump the in-process span buffer as one
                                line of Chrome trace JSON (empty when
                                tracing is off); slow-request captures
                                are spliced in when armed
    SLOW                        dump the slow-request keep-list as one
                                line of JSON (empty when --slow-ms is
                                not armed)
    v}

    Responses are a single [OK …] or [ERR <code> <message>] line; see
    [doc/service-protocol.md] for the full grammar. Malformed input
    parses to a ready-to-send [Err] response — it can never raise. *)

type request =
  | Admit of Aa_io.Format_text.spec
      (** the parsed utility and the spec text it came from: the journal
          writes that text as is, so replay parses the bytes this
          request parsed *)
  | Depart of int
  | Update of int * Aa_io.Format_text.spec
  | Query of int
  | Stats
  | Snapshot
  | Rebalance
  | Trace
  | Slow

type error_code =
  | Bad_request  (** unknown verb or malformed arguments *)
  | Bad_spec  (** utility spec rejected (grammar, concavity, domain cap) *)
  | No_thread  (** id never admitted, or already departed *)
  | Journal_failed  (** the write-ahead journal could not be written *)
  | Degraded
      (** the engine is in degraded read-only mode after exhausting its
          journal-append retries; mutations are rejected without being
          attempted until a successful SNAPSHOT compaction heals the
          journal (QUERY/STATS/REBALANCE/TRACE still work) *)

type response =
  | Admitted of { id : int; server : int }
  | Departed of { id : int }
  | Updated of { id : int; server : int }
  | Thread_info of {
      id : int;
      server : int;
      alloc : float;
      value : float;
      active : bool;
    }
  | Stats_report of (string * string) list  (** ordered [key=value] pairs *)
  | Snapshot_done of {
      active : int;
      admitted : int;
      utility : float;
      compacted : bool;  (** false when the engine has no journal *)
    }
  | Rebalance_report of { online : float; offline : float; gap : float }
  | Trace_dump of { events : int; json : string }
      (** [json] is a compact (single-line) Chrome trace array; [events]
          counts its entries, [0] with an empty [[]] array when tracing
          is disabled *)
  | Slow_dump of { count : int; json : string }
      (** [json] is the compact {!Aa_obs.Rctx.slow_json} array of kept
          slow requests, most recent first; [count] its length ([0] and
          [[]] when slow capture is disarmed or nothing crossed the
          threshold) *)
  | Err of { code : error_code; message : string }

val tokens : string -> string list
(** Whitespace-split with [#]-to-end-of-line comments removed — the
    lexical layer shared by requests and journal lines
    ({!Aa_io.Format_text.tokens}). *)

val parse_tokens : cap:float -> string list -> (request, response) result
(** Parse a request line already cut by {!tokens}, so a caller that
    tokenized it (to skip blank lines) does not tokenize it twice. An
    empty list is a [bad-request] error. *)

val parse_request : cap:float -> string -> (request, response) result
(** [parse_tokens ~cap (tokens line)]. [cap] is the server capacity,
    used as the domain cap of smooth utility specs. The error branch is
    always an {!Err} response, ready to print. *)

val print_request : request -> string
(** Wire form: ADMIT and UPDATE carry their spec's [text] as it was
    parsed (or as {!Aa_io.Format_text.spec_of_utility} printed it), not
    a re-print of the utility; [parse_request] inverts it. *)

val print_response : response -> string
(** One line, newline-free (embedded newlines in error messages are
    flattened to spaces). *)

val code_name : error_code -> string
