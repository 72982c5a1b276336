(** Socket front end of the allocation daemon: a Unix-domain or TCP
    accept loop feeding per-connection reader/writer threads around an
    {!Aa_service.Shard.t}.

    Each connection gets one reader thread (parses lines with {!Frame},
    posts them to the shard dispatch without blocking) and one writer
    thread (awaits the tickets in arrival order and sends the replies),
    so a single pipelining client — or many concurrent ones — keeps the
    shard queues deep enough for group commit to amortize fsyncs, while
    responses still return in per-connection request order.

    A {!Aa_service.Shard.Crashed} outcome (an armed crash failpoint
    fired) closes the client's connection with the ack withheld — what
    a real process death looks like from outside — and invokes
    [on_crash], which [aa_serve] uses to exit with the injected-crash
    status (70).

    {b Ops surface.} The same port speaks just enough HTTP for
    scrapers: a raw first line starting with ["GET "] (impossible as a
    protocol line — verbs never parse as that token sequence) switches
    the connection into one-shot HTTP mode. [GET /metrics] answers the
    Prometheus exposition ({!Aa_obs.Registry.expose}), [GET /healthz] a
    liveness JSON (503 when crashed or degraded; per-shard active
    counts, degraded flags and journal lag), [GET /tracez] the
    slow-request text tree ({!Aa_obs.Rctx.slow_text}); anything else is
    404. One request per connection, [Connection: close].

    {b Request contexts.} When {!Aa_obs.Rctx.enabled}, every posted
    line carries a context tagged with this connection's id; the writer
    thread acks it ({!Aa_service.Shard.ack}) after sending the reply
    (outcome ["ok"],
    ["err:<code>"], ["dropped"] or ["crashed"]) and appends one
    {!Aa_service.Access_log} record per acked request when the listener
    was given a log. *)

type t

val parse_addr : string -> (Unix.sockaddr, string) result
(** ["unix:PATH"], ["HOST:PORT"] or [":PORT"] (loopback). Numeric IPs
    resolve without DNS; port [0] binds an ephemeral port (read it back
    with {!sockaddr}). *)

val serve :
  ?backlog:int ->
  ?on_crash:(string -> unit) ->
  ?access_log:Aa_service.Access_log.t ->
  addr:Unix.sockaddr ->
  Aa_service.Shard.t ->
  (t, string) result
(** Bind, listen and start the accept thread. A stale unix-domain
    socket file at the path is unlinked first; TCP sockets get
    [SO_REUSEADDR]. [SIGPIPE] is ignored process-wide (a disconnecting
    client must surface as [EPIPE], not kill the daemon). [access_log]
    receives one record per acked request (writer-thread side). *)

val sockaddr : t -> Unix.sockaddr
(** The bound address — the actual port when [serve] was given port 0. *)

val stop : t -> unit
(** Close the listening socket (the accept thread exits), unlink a
    unix-domain socket path, and join the accept thread. Established
    connections finish independently; the caller shuts the shard down
    after its clients are done. *)
