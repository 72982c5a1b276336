(** Append-only write-ahead journal of the allocation daemon.

    A journal is a text file: one header line
    [aa-journal 2 servers <m> capacity <C>] followed by one framed
    entry per line. Mutations are logged {e before} they are applied,
    so a crash between the append and the in-memory commit replays at
    most the request that was being processed. Replaying every entry
    through {!Engine.apply} reconstructs the engine state exactly — the
    [place] entries written by compaction record each thread's
    historical server, so greedy placement decisions survive.

    Framing (format version 2): every entry line is
    [<len> <crc32> <payload>], where [len] is the payload's byte length
    and [crc32] its IEEE CRC-32 in lowercase hex ({!Crc32}). A torn
    final line cannot masquerade as a shorter valid entry (the v1
    hazard: [depart 12] losing its last byte reads as [depart 1]) —
    both checks must pass before the payload is even parsed. Version 1
    journals (unframed payload lines) are still read; the first
    {!append_to} rewrite upgrades them to version 2 on disk.

    Entry payload grammar (utility specs as in instance files):
    {v
    admit <utility-spec>
    depart <id>
    update <id> <utility-spec>
    place <id> <server> (active|departed) <utility-spec>
    v}

    [place] lines only appear as the snapshot prefix written by
    {!compact}; ids must then be consecutive from 0.

    Each [<utility-spec>] is the {!Aa_io.Format_text.spec} text the
    entry carries, written verbatim: for a wire request that is the
    request's spec tokens joined by single spaces, and a SNAPSHOT writes
    back the text each thread's current utility was parsed from. No
    utility is re-printed, and replay parses exactly the bytes the live
    request parsed, so replayed state equals live state by
    construction. Journals written by older builds, which re-printed
    every utility with [%.17g], replay to the same state: parsing that
    print gives back the parsed utility bit for bit.

    Durability is line-grained: every {!append} flushes, and the
    {!fsync_policy} chosen at open decides how often the OS is told to
    reach the platter. A final line torn by a crash mid-write (no
    trailing newline, failing its frame checks) is dropped on {!load};
    {!append_to} rewrites the file from the recovered entries
    (atomically, via a temp file, fsync and rename) so the torn bytes
    cannot corrupt later appends. A failed in-process append likewise
    marks the tail dirty, and the next successful append first
    truncates back to the last durable offset — a retry can never
    concatenate onto a torn fragment.

    Group commit: between {!begin_group} and {!commit_group}, appends
    accumulate framed lines in memory; the commit lands the whole batch
    as one write and (policy permitting) one fsync — amortizing the
    [Always] fsync cost across every mutation in the batch. The caller
    must withhold acknowledgements until [commit_group] returns [Ok]:
    that single fsync is the durability barrier for the batch. A crash
    inside the commit window leaves either a prefix of the batch's
    complete lines (the torn final line is dropped on load) or the whole
    batch — never an acked-but-absent entry, because nothing was acked.

    Fault injection: the failpoints [journal.sys], [journal.append],
    [journal.append.torn], [journal.rewrite] and [journal.compact]
    ({!Aa_fault.Failpoint}) are compiled into the corresponding
    operations as injected errors; [journal.group.append] and
    [journal.group.fsync] are {e crash}-style points inside the
    group-commit window (the batch write torn in half / the process
    dying after the write, before the fsync); see
    doc/fault-injection.md. *)

type t

type entry =
  | Admit of Aa_io.Format_text.spec
  | Depart of int
  | Update of int * Aa_io.Format_text.spec
  | Place of { id : int; server : int; active : bool; spec : Aa_io.Format_text.spec }
(** Each spec carries the utility and the text it was parsed from; the
    text is what gets written. *)

type header = { servers : int; capacity : float }

type fsync_policy =
  | Always  (** fsync after every append and around every rewrite. *)
  | Interval of float
      (** fsync at most once per the given number of seconds; a crash
          can lose up to one interval of acknowledged mutations. *)
  | Never  (** flush to the OS only; survives process death, not power loss. *)

val create :
  ?fsync:fsync_policy ->
  path:string ->
  servers:int ->
  capacity:float ->
  unit ->
  (t, string) result
(** Create the journal file and write the header ([fsync] defaults to
    [Always]). Refuses to overwrite an existing non-empty journal —
    recovery must be explicit ({!append_to} / [--replay]); an existing
    {e empty} file (e.g. a fresh [Filename.temp_file]) is initialized
    in place. *)

val load : path:string -> (header * entry list, string) result
(** Read and parse the whole journal (either format version). Fails on
    a missing file, a bad header, or a malformed entry — except a torn
    final line (see above), which is silently dropped. *)

val load_versioned : path:string -> (int * header * entry list, string) result
(** {!load}, also reporting the on-disk format version (1 or 2). *)

val append_to :
  ?fsync:fsync_policy -> path:string -> unit -> (t * entry list, string) result
(** [load], then atomically rewrite the recovered state (in v2 framing)
    and reopen for appending: the crash-recovery open. *)

val append : t -> entry -> (unit, string) result
(** Frame and write one entry, flush, and fsync per policy. Repairs a
    dirty tail left by a previously failed append first. Inside an open
    group (see {!begin_group}) the entry is only buffered; it becomes
    durable at {!commit_group}. *)

val begin_group : t -> (unit, string) result
(** Open a group-commit batch: subsequent {!append}s buffer in memory.
    Repairs a dirty tail first. Fails if a group is already open. *)

val commit_group : t -> (int, string) result
(** Write the whole open batch as one append + flush + (policy) single
    fsync; returns the committed byte count (0 for an empty batch —
    no I/O). The batch's entries are not durable before this returns
    [Ok], so acks for them must be withheld until then. On [Error] the
    batch is discarded and the tail marked for repair. *)

val in_group : t -> bool
(** Whether a group-commit batch is currently open. *)

val compact : t -> entry list -> (unit, string) result
(** Atomically replace the journal's contents with the given entries
    (normally {!Engine.snapshot_entries}, a [place]-per-thread state
    dump), keeping the same header. The handle stays open for appending
    the mutations that follow. On failure the handle reattaches to the
    surviving file, so append capability is never lost — the journal
    then still holds the full pre-compaction history. *)

val header : t -> header
val path : t -> string
val fsync_policy : t -> fsync_policy

val fsyncs : t -> int
(** Data-file fsync syscalls issued through this handle since it was
    opened — the denominator of the group-commit amortization claim
    (requests per fsync). *)

val bytes : t -> int
(** Byte offset just past the last durable entry — the journal's
    durable size, exported as the [shard.N.journal_bytes] gauge. *)

val pending_bytes : t -> int
(** Bytes buffered in the open group-commit batch, not yet durable —
    the per-shard journal lag the /healthz ops endpoint reports. 0 when
    no group is open. *)

val close : t -> unit

val print_entry : entry -> string
(** The unframed payload text of an entry: a short prefix ([admit ],
    [update <id> ], ...) joined to the spec text; nothing is printed
    from the utility. *)

val frame_entry : entry -> string
(** The full v2 line for an entry: [<len> <crc32> <payload>]. *)

val parse_entry : cap:float -> string -> (entry option, string) result
(** Parse an unframed payload, tokenizing it once. [Ok None] for blank
    or comment lines. *)

val fsync_of_string : string -> (fsync_policy, string) result
(** ["always"], ["interval"] (0.1 s) or ["never"] — the [--fsync]
    grammar of [aa_serve]. *)

val fsync_to_string : fsync_policy -> string
