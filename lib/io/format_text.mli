(** Plain-text serialization of AA instances and solutions.

    Instance format (line-oriented; [#] starts a comment):
    {v
    servers 4
    capacity 8.0
    thread plc 0 0 2.5 1 8 1.5      # breakpoints: x y pairs
    thread power 4.0 0.5            # coeff beta
    thread log 3.0 1.0              # coeff rate
    thread saturating 8.0 2.0       # limit halfway
    thread expsat 8.0 0.5           # limit rate
    thread capped 1.5 6.0           # slope knee
    thread linear 0.8               # slope
    v}

    Solution format: one [assign <thread> <server> <alloc>] line per
    thread.

    Smooth utilities print as their closed-form spec, so instances
    written by {!print_instance} round-trip exactly. *)

val parse_instance : string -> (Aa_core.Instance.t, string) result
(** Parse the text of an instance file. Errors carry a line number. *)

val parse_thread_spec :
  cap:float -> string -> (Aa_utility.Utility.t, string) result
(** Parse one utility spec — the part of a [thread] line after the
    keyword, e.g. ["power 4.0 0.5"] or ["plc 0 0 2.5 1 8 1.5"]. [cap]
    is the domain cap used for the smooth shapes; a [plc] spec carries
    its own cap in the breakpoints (callers enforcing a fixed capacity
    must check {!Aa_utility.Utility.cap} on the result). Whitespace and
    [#] comments are tolerated, as in instance files. This is the
    grammar the aa_serve wire protocol embeds in ADMIT / UPDATE. *)

val tokens : string -> string list
(** The lexical layer of every line-oriented format here (instance
    files, the service wire protocol and its journal): the line up to
    the first [#] split on spaces and tabs, empty tokens dropped. *)

(** A utility together with the spec text it was parsed from. The
    service journals and snapshots [text] verbatim, so a replay parses
    exactly the bytes the live request parsed. *)
type spec = { text : string; utility : Aa_utility.Utility.t }

val parse_spec : cap:float -> string list -> (spec, string) result
(** {!parse_thread_spec} over a line already cut by {!tokens}. [text]
    is the tokens joined by single spaces — no [#] comment, tab or
    repeated space survives in it — and parses back to the same
    utility. *)

val spec_of_utility : Aa_utility.Utility.t -> spec
(** A spec for a utility built in code: [text] is
    {!print_thread_spec}'s rendering. Each call prints, so hot paths
    should carry the text they parsed instead. *)

val print_thread_spec : Aa_utility.Utility.t -> string
(** Render one utility as a spec string (no [thread] keyword, no
    newline) that {!parse_thread_spec} reparses exactly: smooth shapes
    built by {!Aa_utility.Utility.Shapes} print their constructor with
    [%.17g] parameters, everything else prints PLC breakpoints. *)

val print_instance : Aa_core.Instance.t -> string
(** Render an instance in the format above. PLC utilities print their
    breakpoints; smooth shapes print their constructor when the utility
    was built by {!Aa_utility.Utility.Shapes} (recognized by name),
    otherwise they are converted to PLC breakpoints. *)

val parse_assignment : string -> (Aa_core.Assignment.t, string) result
val print_assignment : Aa_core.Assignment.t -> string

val load_instance : string -> (Aa_core.Instance.t, string) result
(** Read and parse a file. *)

val save : string -> string -> (unit, string) result
(** [save path contents] writes a file, reporting system errors. *)
