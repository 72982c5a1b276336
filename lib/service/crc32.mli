(** CRC-32 (IEEE 802.3, the zlib/gzip polynomial) over strings.

    Used by the [aa-journal 2] per-entry framing: each journal line
    carries the length and CRC of its payload, so a torn tail that
    happens to still parse (e.g. [depart 12] truncated to [depart 1])
    is rejected instead of silently replayed. Pure OCaml, table-driven,
    no dependencies. *)

val string : string -> int
(** CRC-32 of the whole string, in [0, 0xFFFFFFFF].
    [string "123456789" = 0xCBF43926]. *)

val update : int -> string -> int
(** [update (string a) b = string (a ^ b)]: extend a CRC over more
    bytes, so a payload held in pieces is checksummed without joining
    them. [string s = update 0 s]. *)

val to_hex : int -> string
(** Fixed-width lowercase rendering ([%08x]) used in journal framing. *)
