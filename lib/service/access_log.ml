(* Structured access log: one JSON object per acked request, one line
   per object (JSONL), written under one mutex by whichever thread acks
   the request through [Shard.ack]: a listener writer thread, or
   aa_serve's stdin loop for connection 0.

   Lines are buffered and written out in line-aligned batches (at most
   ~4 KiB or 50 ms behind, whichever comes first; [close] drains the
   rest). Because every write starts and ends on a line boundary, a
   crash loses at most the buffered tail and tears at most the final
   line the kernel was writing — readers must tolerate a torn tail,
   exactly like the journal's. Per-record flushing would cost a write
   syscall per request, which is the bulk of the telemetry budget at
   daemon throughput.

   This is a log-side artifact of the determinism contract: records
   carry rids, wall timestamps and schedule-dependent phase timings,
   and nothing here may ever feed a counter or stdout. *)

module Rctx = Aa_obs.Rctx

let flush_bytes = 4096
let flush_interval_s = 0.05

type t = {
  oc : Out_channel.t;
  lock : Mutex.t;
  buf : Buffer.t;  (* complete lines awaiting the next batch write *)
  mutable last_flush_s : float;
}

let create ~path =
  match
    (* aa-lint: ignore-next raw-io -- access-log sink: append-only JSONL side
       channel, opened once at startup outside the journal's WAL discipline *)
    Out_channel.open_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path
  with
  | oc ->
      Ok
        {
          oc;
          lock = Mutex.create ();
          buf = Buffer.create flush_bytes;
          last_flush_s = Aa_obs.Clock.wall_s ();
        }
  | exception Sys_error e -> Error e

let esc b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s

(* Call with [t.lock] held: push the buffered lines through the channel
   in one write + flush, so the file only ever grows by whole batches. *)
let drain_locked t now_s =
  if Buffer.length t.buf > 0 then begin
    Out_channel.output_string t.oc (Buffer.contents t.buf);
    Out_channel.flush t.oc;
    Buffer.clear t.buf
  end;
  t.last_flush_s <- now_s

let add_int b i = Buffer.add_string b (string_of_int i)

(* [ts] as [<s>.<6-digit us>] without going through Printf's float
   formatter — this runs once per acked request. *)
let add_ts b ts =
  let us = int_of_float (ts *. 1e6) in
  add_int b (us / 1_000_000);
  Buffer.add_char b '.';
  let padded = string_of_int (1_000_000 + (us mod 1_000_000)) in
  Buffer.add_substring b padded 1 6

let log t ctx ~outcome ~bytes =
  let ts = Aa_obs.Clock.wall_s () in
  let phases = Rctx.phases ctx in
  let pns name =
    match List.assoc_opt name phases with Some v -> v | None -> 0
  in
  Mutex.lock t.lock;
  let b = t.buf in
  Buffer.add_string b "{\"ts\":";
  add_ts b ts;
  Buffer.add_string b ",\"rid\":";
  add_int b (Rctx.rid ctx);
  Buffer.add_string b ",\"conn\":";
  add_int b (Rctx.conn ctx);
  Buffer.add_string b ",\"kind\":\"";
  esc b (Rctx.kind ctx);
  Buffer.add_string b "\",\"shard\":";
  add_int b (Rctx.shard ctx);
  Buffer.add_string b ",\"outcome\":\"";
  esc b outcome;
  Buffer.add_string b "\",\"bytes\":";
  add_int b bytes;
  Buffer.add_string b ",\"total_ns\":";
  add_int b (Rctx.total_ns ctx);
  Buffer.add_string b ",\"validate_ns\":";
  add_int b (pns "validate");
  Buffer.add_string b ",\"journal_ns\":";
  add_int b (pns "journal");
  Buffer.add_string b ",\"apply_ns\":";
  add_int b (pns "apply");
  Buffer.add_string b ",\"commit_wait_ns\":";
  add_int b (Rctx.commit_wait_ns ctx);
  Buffer.add_string b "}\n";
  if Buffer.length b >= flush_bytes || ts -. t.last_flush_s >= flush_interval_s
  then drain_locked t ts;
  Mutex.unlock t.lock

let close t =
  Mutex.lock t.lock;
  (try drain_locked t (Aa_obs.Clock.wall_s ()) with Sys_error _ -> ());
  Out_channel.close_noerr t.oc;
  Mutex.unlock t.lock
