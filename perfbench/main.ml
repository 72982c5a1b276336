(* The repository benchmark: two workloads driven from outside the
   program, each reporting end-to-end metrics (untraced run) or
   per-layer metrics (traced run). See perfbench/README.md for the
   workloads, the metric table and how to run it.

     main.exe --workload solve|serve-durable --seed N
              --seconds S --trace 0|1

   The last stdout line is one JSON object
   {"correct", "attempted", "failed", "metrics"}; the lines before it
   are a human-readable table with units and sample counts. A failed
   correctness check exits 1 after printing; bad arguments exit 2.
   Every percentile is read from the run's sorted raw samples. *)

module Rng = Aa_numerics.Rng
module Clock = Aa_obs.Clock
module Trace = Aa_obs.Trace
module Rctx = Aa_obs.Rctx
module Gen = Aa_workload.Gen
module Protocol = Aa_service.Protocol
module Engine = Aa_service.Engine
module Journal = Aa_service.Journal
module Shard = Aa_service.Shard
open Aa_core

let servers = 8
let capacity = 1000.0
let now_ns = Clock.now_ns
let us ns = float_of_int ns *. 1e-3

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit 2)
    fmt

(* ---------- arguments ---------- *)

type args = { workload : string; seed : int; seconds : int; traced : bool }

let parse_args () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let int_arg name s =
    match int_of_string_opt s with Some v -> v | None -> die "%s: not an integer: %s" name s
  in
  let rec go = function
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_arg "--seed" v; go rest
    | "--seconds" :: v :: rest -> seconds := int_arg "--seconds" v; go rest
    | "--trace" :: v :: rest -> trace := int_arg "--trace" v; go rest
    | [] -> ()
    | a :: _ -> die "unknown argument %s" a
  in
  go (List.tl (Array.to_list Sys.argv));
  if !seed < 0 then die "--seed N (N >= 0) is required";
  if !seconds < 1 then die "--seconds S (S >= 1) is required";
  if !trace <> 0 && !trace <> 1 then die "--trace 0|1 is required";
  { workload = !workload; seed = !seed; seconds = !seconds; traced = !trace = 1 }

(* ---------- raw samples and exact percentiles ---------- *)

(* A growable buffer of raw samples. Percentiles and means are computed
   by Aa_numerics.Stats over the sorted raw values; an empty buffer
   reads 0. *)
module Samples = struct
  module Dynvec = Aa_numerics.Dynvec
  module Stats = Aa_numerics.Stats

  type t = float Dynvec.t

  let create () : t = Dynvec.create ()
  let add = Dynvec.push
  let count = Dynvec.length
  let iter = Dynvec.iter
  let over f t = if count t = 0 then 0.0 else f (Dynvec.to_array t)
  let quantile t q = over (fun a -> Stats.quantile a q) t
  let mean = over Stats.mean
end

let median xs = Aa_numerics.Stats.median (Array.of_list xs)

(* ---------- metric book and output ---------- *)

(* The JSON metric sets with their units, in BENCHMARK.json order.
   Per-layer metrics a workload does not exercise read 0 (the layer was
   idle there). *)
let end_to_end =
  [ ("setup_s", "s"); ("max_rps", "1/s"); ("p50_us", "us"); ("so_ratio_mean", "ratio");
    ("peak_rss_mb", "MB") ]

let per_kind = [ "admit"; "update"; "depart"; "query" ]
let mut_kinds = [ "admit"; "update"; "depart" ]
let sizes = [| 40; 120; 1000 |]
let with_unit u names = List.map (fun n -> (n, u)) names

let per_layer =
  List.concat
    [
      with_unit "us"
        [ "p99_us"; "admit_p50_us"; "admit_p99_us"; "update_p99_us"; "depart_p99_us"; "query_p50_us";
          "query_p99_us" ];
      [ ("rebalance_p50_ms", "ms"); ("snapshot_p50_ms", "ms"); ("recover_s", "s"); ("journal_mb", "MB");
        ("solves_per_s", "1/s") ];
      with_unit "us" (List.map (( ^ ) "shard.post_us.") per_kind);
      [ ("protocol.req_bytes.admit", "bytes"); ("protocol.req_bytes.update", "bytes");
        ("protocol.encode_us", "us"); ("protocol.reply_bytes", "bytes");
        ("shard.queue_wait_us.admit", "us"); ("shard.queue_wait_us.query", "us");
        ("shard.commit_wait_us", "us") ];
      with_unit "us"
        (List.concat_map
           (fun ph -> List.map (fun k -> Printf.sprintf "engine.%s_us.%s" ph k) mut_kinds)
           [ "validate"; "journal"; "apply" ]);
      [ ("engine.stats_us", "us"); ("journal.fsyncs_per_kreq", "count");
        ("journal.batch_mean", "count"); ("journal.snapshot_bytes", "bytes");
        ("journal.replay_entries", "count") ];
      with_unit "count" [ "online.splices"; "online.resolves"; "online.n_admitted"; "online.n_active" ];
      with_unit "us"
        (List.concat_map
           (fun layer -> Array.to_list (Array.map (Printf.sprintf "%s.us.n%d" layer) sizes))
           [ "superopt"; "algo2"; "refine" ]);
      [ ("plc_greedy.calls", "count/op"); ("plc_greedy.heap_pops", "count/op");
        ("gc.minor_mb_per_kreq", "MB"); ("gc.major_per_kreq", "count");
        ("obs.trace_overhead.admit_p50", "ratio"); ("obs.trace_overhead.max_rps", "ratio");
        ("obs.trace.overwritten", "count"); ("loadgen.lag_p99_us", "us");
        ("closed.snapshot_share", "ratio"); ("closed.rebalance_share", "ratio");
        ("host.calib_us", "us") ];
      with_unit "us" (List.map (( ^ ) "split.latency_us.") per_kind);
      with_unit "us" (List.map (( ^ ) "split.gap_us.") per_kind);
    ]

let unit_of name =
  match List.assoc_opt name (end_to_end @ per_layer) with Some u -> u | None -> "count"

type metric = { value : float; n : int }

let book : (string, metric) Hashtbl.t = Hashtbl.create 64

let put ?(n = 1) name value = Hashtbl.replace book name { value; n }

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
            float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> 0.0
  in
  let v = scan () in
  close_in ic;
  v

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

(* Print the table and the result line; exit 1 on a failed check. *)
let report ~traced ~attempted ~failed ~problems =
  put "peak_rss_mb" (peak_rss_mb ());
  let problems =
    List.fold_left
      (fun acc (k, _) ->
        match Hashtbl.find_opt book k with
        | Some m when Float.is_finite m.value && m.value > 0.0 -> acc
        | _ -> Printf.sprintf "end-to-end metric %s was not measured" k :: acc)
      problems end_to_end
  in
  let names = Hashtbl.fold (fun k _ acc -> k :: acc) book [] |> List.sort compare in
  Printf.printf "%-34s %18s  %-9s %s\n" "metric" "value" "unit" "samples";
  let row k v u n = Printf.printf "%-34s %18.6g  %-9s %d\n" k v u n in
  List.iter (fun k -> let m = Hashtbl.find book k in row k m.value (unit_of k) m.n) names;
  row "fail_frac" (float_of_int failed /. float_of_int (max 1 attempted)) "ratio" attempted;
  List.iter (fun p -> Printf.printf "FAILED CHECK: %s\n" p) problems;
  let fields =
    List.map
      (fun (k, u) ->
        let v = match Hashtbl.find_opt book k with Some m -> m.value | None -> 0.0 in
        Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" k (json_float v) u)
      (if traced then per_layer else end_to_end)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (problems = []) attempted failed (String.concat ", " fields);
  exit (if problems = [] then 0 else 1)

(* ---------- tracing helpers ---------- *)

let counter name =
  Option.value (List.assoc_opt name (Aa_obs.Registry.counters ())) ~default:0

let out_dir = ".perfbench-out"

let ensure_dir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755

(* Write the in-memory spans out and check none were lost. *)
let dump_trace ~workload ~seed problems =
  ensure_dir out_dir;
  let path = Filename.concat out_dir (Printf.sprintf "%s-seed%d.trace.json" workload seed) in
  let oc = open_out path in
  output_string oc (Trace.to_chrome_json ());
  close_out oc;
  let lost = Trace.overwritten () in
  put "obs.trace.overwritten" (float_of_int lost);
  if lost > 0 then problems := Printf.sprintf "%d trace events overwritten" lost :: !problems;
  if Trace.unbalanced () > 0 then problems := "unbalanced trace spans" :: !problems

(* Allocation per 1000 operations over one timed loop. *)
let put_gc (g0 : Gc.stat) ops =
  let g1 = Gc.quick_stat () in
  let per_k x = x *. 1000.0 /. float_of_int (max 1 ops) in
  put "gc.minor_mb_per_kreq"
    (per_k ((g1.minor_words -. g0.minor_words) *. 8.0 /. 1048576.0));
  put "gc.major_per_kreq" (per_k (float_of_int (g1.major_collections - g0.major_collections)))

let enable_tracing () =
  Aa_obs.Control.set_enabled true;
  Rctx.set_enabled true

(* ====================================================================
   Workload `solve`: the paper's Section VII instances solved offline
   by Linearized.make -> Algo2.solve -> Refine.per_server.
   ==================================================================== *)

let distributions =
  [ Gen.Uniform; Gen.Normal { mu = 1.0; sigma = 1.0 }; Gen.Power_law { alpha = 2.0 };
    Gen.Discrete { gamma = 0.85; theta = 5.0 } ]

(* per distribution: 2 instances at beta=5 (n=40), 6 at beta=15
   (n=120), 2 at the T1 size n=1000 — the median solve then falls in
   the middle of the n=120 class, not at a class edge *)
let copies = [| 2; 6; 2 |]

let gen_instances seed =
  let master = Rng.create ~seed () in
  List.concat_map
    (fun d ->
      List.concat
        (List.init (Array.length sizes) (fun si ->
             List.init copies.(si) (fun _ ->
                 ( si,
                   Gen.instance (Rng.split master) ~servers ~capacity ~threads:sizes.(si) d )))))
    distributions
  |> Array.of_list

type layer_times = { lin : Samples.t; alg : Samples.t; ref_ : Samples.t }

let solve_once times (si, inst) =
  let t0 = now_ns () in
  Trace.begin_span "Linearized.make";
  let lin = Linearized.make inst in
  Trace.end_span ();
  let t1 = now_ns () in
  Trace.begin_span "Algo2.solve";
  let a = Algo2.solve ~linearized:lin inst in
  Trace.end_span ();
  let t2 = now_ns () in
  Trace.begin_span "Refine.per_server";
  let a = Refine.per_server inst a in
  Trace.end_span ();
  let t3 = now_ns () in
  Samples.add times.(si).lin (us (t1 - t0));
  Samples.add times.(si).alg (us (t2 - t1));
  Samples.add times.(si).ref_ (us (t3 - t2));
  (lin, a, t3 - t0)

let same_assignment (a : Assignment.t) (b : Assignment.t) =
  a.server = b.server
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a.alloc b.alloc

(* ---------- host-speed calibration ---------- *)

(* The shared reference host runs the same single-threaded code up to
   1.7x slower for stretches of tens of seconds to minutes, longer than
   a run. So `solve`, which is CPU-bound on one core, reports calibrated
   times: each timed stretch is scaled by [calib_nominal_ns] over the
   time of a fixed kernel run right before and right after it. The
   kernel is benchmark code that no change to the program can touch; it
   sorts a fixed float array in place, without allocating. A calibrated
   time is the time the work would take on a host where the kernel
   takes exactly 1 ms. *)
let calib_nominal_ns = 1e6

let calib_input =
  let st = Random.State.make [| 20261017 |] in
  Array.init 2048 (fun _ -> Random.State.float st 1.0)

let calib_buf = Array.make (Array.length calib_input) 0.0

(* Shell sort with halving gaps, on floats only. *)
let shell_sort (a : float array) =
  let n = Array.length a in
  let gap = ref (n / 2) in
  while !gap > 0 do
    let g = !gap in
    for i = g to n - 1 do
      let x = a.(i) in
      let j = ref i in
      while !j >= g && a.(!j - g) > x do
        a.(!j) <- a.(!j - g);
        j := !j - g
      done;
      a.(!j) <- x
    done;
    gap := g / 2
  done

let calib_runs = Samples.create () (* raw kernel times of the run, us *)

let calib_ns () =
  let t0 = now_ns () in
  for _ = 1 to 3 do
    Array.blit calib_input 0 calib_buf 0 (Array.length calib_input);
    shell_sort calib_buf
  done;
  let ns = now_ns () - t0 in
  Samples.add calib_runs (us ns);
  ns

let put_calib () =
  put "host.calib_us" (Samples.quantile calib_runs 0.5) ~n:(Samples.count calib_runs)

(* The factor that turns the raw time of a stretch into calibrated
   time, from the kernel times before and after it. *)
let calib_scale before after = calib_nominal_ns /. (float_of_int (before + after) /. 2.0)

(* [f ()] with its calibrated duration in seconds. *)
let calibrated f =
  let c0 = calib_ns () in
  let t0 = now_ns () in
  let v = f () in
  let dt = now_ns () - t0 in
  (v, float_of_int dt *. 1e-9 *. calib_scale c0 (calib_ns ()))

(* A timed round of the solve loop, in calibrated time. *)
type round = {
  r_rps : float;  (* solves per calibrated second *)
  r_raw_rps : float;  (* solves per second of wall time spent solving *)
  r_lat : Samples.t;  (* per solve, calibrated us *)
  r_big : Samples.t;  (* n=1000 solves, calibrated ms *)
}

(* [rounds] rounds of sequential passes over an instance set, each
   round running whole passes until [slice_ns] has elapsed, with the
   calibration kernel before every pass and after the last; every
   solution is compared bit-for-bit with the reference. [next_set ()]
   gives the instance set of the next round. *)
let solve_rounds next_set reference ~rounds ~slice_ns =
  let times =
    Array.map (fun _ -> { lin = Samples.create (); alg = Samples.create (); ref_ = Samples.create () })
      sizes
  in
  let mismatch = ref 0 and count = ref 0 in
  let round () =
    let insts = next_set () in
    let passes = ref [] (* (kernel ns before the pass, solve ns per instance), latest first *) in
    let t0 = now_ns () in
    while now_ns () - t0 < slice_ns do
      let c = calib_ns () in
      let ns =
        Array.mapi
          (fun i x ->
            let _, a, ns = solve_once times x in
            if not (same_assignment a reference.(i)) then incr mismatch;
            ns)
          insts
      in
      passes := (c, ns) :: !passes
    done;
    let lat = Samples.create () and big = Samples.create () in
    let raw = ref 0 and scaled = ref 0.0 in
    ignore
      (List.fold_left
         (fun after (c, ns) ->
           let f = calib_scale c after in
           Array.iteri
             (fun i t ->
               let v = float_of_int t *. f in
               Samples.add lat (v *. 1e-3);
               if fst insts.(i) = 2 then Samples.add big (v *. 1e-6);
               raw := !raw + t;
               scaled := !scaled +. v)
             ns;
           c)
         (calib_ns ()) !passes);
    let solves = float_of_int (Samples.count lat) in
    count := !count + Samples.count lat;
    { r_rps = solves /. (!scaled *. 1e-9); r_raw_rps = solves /. (float_of_int !raw *. 1e-9);
      r_lat = lat; r_big = big }
  in
  let rs = List.init rounds (fun _ -> round ()) in
  (rs, times, !count, !mismatch)

let best_max xs = List.fold_left Float.max neg_infinity xs
let best_min xs = List.fold_left Float.min infinity xs
let rounds = 10

(* Set-up is timed once before the reference pass and once before every
   round, so its median samples the host over the whole run. Each round
   solves its own freshly generated set, so a repeat that differs from
   the reference also catches generation that is not a function of the
   seed. *)
let run_solve a =
  let setups = ref [] in
  let generate () =
    (* a full collection first makes the heap, and so peak RSS,
       independent of when the collector last ran *)
    Gc.compact ();
    let insts, dt = calibrated (fun () -> gen_instances a.seed) in
    setups := dt :: !setups;
    insts
  in
  let insts = generate () in
  let problems = ref [] in
  (* reference pass, untimed: every solution must certify against F^ *)
  let dummy = Array.map (fun _ -> { lin = Samples.create (); alg = Samples.create (); ref_ = Samples.create () }) sizes in
  let ratios = Samples.create () in
  let reference =
    Array.map
      (fun ((_, inst) as x) ->
        let lin, sol, _ = solve_once dummy x in
        let r =
          Aa_analysis.Certify.audit ~superopt:lin.Linearized.superopt
            ~min_ratio:Bounds.alpha inst sol
        in
        (match r.Aa_analysis.Certify.ratio with Some q -> Samples.add ratios q | None -> ());
        if not (Aa_analysis.Certify.ok r) then
          problems := "Certify.audit rejected an Algo2+refill solution" :: !problems;
        sol)
      insts
  in
  put "so_ratio_mean" (Samples.mean ratios) ~n:(Samples.count ratios);
  (* the rounds span 1.6 x --seconds, like a serve run's closed and open
     loops together *)
  let slice_ns = a.seconds * 1_000_000_000 / 6 in
  let gc0 = Gc.quick_stat () in
  let rs, _, count, mismatch = solve_rounds generate reference ~rounds ~slice_ns in
  put_gc gc0 count;
  put "setup_s" (median !setups) ~n:(List.length !setups);
  (* every round solves the same set: the run reports the median round *)
  let over_rounds f = median (List.map f rs) in
  let rps = over_rounds (fun r -> r.r_rps) in
  let p q = over_rounds (fun r -> Samples.quantile r.r_lat q) in
  let per_round = Samples.count (List.hd rs).r_lat in
  put "max_rps" rps ~n:count;
  put "solves_per_s" rps ~n:count;
  put "p50_us" (p 0.5) ~n:per_round;
  put "p99_us" (p 0.99) ~n:per_round;
  put "rebalance_p50_ms" (over_rounds (fun r -> Samples.quantile r.r_big 0.5))
    ~n:(Samples.count (List.hd rs).r_big);
  let show f = String.concat " " (List.map (fun r -> Printf.sprintf "%.1f" (f r)) rs) in
  Printf.printf "per round: solves/s calibrated %s | wall %s\n" (show (fun r -> r.r_rps))
    (show (fun r -> r.r_raw_rps));
  let count, mismatch =
    if not a.traced then (count, mismatch)
    else begin
      enable_tracing ();
      let c0 = counter "plc_greedy.calls" and h0 = counter "plc_greedy.heap_pops" in
      let trs, times, tcount, tmismatch =
        solve_rounds (fun () -> insts) reference ~rounds:1 ~slice_ns
      in
      let tr = List.hd trs in
      let per_solve c = float_of_int c /. float_of_int tcount in
      put "plc_greedy.calls" (per_solve (counter "plc_greedy.calls" - c0));
      put "plc_greedy.heap_pops" (per_solve (counter "plc_greedy.heap_pops" - h0));
      put "obs.trace_overhead.admit_p50" (Samples.quantile tr.r_lat 0.5 /. p 0.5);
      put "obs.trace_overhead.max_rps" (tr.r_rps /. rps);
      Array.iteri
        (fun si t ->
          let n = sizes.(si) in
          put (Printf.sprintf "superopt.us.n%d" n) (Samples.quantile t.lin 0.5) ~n:(Samples.count t.lin);
          put (Printf.sprintf "algo2.us.n%d" n) (Samples.quantile t.alg 0.5) ~n:(Samples.count t.alg);
          put (Printf.sprintf "refine.us.n%d" n) (Samples.quantile t.ref_ 0.5) ~n:(Samples.count t.ref_))
        times;
      dump_trace ~workload:a.workload ~seed:a.seed problems;
      (count + tcount, mismatch + tmismatch)
    end
  in
  if mismatch > 0 then
    problems := Printf.sprintf "%d repeated solves differ from the reference" mismatch :: !problems;
  put_calib ();
  report ~traced:a.traced ~attempted:count ~failed:mismatch ~problems:!problems

(* ====================================================================
   Workload `serve-durable`: scripted daemon traffic
   through Shard.post_line / Shard.await + Protocol.print_response —
   the daemon's serving path minus the socket.
   ==================================================================== *)

type kind = K_admit | K_depart | K_update | K_query | K_stats | K_snapshot | K_rebalance

let kind_name = function
  | K_admit -> "admit" | K_depart -> "depart" | K_update -> "update" | K_query -> "query"
  | K_stats -> "stats" | K_snapshot -> "snapshot" | K_rebalance -> "rebalance"

let kind_index k = match k with
  | K_admit -> 0 | K_depart -> 1 | K_update -> 2 | K_query -> 3 | K_stats -> 4
  | K_snapshot -> 5 | K_rebalance -> 6

(* The E4 mix through 2 shards, each journaled at fsync=always. *)
let shards = 2
let live_target = 150 (* threads admitted in set-up; the live set is held near it *)
let rate = 400 (* open-loop offered rate, requests/s *)

(* paper-generator PLC specs, ~4.9 KB each *)
let plc_spec rng =
  Aa_io.Format_text.print_thread_spec (Gen.utility rng ~cap:capacity Gen.Uniform)

type script = {
  prefill : string array;  (* ADMIT lines applied in set-up, thread k to shard k mod n *)
  lines : string array;
  kinds : kind array;
  expect_id : int array;  (* the id an ADMIT must get back, -1 otherwise *)
}

(* E4's mix and cadence (bench/main.ml): 60% ADMIT/DEPART, 15% UPDATE,
   20% QUERY, 5% STATS, SNAPSHOT every 1000 requests and REBALANCE
   every 1000, offset by 500. Unlike E4, the ADMIT/DEPART split is
   mean-reverting, so the live set stays near [live_target]. *)
let make_script ~seed ~n =
  let rng = Rng.create ~seed () in
  let live = Array.make (live_target + n + 1) 0 and n_live = ref 0 in
  let admitted = ref 0 in
  let admit () =
    live.(!n_live) <- !admitted;
    incr n_live;
    incr admitted;
    "ADMIT " ^ plc_spec rng
  in
  let pick () = live.(Rng.int rng !n_live) in
  let prefill = Array.init live_target (fun _ -> admit ()) in
  let kinds = Array.make n K_query and expect_id = Array.make n (-1) in
  let lines =
    Array.init n (fun step ->
        let set k l = kinds.(step) <- k; l in
        if step > 0 && step mod 1000 = 0 then set K_snapshot "SNAPSHOT"
        else if step mod 1000 = 500 then set K_rebalance "REBALANCE"
        else begin
          let r = Rng.int rng 100 in
          if r < 60 || !n_live = 0 then begin
            (* mean-reverting: admit with probability 1/2 at the target *)
            let p =
              0.5 +. (float_of_int (live_target - !n_live) /. float_of_int (2 * live_target))
            in
            if !n_live = 0 || Rng.float rng 1.0 < p then begin
              expect_id.(step) <- !admitted;
              set K_admit (admit ())
            end
            else begin
              let j = Rng.int rng !n_live in
              let id = live.(j) in
              live.(j) <- live.(!n_live - 1);
              decr n_live;
              set K_depart (Printf.sprintf "DEPART %d" id)
            end
          end
          else if r < 75 then begin
            let id = pick () in
            set K_update (Printf.sprintf "UPDATE %d %s" id (plc_spec rng))
          end
          else if r < 95 then
            set K_query (Printf.sprintf "QUERY %d" (pick ()))
          else set K_stats "STATS"
        end)
  in
  { prefill; lines; kinds; expect_id }

(* One fresh engine set: journaled engines with the prefill admitted,
   thread k on shard k mod n so global ids stay dense. *)
type engine_set = { engines : Engine.t array; paths : string array }

let run_dir = Filename.concat out_dir (Printf.sprintf "run-%d" (Unix.getpid ()))

let build_engines script ~tag =
  let counts = Shard.server_counts ~servers ~shards in
  let paths =
    Array.init shards (fun k -> Filename.concat run_dir (Printf.sprintf "%s.shard%d" tag k))
  in
  let engines =
    Array.init shards (fun k ->
        if Sys.file_exists paths.(k) then Sys.remove paths.(k);
        match
          Journal.create ~fsync:Journal.Always ~path:paths.(k) ~servers:counts.(k) ~capacity ()
        with
        | Ok journal -> Engine.create ~journal ~servers:counts.(k) ~capacity ()
        | Error e -> die "journal: %s" e)
  in
  let batches = Array.make shards [] in
  Array.iteri
    (fun k line ->
      match Protocol.parse_request ~cap:capacity line with
      | Ok req -> batches.(k mod shards) <- req :: batches.(k mod shards)
      | Error _ -> die "prefill line does not parse")
    script.prefill;
  Array.iteri
    (fun s eng ->
      List.iter
        (function Protocol.Admitted _ -> () | _ -> die "prefill ADMIT refused")
        (Engine.handle_batch eng (List.rev batches.(s))))
    engines;
  { engines; paths }

let matches kind expect (r : Protocol.response) =
  match (kind, r) with
  | K_admit, Admitted { id; _ } -> id = expect
  | K_depart, Departed _ | K_update, Updated _ | K_stats, Stats_report _
  | K_rebalance, Rebalance_report _ ->
      true
  | K_query, Thread_info { active; _ } -> active
  | K_snapshot, Snapshot_done { compacted; _ } -> compacted
  | _ -> false

(* Per-request record of one phase, indexed by script position. *)
type phase_result = {
  elapsed_s : float;
  charged_s : float array;  (* closed loop: [elapsed_s] charged per kind (kind_index) *)
  lat : Samples.t array;  (* per kind (kind_index), us from due time *)
  all_lat : Samples.t;
  lag : Samples.t;
  bad : int;
  reply_bytes : int;
  (* traced open loop only: per-kind layer splits, us *)
  split : (string * Samples.t) list array;
}

let new_split () =
  List.map (fun c -> (c, Samples.create ()))
    [ "post"; "queue"; "validate"; "journal"; "apply"; "commit"; "encode"; "latency" ]

let empty_result () =
  { elapsed_s = 0.0; charged_s = Array.make 7 0.0; lat = Array.init 7 (fun _ -> Samples.create ());
    all_lat = Samples.create (); lag = Samples.create (); bad = 0; reply_bytes = 0;
    split = Array.init 7 (fun _ -> new_split ()) }

let outcome_ok script i = function
  | Shard.Reply r -> (matches script.kinds.(i) script.expect_id.(i) r, Protocol.print_response r)
  | Shard.Crashed name -> (false, "crashed " ^ name)

(* SNAPSHOT and REBALANCE are operator actions: the open loop runs each
   in a quiet window instead of queueing client traffic behind it. *)
let maintenance k = k = K_snapshot || k = K_rebalance

(* Closed loop: one pipelining client keeping [window] requests in
   flight, replies consumed in order (a connection's FIFO), like E5.
   Each reply is charged to its kind with the time since the previous
   reply was taken; with the pipeline full, a kind's charges are the
   share of the loop it occupies. *)
let window = 64

let closed_loop script set =
  let sh = Shard.create set.engines in
  let inflight = Queue.create () in
  let bad = ref 0 and bytes = ref 0 in
  let t0 = now_ns () in
  let last_reply = ref t0 and charged = Array.make 7 0 in
  let finish (i, tk) =
    Trace.begin_span "Shard.await";
    let out = Shard.await sh tk in
    Trace.end_span ();
    (match Shard.rctx tk with Some c -> ignore (Rctx.finish c ~outcome:"ok") | None -> ());
    Trace.begin_span "Protocol.print_response";
    let ok, reply = outcome_ok script i out in
    Trace.end_span ();
    bytes := !bytes + String.length reply;
    if not ok then incr bad;
    let t = now_ns () in
    let k = kind_index script.kinds.(i) in
    charged.(k) <- charged.(k) + (t - !last_reply);
    last_reply := t
  in
  Array.iteri
    (fun i line ->
      Trace.begin_span "Shard.post_line";
      let posted = Shard.post_line sh line in
      Trace.end_span ();
      (match posted with
      | `Ticket tk -> Queue.push (i, tk) inflight
      | `Blank | `Immediate _ -> incr bad);
      if Queue.length inflight >= window then finish (Queue.pop inflight))
    script.lines;
  while not (Queue.is_empty inflight) do
    finish (Queue.pop inflight)
  done;
  let dt = float_of_int (now_ns () - t0) *. 1e-9 in
  Shard.shutdown sh;
  { (empty_result ()) with
    elapsed_s = dt;
    charged_s = Array.map (fun c -> float_of_int c *. 1e-9) charged;
    bad = !bad;
    reply_bytes = !bytes }

(* Open loop: a poster domain sends client request i at its due time
   whatever the backlog; the calling domain takes the replies in order.
   Latency is measured from the due time. Before a maintenance request
   the poster waits until every earlier reply is in, sends it, waits
   for its reply, and then shifts the schedule so the next request is
   due at once. *)
let open_loop script set ~traced =
  let sh = Shard.create set.engines in
  let n = Array.length script.lines in
  let res = empty_result () in
  let period = 1e9 /. float_of_int rate in
  let start = now_ns () + 1_000_000 in
  let q = Queue.create () and m = Mutex.create () and c = Condition.create () in
  let awaited = ref 0 in
  let wait_awaited k =
    Mutex.lock m;
    while !awaited < k do
      Condition.wait c m
    done;
    Mutex.unlock m
  in
  let due = Array.make n 0 and post_ns = Array.make n 0 and post_t0 = Array.make n 0 in
  let poster () =
    let shift = ref 0 in
    for i = 0 to n - 1 do
      let quiet = maintenance script.kinds.(i) in
      if quiet then wait_awaited i
      else begin
        due.(i) <- start + !shift + int_of_float (float_of_int i *. period);
        let d = due.(i) - now_ns () in
        if d > 0 then Unix.sleepf (float_of_int d *. 1e-9)
      end;
      let t0 = now_ns () in
      if quiet then due.(i) <- t0;
      Trace.begin_span "Shard.post_line";
      let posted = Shard.post_line sh script.lines.(i) in
      Trace.end_span ();
      let t1 = now_ns () in
      post_t0.(i) <- t0;
      post_ns.(i) <- t1 - t0;
      Mutex.lock m;
      Queue.push (i, posted) q;
      Condition.broadcast c;
      Mutex.unlock m;
      if quiet then begin
        wait_awaited (i + 1);
        shift := now_ns () - start - int_of_float (float_of_int (i + 1) *. period)
      end
    done
  in
  let bad = ref 0 and bytes = ref 0 in
  let awaiter () =
    for _ = 0 to n - 1 do
      Mutex.lock m;
      while Queue.is_empty q do
        Condition.wait c m
      done;
      let i, posted = Queue.pop q in
      Mutex.unlock m;
      (match posted with
      | `Blank | `Immediate _ -> incr bad
      | `Ticket tk -> (
          Trace.begin_span "Shard.await";
          let out = Shard.await sh tk in
          Trace.end_span ();
          let t_aw = now_ns () in
          let ctx = Shard.rctx tk in
          Option.iter (fun c -> ignore (Rctx.finish c ~outcome:"ok")) ctx;
          Trace.begin_span "Protocol.print_response";
          let ok, reply = outcome_ok script i out in
          Trace.end_span ();
          let t_ack = now_ns () in
          bytes := !bytes + String.length reply;
          if not ok then incr bad;
          let kind = script.kinds.(i) in
          let k = kind_index kind in
          let l = us (t_ack - due.(i)) in
          Samples.add res.lat.(k) l;
          if not (maintenance kind) then begin
            Samples.add res.all_lat l;
            Samples.add res.lag (us (post_t0.(i) - due.(i)))
          end;
          match ctx with
          | Some cx when traced ->
              let ph name = Rctx.phase_ns cx name in
              let v = ph "validate" and j = ph "journal" and a = ph "apply" in
              let cw = Rctx.commit_wait_ns cx in
              let add name x = Samples.add (List.assoc name res.split.(k)) (us x) in
              add "post" post_ns.(i);
              add "queue" (Rctx.total_ns cx - v - j - a - cw);
              add "validate" v;
              add "journal" j;
              add "apply" a;
              add "commit" cw;
              add "encode" (t_ack - t_aw);
              add "latency" (t_ack - post_t0.(i))
          | _ -> ()));
      Mutex.lock m;
      incr awaited;
      Condition.broadcast c;
      Mutex.unlock m
    done
  in
  let dp = Domain.spawn poster in
  awaiter ();
  Domain.join dp;
  Shard.shutdown sh;
  { res with bad = !bad; reply_bytes = !bytes }

let utility_bits set = Array.map (fun e -> Int64.bits_of_float (Engine.total_utility e)) set.engines

(* Online utility of the end state over the pooled super-optimal bound
   of its live set, summed over shards. *)
let so_ratio set =
  let u = ref 0.0 and f = ref 0.0 in
  Array.iter
    (fun e ->
      let ol = Engine.online e in
      if Engine.n_active e > 0 then begin
        let inst = Aa_core.Online.active_instance ol in
        u := !u +. Assignment.utility inst (Aa_core.Online.active_assignment ol);
        f := !f +. (Superopt.compute inst).Superopt.utility
      end)
    set.engines;
  if !f > 0.0 then !u /. !f else 0.0

let file_bytes p = (Unix.stat p).Unix.st_size

(* Replay every shard journal through Engine.of_journal; each must
   reach the live engine's total utility within 1e-9. *)
let recover set problems =
  let t0 = now_ns () in
  Array.iteri
    (fun k path ->
      Trace.begin_span "Engine.of_journal";
      let r = Engine.of_journal ~path () in
      Trace.end_span ();
      match r with
      | Error e -> problems := Printf.sprintf "shard %d journal does not replay: %s" k e :: !problems
      | Ok e ->
          Option.iter Journal.close (Engine.journal e);
          let live = Engine.total_utility set.engines.(k) in
          if not (Aa_numerics.Util.feq_rel ~rel:1e-9 live (Engine.total_utility e)) then
            problems :=
              Printf.sprintf "shard %d replays to %.17g, live %.17g" k (Engine.total_utility e) live
              :: !problems)
    set.paths;
  float_of_int (now_ns () - t0) *. 1e-9

let remove_paths = Array.iter (fun p -> if Sys.file_exists p then Sys.remove p)

let kind_p name k q (r : phase_result) =
  let s = r.lat.(kind_index k) in
  put name (Samples.quantile s q) ~n:(Samples.count s)

(* Rounds per serve run. Each round has its own script, replayed on
   fresh engines once per pass. A pass replays every round's script, so
   the replays of one round are spread over the run and a slow stretch
   of the host rarely covers all of them. The closed passes come first
   and back to back: on the reference host the first few seconds of
   closed-loop load after set-up or after an open loop ran up to 2x
   slower, so each transition would leave the early rounds without a
   fast replay. *)
let serve_rounds = 4
let passes = [ `Closed; `Closed; `Closed; `Closed; `Open; `Open ]
let closed_per_round = List.length (List.filter (( = ) `Closed) passes)
let open_per_round = List.length (List.filter (( = ) `Open) passes)

(* Pool the per-kind samples of several open-loop replays. *)
let pooled (rs : phase_result list) =
  let p = empty_result () in
  List.iter
    (fun r ->
      Array.iteri (fun k s -> Samples.iter (Samples.add p.lat.(k)) s) r.lat;
      Samples.iter (Samples.add p.all_lat) r.all_lat;
      Samples.iter (Samples.add p.lag) r.lag)
    rs;
  { p with reply_bytes = List.fold_left (fun acc r -> acc + r.reply_bytes) 0 rs }

let sum_engines f set = Array.fold_left (fun acc e -> acc + f e) 0 set.engines

let run_serve a =
  ensure_dir out_dir;
  ensure_dir run_dir;
  (* the open-loop replays together last --seconds *)
  let n = rate * a.seconds / (serve_rounds * open_per_round) in
  let problems = ref [] in
  let setups = ref [] and scripts = Hashtbl.create 8 and ends = Hashtbl.create 8 in
  (* One timed set-up: generate round r's script, build fresh engines.
     Each round draws its own script from (seed, r), so a run covers
     several live sets and depends less on one draw. *)
  let fresh r tag =
    let t0 = now_ns () in
    let s = make_script ~seed:((a.seed * 16) + r) ~n in
    let set = build_engines s ~tag:(Printf.sprintf "r%d-%s" r tag) in
    setups := (float_of_int (now_ns () - t0) *. 1e-9) :: !setups;
    (match Hashtbl.find_opt scripts r with
    | None -> Hashtbl.replace scripts r s
    | Some s0 ->
        if s0.lines <> s.lines then
          problems := "script generation is not a function of the seed" :: !problems);
    (s, set)
  in
  (* Record a finished replay's end state; every replay of a round's
     script must end in the same state, bit for bit. Journal files are
     removed only at the end of the run: unlinking megabytes of journal
     would load the next replay's fsyncs with the file system's
     metadata commit. *)
  let retired = ref [] in
  let retire r set =
    Gc.compact ();
    let bits = utility_bits set in
    (match Hashtbl.find_opt ends r with
    | None -> Hashtbl.replace ends r bits
    | Some b ->
        if b <> bits then
          problems := Printf.sprintf "replays of round %d end in different states" r :: !problems);
    retired := set.paths :: !retired
  in
  let minor = ref 0.0 and major = ref 0 and fsyncs = ref 0 and ratios = Samples.create () in
  let last = ref None in
  let closed = Array.make serve_rounds [] and opens = Array.make serve_rounds [] in
  List.iteri
    (fun p pass ->
      for r = 0 to serve_rounds - 1 do
        (* host speed, for the reader; serve times are not calibrated *)
        ignore (calib_ns ());
        let script, set = fresh r (Printf.sprintf "pass%d" p) in
        (match pass with
        | `Open ->
            opens.(r) <- open_loop script set ~traced:false :: opens.(r);
            last := Some set
        | `Closed ->
            let g0 = Gc.quick_stat () in
            closed.(r) <- closed_loop script set :: closed.(r);
            let g1 = Gc.quick_stat () in
            minor := !minor +. (g1.minor_words -. g0.minor_words);
            major := !major + (g1.major_collections - g0.major_collections);
            fsyncs :=
              !fsyncs
              + sum_engines
                  (fun e -> match Engine.journal e with Some j -> Journal.fsyncs j | None -> 0)
                  set;
            if p = 0 then Samples.add ratios (so_ratio set));
        retire r set
      done)
    passes;
  let script = Hashtbl.find scripts 0 and last = Option.get !last in
  let closed = Array.to_list closed and round_opens = Array.to_list opens in
  let all_closed = List.concat closed and opens = List.concat round_opens in
  let n_closed = serve_rounds * closed_per_round * n in
  let per_k x = x *. 1000.0 /. float_of_int n_closed in
  put "gc.minor_mb_per_kreq" (per_k (!minor *. 8.0 /. 1048576.0));
  put "gc.major_per_kreq" (per_k (float_of_int !major));
  put "journal.fsyncs_per_kreq" (float_of_int !fsyncs *. 1000.0 /. float_of_int n_closed);
  put "so_ratio_mean" (Samples.mean ratios) ~n:(Samples.count ratios);
  (* A round's figure is the best of its replays of one kind: they run
     the same script, and interference only slows a replay down. The run
     reports the median of the rounds, so every live set counts. *)
  let rate_of c = float_of_int n /. c.elapsed_s in
  let round_rps = List.map (fun cs -> best_max (List.map rate_of cs)) closed in
  let max_rps = median round_rps in
  put "max_rps" max_rps ~n:n_closed;
  let elapsed = List.fold_left (fun acc c -> acc +. c.elapsed_s) 0.0 all_closed in
  let share k =
    List.fold_left (fun acc c -> acc +. c.charged_s.(kind_index k)) 0.0 all_closed /. elapsed
  in
  put "closed.snapshot_share" (share K_snapshot) ~n:(List.length all_closed);
  put "closed.rebalance_share" (share K_rebalance) ~n:(List.length all_closed);
  (* p50_us is the ADMIT p50. The latency of all client requests is
     bimodal (QUERY/DEPART near 0.1-0.4 ms, ADMIT/UPDATE with their
     4.9 KB specs near 1.2 ms) and its median falls between the modes,
     so a few more ADMITs in a script would move it by 2x. *)
  let admit_p50 (r : phase_result) = Samples.quantile r.lat.(kind_index K_admit) 0.5 in
  let round_p50 = List.map (fun os -> best_min (List.map admit_p50 os)) round_opens in
  put "p50_us" (median round_p50) ~n:(Samples.count (List.hd opens).lat.(kind_index K_admit));
  let opened = pooled opens in
  put "p99_us" (Samples.quantile opened.all_lat 0.99) ~n:(Samples.count opened.all_lat);
  let show f xs = String.concat " " (List.map (fun x -> Printf.sprintf "%.1f" (f x)) xs) in
  Printf.printf "per round: max_rps %s | admit p50_us %s\n" (show Fun.id round_rps)
    (show Fun.id round_p50);
  Printf.printf "closed replays, per round in pass order: %s\n"
    (String.concat " / " (List.map (fun cs -> show rate_of (List.rev cs)) closed));
  Printf.printf "open loops, all client requests: p50_us %s | p99_us %s\n"
    (show (fun (r : phase_result) -> Samples.quantile r.all_lat 0.5) opens)
    (show (fun (r : phase_result) -> Samples.quantile r.all_lat 0.99) opens);
  kind_p "admit_p50_us" K_admit 0.5 opened;
  kind_p "admit_p99_us" K_admit 0.99 opened;
  kind_p "update_p99_us" K_update 0.99 opened;
  kind_p "depart_p99_us" K_depart 0.99 opened;
  kind_p "query_p50_us" K_query 0.5 opened;
  kind_p "query_p99_us" K_query 0.99 opened;
  let ms_p50 name k =
    let s = opened.lat.(kind_index k) in
    put name (Samples.quantile s 0.5 *. 1e-3) ~n:(Samples.count s)
  in
  ms_p50 "snapshot_p50_ms" K_snapshot;
  ms_p50 "rebalance_p50_ms" K_rebalance;
  put "loadgen.lag_p99_us" (Samples.quantile opened.lag 0.99) ~n:(Samples.count opened.lag);
  put "protocol.reply_bytes"
    (float_of_int opened.reply_bytes /. float_of_int (serve_rounds * open_per_round * n));
  let req_bytes k =
    let tot = ref 0 and cnt = ref 0 in
    Array.iteri
      (fun i l ->
        if script.kinds.(i) = k then begin
          tot := !tot + String.length l;
          incr cnt
        end)
      script.lines;
    float_of_int !tot /. float_of_int (max 1 !cnt)
  in
  put "protocol.req_bytes.admit" (req_bytes K_admit);
  put "protocol.req_bytes.update" (req_bytes K_update);
  put "journal_mb"
    (float_of_int (Array.fold_left (fun acc p -> acc + file_bytes p) 0 last.paths) /. 1048576.0);
  put "journal.snapshot_bytes"
    (float_of_int
       (sum_engines
          (fun e ->
            List.fold_left
              (fun acc en -> acc + String.length (Journal.frame_entry en))
              0 (Engine.snapshot_entries e))
          last));
  if a.traced then
    put "journal.replay_entries"
      (float_of_int
         (Array.fold_left
            (fun acc p ->
              match Journal.load ~path:p with Ok (_, es) -> acc + List.length es | Error _ -> acc)
            0 last.paths));
  put "online.splices" (float_of_int (sum_engines Engine.splices last));
  put "online.resolves" (float_of_int (sum_engines Engine.resolves last));
  put "online.n_admitted" (float_of_int (sum_engines Engine.n_admitted last));
  put "online.n_active" (float_of_int (sum_engines Engine.n_active last));
  let stats = Samples.create () in
  for _ = 1 to 11 do
    let t0 = now_ns () in
    Array.iter (fun e -> ignore (Engine.handle e Protocol.Stats)) last.engines;
    Samples.add stats (us (now_ns () - t0))
  done;
  put "engine.stats_us" (Samples.quantile stats 0.5) ~n:11;
  let failed = ref (List.fold_left (fun acc c -> acc + c.bad) 0 (all_closed @ opens))
  and attempted = ref (n_closed + (serve_rounds * open_per_round * n)) in
  if a.traced then begin
    enable_tracing ();
    (* twice, keeping the better: the first closed loop after the open
       passes runs in the host's warm-up *)
    let tclosed =
      List.init 2 (fun i ->
          let script, set = fresh 0 (Printf.sprintf "traced-closed%d" i) in
          let c = closed_loop script set in
          retire 0 set;
          c)
    in
    (match List.assoc_opt "engine.group_commit.batch_size" (Aa_obs.Registry.histograms ()) with
    | Some h when h.count > 0 -> put "journal.batch_mean" (h.total /. float_of_int h.count)
    | _ -> ());
    let script, set = fresh 0 "traced-open" in
    let topen = open_loop script set ~traced:true in
    retire 0 set;
    failed := List.fold_left (fun acc c -> acc + c.bad) (!failed + topen.bad) tclosed;
    attempted := !attempted + (3 * n);
    (* traced over untraced on the same script, round 0's *)
    put "obs.trace_overhead.admit_p50" (admit_p50 topen /. List.hd round_p50);
    put "obs.trace_overhead.max_rps" (best_max (List.map rate_of tclosed) /. List.hd round_rps);
    List.iter
      (fun k ->
        let sp = topen.split.(kind_index k) in
        let med c = Samples.quantile (List.assoc c sp) 0.5 in
        let mean c = Samples.mean (List.assoc c sp) in
        let name = kind_name k in
        put ("shard.post_us." ^ name) (med "post");
        if k = K_admit || k = K_query then put ("shard.queue_wait_us." ^ name) (med "queue");
        if k <> K_query then
          List.iter
            (fun ph -> put (Printf.sprintf "engine.%s_us.%s" ph name) (med ph))
            [ "validate"; "journal"; "apply" ];
        let parts =
          List.fold_left (fun acc c -> acc +. mean c) 0.0
            [ "post"; "queue"; "validate"; "journal"; "apply"; "commit"; "encode" ]
        in
        put ("split.latency_us." ^ name) (mean "latency")
          ~n:(Samples.count (List.assoc "latency" sp));
        put ("split.gap_us." ^ name) (mean "latency" -. parts))
      [ K_admit; K_update; K_depart; K_query ];
    let commit = Samples.create () and enc = Samples.create () in
    List.iter
      (fun k ->
        let sp = topen.split.(kind_index k) in
        if k <> K_query then Samples.iter (Samples.add commit) (List.assoc "commit" sp);
        Samples.iter (Samples.add enc) (List.assoc "encode" sp))
      [ K_admit; K_update; K_depart; K_query ];
    put "shard.commit_wait_us" (Samples.quantile commit 0.5) ~n:(Samples.count commit);
    put "protocol.encode_us" (Samples.quantile enc 0.5) ~n:(Samples.count enc)
  end;
  put "setup_s" (median !setups) ~n:(List.length !setups);
  put "recover_s" (recover last problems) ~n:shards;
  if a.traced then dump_trace ~workload:a.workload ~seed:a.seed problems;
  List.iter remove_paths !retired;
  (try Sys.rmdir run_dir with Sys_error _ -> ());
  if !failed > 0 then problems := Printf.sprintf "%d replies of the wrong kind" !failed :: !problems;
  put_calib ();
  report ~traced:a.traced ~attempted:!attempted ~failed:!failed ~problems:!problems

let () =
  let a = parse_args () in
  match a.workload with
  | "solve" -> run_solve a
  | "serve-durable" -> run_serve a
  | w -> die "unknown workload %S (solve, serve-durable)" w
