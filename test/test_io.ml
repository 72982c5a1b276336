open Aa_utility
open Aa_core
open Aa_io

let sample_text =
  "# an instance\n\
   servers 2\n\
   capacity 10.0\n\
   thread plc 0 0 2.5 1 10 1.5\n\
   thread power 4.0 0.5   # comment after tokens\n\
   thread log 3.0 1.0\n\
   thread saturating 8.0 2.0\n\
   thread expsat 8.0 0.5\n\
   thread capped 1.5 6.0\n\
   thread linear 0.8\n"

let test_parse_basic () =
  match Format_text.parse_instance sample_text with
  | Error e -> Alcotest.fail e
  | Ok inst ->
      Alcotest.(check int) "servers" 2 inst.servers;
      Helpers.check_float "capacity" 10.0 inst.capacity;
      Alcotest.(check int) "threads" 7 (Instance.n_threads inst);
      Helpers.check_float "plc eval" 1.0 (Utility.eval inst.utilities.(0) 2.5);
      Helpers.check_float "power eval" 8.0 (Utility.eval inst.utilities.(1) 4.0);
      Helpers.check_float "capped eval" 9.0 (Utility.eval inst.utilities.(5) 8.0)

let test_roundtrip () =
  match Format_text.parse_instance sample_text with
  | Error e -> Alcotest.fail e
  | Ok inst -> (
      let text = Format_text.print_instance inst in
      match Format_text.parse_instance text with
      | Error e -> Alcotest.failf "reparse: %s" e
      | Ok inst2 ->
          Alcotest.(check int) "threads" (Instance.n_threads inst) (Instance.n_threads inst2);
          Array.iteri
            (fun i u ->
              for k = 0 to 20 do
                let x = 10.0 *. float_of_int k /. 20.0 in
                Helpers.check_float ~eps:1e-9
                  (Printf.sprintf "thread %d at %g" i x)
                  (Utility.eval u x)
                  (Utility.eval inst2.utilities.(i) x)
              done)
            inst.utilities)

let test_parse_errors () =
  let cases =
    [
      ("servers 2\nthread linear 1\n", "capacity before threads");
      ("capacity 10\nthread linear 1\n", "missing servers");
      ("servers 2\ncapacity 10\n", "no threads");
      ("servers 2\ncapacity 10\nthread wat 1\n", "unknown thread kind");
      ("servers x\ncapacity 10\nthread linear 1\n", "bad int");
      ("servers 2\ncapacity 10\nthread plc 0 0 1\n", "odd breakpoints");
      ("bogus directive\n", "unknown directive");
    ]
  in
  List.iter
    (fun (text, what) ->
      match Format_text.parse_instance text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted bad input: %s" what)
    cases

let test_error_line_numbers () =
  match Format_text.parse_instance "servers 2\ncapacity 10\nthread wat 1\n" with
  | Error e ->
      let prefix = "line 3:" in
      let has_prefix =
        String.length e >= String.length prefix
        && String.sub e 0 (String.length prefix) = prefix
      in
      Alcotest.(check bool) "mentions line 3" true has_prefix
  | Ok _ -> Alcotest.fail "accepted"

let test_assignment_roundtrip () =
  let a = Assignment.make ~server:[| 1; 0; 1 |] ~alloc:[| 2.5; 0.0; 7.5 |] in
  let text = Format_text.print_assignment a in
  match Format_text.parse_assignment text with
  | Error e -> Alcotest.fail e
  | Ok b ->
      Alcotest.(check (array int)) "servers" a.server b.server;
      Array.iteri (fun i c -> Helpers.check_float "alloc" c b.alloc.(i)) a.alloc

let test_assignment_gap_rejected () =
  match Format_text.parse_assignment "assign 0 0 1.0\nassign 2 1 2.0\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "gap in thread ids accepted"

let test_file_roundtrip () =
  let path = Filename.temp_file "aa_test" ".aa" in
  (match Format_text.parse_instance sample_text with
  | Error e -> Alcotest.fail e
  | Ok inst -> (
      match Format_text.save path (Format_text.print_instance inst) with
      | Error e -> Alcotest.fail e
      | Ok () -> (
          match Format_text.load_instance path with
          | Error e -> Alcotest.fail e
          | Ok inst2 ->
              Alcotest.(check int) "threads" (Instance.n_threads inst)
                (Instance.n_threads inst2))));
  Sys.remove path

let test_load_missing_file () =
  match Format_text.load_instance "/nonexistent/path/x.aa" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "loaded a missing file"

let test_thread_spec_roundtrip () =
  let cap = 10.0 in
  let specs =
    [
      "plc 0 0 2.5 1 10 1.5";
      "power 4 0.5";
      "log 3 1";
      "saturating 8 2";
      "expsat 8 0.5";
      "capped 1.5 6";
      "linear 0.80000000000000004";
    ]
  in
  List.iter
    (fun spec ->
      match Format_text.parse_thread_spec ~cap spec with
      | Error e -> Alcotest.failf "%S: %s" spec e
      | Ok u -> (
          let printed = Format_text.print_thread_spec u in
          match Format_text.parse_thread_spec ~cap printed with
          | Error e -> Alcotest.failf "reparse %S: %s" printed e
          | Ok u2 ->
              (* the second print must be a fixed point: exact %.17g round trip *)
              Alcotest.(check string) spec printed (Format_text.print_thread_spec u2);
              for k = 0 to 20 do
                let x = cap *. float_of_int k /. 20.0 in
                Helpers.check_float
                  (Printf.sprintf "%s at %g" spec x)
                  (Utility.eval u x) (Utility.eval u2 x)
              done))
    specs

let test_thread_spec_errors () =
  let cap = 10.0 in
  List.iter
    (fun spec ->
      match Format_text.parse_thread_spec ~cap spec with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted bad spec %S" spec)
    [
      "";
      "wat 1";
      "power 4";
      "power x 0.5";
      "plc 0 0 1";
      "plc 5 1 2 0";
      "linear";
      "log 3 1 9";
    ]

let prop_thread_spec_roundtrip =
  QCheck2.Test.make ~name:"print/parse thread spec roundtrip" ~count:200
    QCheck2.Gen.(
      let* cap = float_range 1.0 50.0 in
      let* u = Helpers.gen_utility_with_cap cap in
      return (cap, u))
    (fun (cap, u) ->
      match Format_text.parse_thread_spec ~cap (Format_text.print_thread_spec u) with
      | Error _ -> false
      | Ok u2 ->
          List.for_all
            (fun k ->
              let x = cap *. float_of_int k /. 16.0 in
              Aa_numerics.Util.approx_equal ~eps:1e-9 (Utility.eval u x)
                (Utility.eval u2 x))
            (List.init 17 Fun.id))

let prop_instance_roundtrip =
  QCheck2.Test.make ~name:"print/parse instance roundtrip preserves utilities" ~count:100
    Helpers.gen_instance (fun inst ->
      match Format_text.parse_instance (Format_text.print_instance inst) with
      | Error _ -> false
      | Ok inst2 ->
          Instance.n_threads inst = Instance.n_threads inst2
          && inst.servers = inst2.servers
          && Array.for_all2
               (fun u u2 ->
                 List.for_all
                   (fun k ->
                     let x = inst.capacity *. float_of_int k /. 16.0 in
                     Aa_numerics.Util.approx_equal ~eps:1e-6 (Utility.eval u x)
                       (Utility.eval u2 x))
                   (List.init 17 Fun.id))
               inst.utilities inst2.utilities)

let prop_assignment_roundtrip =
  QCheck2.Test.make ~name:"print/parse assignment roundtrip" ~count:100
    QCheck2.Gen.(
      let* n = int_range 1 20 in
      let* servers = list_repeat n (int_range 0 7) in
      let* allocs = list_repeat n (float_range 0.0 100.0) in
      return (Array.of_list servers, Array.of_list allocs))
    (fun (server, alloc) ->
      let a = Assignment.make ~server ~alloc in
      match Format_text.parse_assignment (Format_text.print_assignment a) with
      | Error _ -> false
      | Ok b ->
          b.server = a.server
          && Array.for_all2 (fun x y -> x = y) a.alloc b.alloc)

(* Journals written before the service kept spec text held
   [print_thread_spec] re-prints; journals written now hold the
   request's own tokens. Both must replay to the same state, so for raw
   specs of every kind — tabs, repeated spaces, [#] comments, assorted
   float spellings — [parse raw], [parse (print (parse raw))] and
   [parse text] must be bit-identical utilities. *)
let same_utility u v =
  let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
  let same_points p q =
    let p = Plc.points p and q = Plc.points q in
    Array.length p = Array.length q
    && Array.for_all2 (fun (x, y) (x', y') -> same x x' && same y y') p q
  in
  let same_form =
    match (u, v) with
    | Utility.Plc p, Utility.Plc q -> same_points p q
    | Utility.Smooth a, Utility.Smooth b ->
        a.name = b.name && same a.cap b.cap && compare a.spec b.spec = 0
    | Utility.Plc _, Utility.Smooth _ | Utility.Smooth _, Utility.Plc _ -> false
  in
  same_form
  && same_points (Utility.to_plc u) (Utility.to_plc v)
  && List.for_all
       (fun k ->
         let x = Utility.cap u *. float_of_int k /. 16.0 in
         same (Utility.eval u x) (Utility.eval v x))
       (List.init 17 Fun.id)

(* Reference tokenizer for the one-pass scanner: split, split, filter. *)
let reference_tokens line =
  let line =
    match String.index_opt line '#' with Some i -> String.sub line 0 i | None -> line
  in
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun s -> s <> "")

let gen_raw_spec ~cap =
  QCheck2.Gen.(
    (* any spelling for closed-form parameters; exact ones for PLC
       breakpoints, whose concavity a rounded spelling could break *)
    let spell exact x =
      map
        (fun f -> f x)
        (oneofl
           (if exact then [ Printf.sprintf "%.17g"; Printf.sprintf "%h"; Printf.sprintf "%.17e" ]
            else
              [ Printf.sprintf "%.17g"; Printf.sprintf "%h"; Printf.sprintf "%g";
                Printf.sprintf "%.4f"; Printf.sprintf "%.6e"; string_of_float ]))
    in
    let* kind = int_range 0 6 in
    let* a = float_range 0.5 8.0 in
    let* b = float_range 0.1 1.0 in
    let* nums =
      match kind with
      | 0 ->
          let* parts = Helpers.gen_plc_parts in
          let pts = Plc.points (Helpers.plc_of_parts parts) in
          flatten_l
            (List.concat_map (fun (x, y) -> [ spell true x; spell true y ]) (Array.to_list pts))
      | 1 -> flatten_l [ spell false a; spell false b ]
      | 2 | 3 | 4 -> flatten_l [ spell false a; spell false (b *. 2.0) ]
      | 5 -> flatten_l [ spell false a; spell false (cap *. b) ]
      | _ -> flatten_l [ spell false a ]
    in
    let word = List.nth [ "plc"; "power"; "log"; "saturating"; "expsat"; "capped"; "linear" ] kind in
    let* seps = list_repeat (List.length nums) (oneofl [ " "; "  "; "\t"; " \t "; "\t\t" ]) in
    let* lead = oneofl [ ""; " "; "\t" ] in
    let* tail = oneofl [ ""; " "; "\t"; " # a comment 1 2"; "#x"; "\t#\tplc 9" ] in
    return (lead ^ word ^ String.concat "" (List.map2 ( ^ ) seps nums) ^ tail))

let prop_spec_text_replays_like_print =
  let cap = 10.0 in
  QCheck2.Test.make ~name:"parse raw = parse (print (parse raw)) = parse text, bit for bit"
    ~count:300 ~print:(Printf.sprintf "%S") (gen_raw_spec ~cap) (fun raw ->
      let toks = Format_text.tokens raw in
      toks = reference_tokens raw
      &&
      match Format_text.parse_spec ~cap toks with
      | Error e -> QCheck2.Test.fail_reportf "%S rejected: %s" raw e
      | Ok s -> (
          match
            ( Format_text.parse_thread_spec ~cap (Format_text.print_thread_spec s.utility),
              Format_text.parse_thread_spec ~cap s.text )
          with
          | Ok printed, Ok text ->
              same_utility s.utility printed && same_utility s.utility text
              && Format_text.tokens s.text = toks
          | Error e, _ | _, Error e -> QCheck2.Test.fail_reportf "%S: reparse: %s" raw e))

let () =
  Alcotest.run "io"
    [
      ( "instance",
        [
          Alcotest.test_case "parse" `Quick test_parse_basic;
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "error line numbers" `Quick test_error_line_numbers;
          Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
          Alcotest.test_case "missing file" `Quick test_load_missing_file;
        ] );
      ( "thread-spec",
        [
          Alcotest.test_case "roundtrip" `Quick test_thread_spec_roundtrip;
          Alcotest.test_case "errors" `Quick test_thread_spec_errors;
        ] );
      ( "assignment",
        [
          Alcotest.test_case "roundtrip" `Quick test_assignment_roundtrip;
          Alcotest.test_case "gap rejected" `Quick test_assignment_gap_rejected;
        ] );
      Helpers.qsuite "properties"
        [
          prop_thread_spec_roundtrip;
          prop_instance_roundtrip;
          prop_assignment_roundtrip;
          prop_spec_text_replays_like_print;
        ];
    ]
