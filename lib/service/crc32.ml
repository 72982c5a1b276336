(* Table-driven CRC-32 (reflected, polynomial 0xEDB88320) in plain int
   arithmetic: every intermediate fits comfortably in OCaml's 63-bit
   native int, so no boxed Int32 round trips on the journal hot path. *)

let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let update crc s =
  let c = ref (crc lxor 0xFFFFFFFF) in
  for i = 0 to String.length s - 1 do
    c := table.((!c lxor Char.code s.[i]) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let string s = update 0 s

let to_hex c = Printf.sprintf "%08x" (c land 0xFFFFFFFF)
