(* CRC-32 (IEEE 802.3, polynomial 0xEDB88320, reflected), table-driven.
   Computed in a native int and masked to 32 bits, so no int32 boxing
   on the per-byte hot path. *)

let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let mask = 0xFFFFFFFF

let update crc s =
  let crc = ref (crc lxor mask) in
  String.iter
    (fun ch -> crc := table.((!crc lxor Char.code ch) land 0xff) lxor (!crc lsr 8))
    s;
  (!crc lxor mask) land mask

let string s = update 0 s
let to_hex c = Printf.sprintf "%08x" (c land mask)
