type kind =
  | Compute
  | Prefetch of int

type t = { uid : int; kind : kind }

let compute ~uid = { uid; kind = Compute }

let prefetch ~uid ~target = { uid; kind = Prefetch target }

let is_prefetch t = match t.kind with Prefetch _ -> true | Compute -> false

let bytes = 4

let pp ppf t =
  match t.kind with
  | Compute -> Format.fprintf ppf "i%d" t.uid
  | Prefetch target -> Format.fprintf ppf "pf(i%d)@i%d" target t.uid
