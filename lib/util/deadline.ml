type t = float (* absolute Clock.now_s target *)

exception Deadline_exceeded

let after secs =
  if not (secs > 0.0 && Float.is_finite secs) then
    invalid_arg "Deadline.after: seconds must be positive and finite";
  Clock.now_s () +. secs

let expired d = Clock.now_s () > d

let check = function
  | None -> ()
  | Some d -> if expired d then raise Deadline_exceeded

let remaining d = d -. Clock.now_s ()
