type t =
  | Always_hit
  | Always_miss
  | Not_classified

let is_wcet_miss = function
  | Always_hit -> false
  | Always_miss | Not_classified -> true

let to_string = function
  | Always_hit -> "AH"
  | Always_miss -> "AM"
  | Not_classified -> "NC"
