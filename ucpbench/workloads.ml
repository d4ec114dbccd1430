(* The benchmark's workloads and the inputs each one derives from the
   seed.

   The three batch workloads evaluate a fixed population of use cases:
   the seed only permutes the order of its (program, configuration,
   policy) groups.  Per-case cost in this repository spans five orders
   of magnitude (nsichneu:k3 alone takes ~19 s, most cases take
   milliseconds), so a population that the seed re-draws moves a pass's
   wall time by 30-90 % between seeds and would hide any regression
   smaller than that; a fixed population makes every seed measure the
   same work and lets each pass pin one record-stream digest.

   Each population is sized so that a pass takes 3-6 s at nominal host
   speed: a run then repeats it at least twice, and the per-pass
   figures it reports are medians over the passes.

   The serve workload draws its warm query stream from the seed: a
   Zipf(1) stream over a fixed set of 64 case ids, whose popularity
   order the seed permutes. *)

module Config = Ucp_cache.Config
module Experiments = Ucp_core.Experiments
module Program = Ucp_isa.Program
module Rng = Ucp_util.Rng
module Suite = Ucp_workloads.Suite
module Tech = Ucp_energy.Tech

type batch = {
  slices : ((string * Program.t) list * (string * Config.t) list) list;
      (** programs × configurations, in sweep order *)
  policies : Ucp_policy.id list;
  audit : bool;
}

type kind = Batch of batch | Serve
type t = { name : string; kind : kind }

(* statemate and nsichneu are the only programs of 2000 slots or more.
   One of their cases costs as much as a whole pass of the other 35
   programs at the same configuration, and one audited FIFO/PLRU case
   of theirs more than a whole policies-audit pass; a cold one would
   stall the serve workload. *)
let bounded_programs =
  List.filter (fun (_, p) -> Program.total_slots p < 2000) Suite.all

let configs ids = List.map (fun id -> (id, List.assoc id Config.paper_configs)) ids

let all =
  [
    (* 256 B and 512 B direct-mapped caches: many prefetch candidates, so
       the optimizer and its per-round re-analyses dominate.  The two
       large programs are left to lru-large. *)
    {
      name = "lru-small";
      kind =
        Batch
          {
            slices = [ (bounded_programs, configs [ "k4"; "k10" ]) ];
            policies = [ Ucp_policy.Lru ];
            audit = false;
          };
    };
    (* 8 KiB caches: the programs mostly fit, the optimizer finds little,
       and the exact refinement of the two large programs' unclassified
       references dominates.  They run at the 2-way configuration only;
       the other programs also at the direct-mapped and 4-way ones, which
       cost little and give the percentiles more cases. *)
    {
      name = "lru-large";
      kind =
        Batch
          {
            slices = [ (Suite.all, configs [ "k35" ]); (bounded_programs, configs [ "k34"; "k36" ]) ];
            policies = [ Ucp_policy.Lru ];
            audit = false;
          };
    };
    (* the non-LRU domains (FIFO forces the may analysis) of 8 KiB 2- and
       4-way caches under full certification: the only workload where
       the audit runs *)
    {
      name = "policies-audit";
      kind =
        Batch
          {
            slices = [ (bounded_programs, configs [ "k35"; "k36" ]) ];
            policies = [ Ucp_policy.Fifo; Ucp_policy.Plru ];
            audit = true;
          };
    };
    { name = "serve-mix"; kind = Serve };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* one generator per (seed, workload): workloads never share a stream *)
let rng ~seed name = Rng.create ((seed * 1_000_003) lxor Hashtbl.hash name)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* {2 Batch populations} *)

type population = {
  cases : Experiments.case array;  (** sweep order, the digest's order *)
  groups : int array array;
      (** indices into [cases] sharing one memoized analysis (the
          technology axis of one program, configuration and policy),
          in sweep order *)
}

let batch_configs b = List.sort_uniq compare (List.concat_map snd b.slices)

let population b =
  let cases =
    Array.concat
      (List.map
         (fun (programs, configs) ->
           Experiments.cases ~policies:b.policies ~programs ~configs ~techs:Tech.all ())
         b.slices)
  in
  let key (c : Experiments.case) =
    (c.case_program_name, c.case_config_id, c.case_policy)
  in
  let order = ref [] and members = Hashtbl.create 256 in
  Array.iteri
    (fun i c ->
      let k = key c in
      match Hashtbl.find_opt members k with
      | Some l -> Hashtbl.replace members k (i :: l)
      | None ->
        order := k :: !order;
        Hashtbl.add members k [ i ])
    cases;
  let groups =
    Array.of_list
      (List.rev_map
         (fun k -> Array.of_list (List.rev (Hashtbl.find members k)))
         !order)
  in
  { cases; groups }

(* the order one run evaluates the groups in *)
let group_order ~seed name pop =
  let order = Array.copy pop.groups in
  shuffle (rng ~seed name) order;
  order

(* {2 Serve inputs} *)

let cold_ids = 64
let warm_queries = 8000

let serve_universe =
  lazy
    (Array.map Experiments.case_id
       (Experiments.cases ~programs:bounded_programs ~configs:Config.paper_configs
          ~techs:Tech.all ()))

(* [cold_ids] distinct LRU case ids, then [warm_queries] draws Zipf(1)
   over them: the id at rank r is asked with probability proportional
   to 1/(r+1).  The ids are one fixed draw (a partial Fisher-Yates
   shuffle of the universe under generator seed 0), so every seed gives
   the daemon the same cases to compute and hold in memory; the run's
   seed permutes them, which sets the cold request order and which ids
   the Zipf stream makes popular. *)
let serve_inputs ~seed name =
  let u = Array.copy (Lazy.force serve_universe) in
  let fixed = rng ~seed:0 name in
  let n = Array.length u in
  for i = 0 to cold_ids - 1 do
    let j = i + Rng.int fixed (n - i) in
    let x = u.(i) in
    u.(i) <- u.(j);
    u.(j) <- x
  done;
  let ids = Array.sub u 0 cold_ids in
  let rng = rng ~seed name in
  shuffle rng ids;
  let cumulative = Array.make cold_ids 0.0 in
  let total = ref 0.0 in
  for r = 0 to cold_ids - 1 do
    total := !total +. (1.0 /. float_of_int (r + 1));
    cumulative.(r) <- !total
  done;
  let draw () =
    let x = Rng.float rng !total in
    let rec find r = if r = cold_ids - 1 || x < cumulative.(r) then r else find (r + 1) in
    find 0
  in
  (ids, Array.init warm_queries (fun _ -> ids.(draw ())))
