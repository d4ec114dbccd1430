(* Per-set exact reachability over the VIVU-expanded graph: the
   product of the expanded CFG with the concrete cache automaton of a
   single set, collapsed Touzeau-style — all three supported policies
   are set-partitioned, so references mapping to other sets cannot
   touch the tracked state, and a block is walked through its events
   on the tracked set only.  The walk set
   explored here (DAG plus iteration edges from a cold entry) is
   exactly the one the abstract fixpoint over-approximates, which is
   what makes the exploration's verdicts definitive: a reference that
   hits in every reachable in-state hits on every walk the WCET bound
   ranges over.

   One call explores every focus set of a refinement in one
   topological sweep.  Almost every node expansion of a set is the
   identity (its block has no event on the set), so the per-set
   bookkeeping of an expansion is the cost; sharing the sweep spreads
   it over the sets.  Two tiers:
   - The slab.  While a set has interned at most [Sys.int_size]
     states, its [reached] and [pending] bits at a node are one word,
     and the set is one column of two node-major slabs of one word per
     (node, set).  An expansion reads the node's pending row once, runs
     the memoized transfer only for the sets the block has events on
     (the others pass their bits through), and merges the row into
     each successor.
   - The per-set walk.  A set whose transfer interns a state past its
     word leaves the slab: its column becomes rows of its own, and its
     exploration finishes alone, set-at-a-time over bitsets of as many
     words as its states need, starting with the node being expanded,
     then the rest of the current sweep, then full sweeps.  Departed
     and exhausted sets leave empty columns; the slab is compacted once
     they are more than half of it.
   Sets never interact: a set's pending ids at a node change only
   through its own merges, every sweep visits nodes in topological
   order, and a departing set resumes where it stood.  So each set
   performs the (node, id) expansions of its own walk in the same
   order, and its memo misses, state numbering, [visited] and budget
   cut are that walk's. *)

module Vivu = Ucp_cfg.Vivu
module Program = Ucp_isa.Program
module Layout = Ucp_isa.Layout
module Config = Ucp_cache.Config
module Deadline = Ucp_util.Deadline

type event = Access of { pos : int; mb : int } | Fill of int

(* The events by (block, set) entry: block [b]'s entries are [first.(b)]
   to [first.(b + 1) - 1], in ascending set order; [entry_set] holds
   an entry's set index (into [sets]) and [entry_events] its events in
   slot order. *)
type events = {
  sets : int array;
  first : int array;
  entry_set : int array;
  entry_events : event array array;
}

(* One set's exploration: its states by interned id, its memo misses'
   events, its reached pairs, and, once it left the slab, its own
   reached bitsets, [width] words a node. *)
type set_state = {
  ids : (Ucp_policy.cset, int) Hashtbl.t;
  mutable states : Ucp_policy.cset array;
  mutable steps : int;
  mutable visited : int;
  mutable exhausted : bool;
  mutable width : int;
  mutable rows : int array;
}

(* [col.(i)] is set [i]'s column in the final slab [slab] of [cols]
   words a node, or -1 once it left or exhausted. *)
type r = { per_set : set_state array; col : int array; cols : int; slab : int array }

let default_budget = 32768

(* One pass over the layout's slot table, in the slot order of
   [Analysis.transfer] and the simulator: each slot's demand access,
   then its prefetch fill.  Events of sets not asked for are dropped —
   a set-partitioned policy never lets them touch a tracked state. *)
let events layout config sets =
  let nb = Program.block_count (Layout.program layout) in
  let index = Array.make config.Config.sets (-1) in
  Array.iteri (fun i set -> index.(set) <- i) sets;
  (* the block at hand's events by set index, newest first, and the
     set indices it touched *)
  let acc = Array.make (Array.length sets) [] and touched = ref [] in
  let add mb ev =
    let i = index.(Config.set_of_mem_block config mb) in
    if i >= 0 then begin
      (match acc.(i) with [] -> touched := i :: !touched | _ :: _ -> ());
      acc.(i) <- ev :: acc.(i)
    end
  in
  let first = Array.make (nb + 1) 0 in
  let entries = ref [] and n_entries = ref 0 in
  for block = 0 to nb - 1 do
    first.(block) <- !n_entries;
    let targets = Layout.prefetch_targets layout block in
    Array.iteri
      (fun pos mb ->
        add mb (Access { pos; mb });
        match targets.(pos) with
        | Layout.Target tb -> add tb (Fill tb)
        | Layout.No_target -> ())
      (Layout.slot_mem_blocks layout block);
    List.iter
      (fun i ->
        entries := (i, Array.of_list (List.rev acc.(i))) :: !entries;
        acc.(i) <- [];
        incr n_entries)
      (List.sort Int.compare !touched);
    touched := []
  done;
  first.(nb) <- !n_entries;
  let entries = Array.of_list (List.rev !entries) in
  { sets; first; entry_set = Array.map fst entries; entry_events = Array.map snd entries }

let block_events ev i block =
  let rec find e =
    if e = ev.first.(block + 1) then [||]
    else if ev.entry_set.(e) = i then ev.entry_events.(e)
    else find (e + 1)
  in
  find ev.first.(block)

(* Thread one set's concrete state through a block's events, one
   access each: a fill is an access whose verdict nobody reads.
   [on_access] sees the hit verdict of each demand access — the
   explorer replays converged in-states through this very function,
   so the reachability sweep and the verdict pass can never
   disagree. *)
let transfer (module P : Ucp_policy.POLICY) ~assoc ?on_access events cs0 =
  let cs = ref cs0 in
  for i = 0 to Array.length events - 1 do
    match events.(i) with
    | Access { pos; mb } ->
      let cs', hit, _ = P.cset_access ~assoc !cs mb in
      (match on_access with Some f -> f ~pos ~hit | None -> ());
      cs := cs'
    | Fill mb ->
      let cs', _, _ = P.cset_access ~assoc !cs mb in
      cs := cs'
  done;
  !cs

let word = Sys.int_size

let popcount x =
  let x = ref x and c = ref 0 in
  while !x <> 0 do
    x := !x land (!x - 1);
    incr c
  done;
  !c

(* Set-at-a-time dataflow over (node, state) pairs, per set.  Each
   distinct state is interned once as a dense id, each (block, set)
   entry's transfer is memoized per id, and each node carries the
   bitset of ids reaching it ([reached]) and of those not yet pushed
   through it ([pending]; a node is dirty while it has any).
   Topological sweeps expand the dirty nodes, as [Analysis.run]'s
   fixpoint does: a DAG successor's new ids are expanded later in the
   same sweep, an iteration successor's in the next one.  The reached
   pairs are the closure of the cold entry under the block transfers
   along DAG and iteration edges, whatever order they are found in:
   the pairs a breadth-first search from the same root visits.
   [visited] counts newly set bits, so it and the budget cutoff are
   that search's too: the first time a set's count exceeds [budget],
   [budget + 1] is recorded and its exploration stops. *)
let reachable ?deadline ?(budget = default_budget) ~policy ~assoc ~events:ev vivu =
  let (module P : Ucp_policy.POLICY) = Ucp_policy.find policy in
  let n = Vivu.node_count vivu in
  let ns = Array.length ev.sets in
  let nb = Array.length ev.first - 1 in
  let topo = Vivu.topo vivu in
  let per_set =
    Array.init ns (fun _ ->
        let cold = P.cset_empty ~assoc in
        let ids = Hashtbl.create 16 in
        (* the cold state is id 0 *)
        Hashtbl.add ids cold 0;
        {
          ids;
          states = Array.make 16 cold;
          steps = 0;
          visited = 0;
          exhausted = false;
          width = 0;
          rows = [||];
        })
  in
  let intern st cs =
    match Hashtbl.find_opt st.ids cs with
    | Some id -> id
    | None ->
      let id = Hashtbl.length st.ids in
      if id = Array.length st.states then
        st.states <- Array.append st.states (Array.make id cs);
      st.states.(id) <- cs;
      Hashtbl.add st.ids cs id;
      id
  in
  (* memo.(e).(id): entry [e]'s out-state id from state [id] of its
     set, or -1 before its first transfer *)
  let memo = Array.make ev.first.(nb) [||] in
  let out st e id =
    let m = memo.(e) in
    let m =
      if id < Array.length m then m
      else begin
        let m' = Array.make (max (id + 1) (2 * Array.length m)) (-1) in
        Array.blit m 0 m' 0 (Array.length m);
        memo.(e) <- m';
        m'
      end
    in
    if m.(id) < 0 then begin
      let events = ev.entry_events.(e) in
      st.steps <- st.steps + Array.length events;
      m.(id) <- intern st (transfer (module P) ~assoc events st.states.(id))
    end;
    m.(id)
  in
  let exhaust st =
    st.visited <- budget + 1;
    st.exhausted <- true
  in
  (* The slab: set [i] is column [col.(i)] (-1 once gone) of [cols]
     words a node, column [c] holds set [col_set.(c)] (-1 once gone). *)
  let cols = ref ns and dead = ref 0 in
  let col = Array.init ns Fun.id and col_set = Array.init ns Fun.id in
  let reach = ref (Array.make (n * ns) 0) and pend = ref (Array.make (n * ns) 0) in
  let ndirty = Array.make n false and dirty_nodes = ref 0 in
  (* the expanding node's out-bits by column, zero between expansions,
     and its [n_out] columns with pending ids *)
  let dl = Array.make ns 0 and dc = Array.make ns 0 and n_out = ref 0 in
  let kill c =
    col.(col_set.(c)) <- -1;
    col_set.(c) <- -1;
    incr dead;
    dl.(c) <- 0;
    let p = !pend and w = !cols in
    for u = 0 to n - 1 do
      p.((u * w) + c) <- 0
    done
  in
  let compact () =
    let w = !cols and r = !reach and p = !pend in
    let w' = w - !dead in
    let r' = Array.make (n * w') 0 and p' = Array.make (n * w') 0 in
    let c' = ref 0 in
    for c = 0 to w - 1 do
      let i = col_set.(c) in
      if i >= 0 then begin
        for u = 0 to n - 1 do
          r'.((u * w') + !c') <- r.((u * w) + c);
          p'.((u * w') + !c') <- p.((u * w) + c)
        done;
        col.(i) <- !c';
        col_set.(!c') <- i;
        incr c'
      end
    done;
    Array.fill col_set w' (w - w') (-1);
    reach := r';
    pend := p';
    cols := w';
    dead := 0
  in
  (* Set [i], column [c], interned a state past its word while node
     [v] at [topo.(k)] expanded its pending ids [bits].  Its column
     becomes rows of its own and its exploration finishes alone: [v]
     again (its transfers so far are memo hits), the rest of the sweep,
     then full sweeps. *)
  let walk i c k v bits =
    let st = per_set.(i) in
    let entry_of = Array.make nb (-1) in
    for b = 0 to nb - 1 do
      for e = ev.first.(b) to ev.first.(b + 1) - 1 do
        if ev.entry_set.(e) = i then entry_of.(b) <- e
      done
    done;
    let width = ref 1 in
    let reached = ref (Array.make n 0) and pending = ref (Array.make n 0) in
    let dirty = Array.make n false and dirty_count = ref 0 in
    let w0 = !cols in
    for u = 0 to n - 1 do
      !reached.(u) <- !reach.((u * w0) + c);
      let x = if u = v then bits else !pend.((u * w0) + c) in
      !pending.(u) <- x;
      if x <> 0 then begin
        dirty.(u) <- true;
        incr dirty_count
      end
    done;
    kill c;
    (* the out-states of the ids one node expands; all zero between
       expansions *)
    let delta = ref [| 0 |] in
    let widen () =
      let w = !width and w' = 2 * !width in
      let grow a =
        let b = Array.make (n * w') 0 in
        for u = 0 to n - 1 do
          Array.blit a (u * w) b (u * w') w
        done;
        b
      in
      reached := grow !reached;
      pending := grow !pending;
      width := w';
      if Array.length !delta < w' then
        delta := Array.append !delta (Array.make (w' - Array.length !delta) 0)
    in
    let merge u =
      let r = !reached and p = !pending and d = !delta and base = u * !width in
      for w = 0 to !width - 1 do
        let fresh = d.(w) land lnot r.(base + w) in
        if fresh <> 0 then begin
          r.(base + w) <- r.(base + w) lor fresh;
          p.(base + w) <- p.(base + w) lor fresh;
          st.visited <- st.visited + popcount fresh;
          if not dirty.(u) then begin
            dirty.(u) <- true;
            incr dirty_count
          end
        end
      done;
      if st.visited > budget then exhaust st
    in
    let expand u =
      dirty.(u) <- false;
      decr dirty_count;
      let e = entry_of.((Vivu.node vivu u).Vivu.block) in
      let p = !pending and base = u * !width in
      if e < 0 then
        (* no event on this set: the identity *)
        for w = 0 to !width - 1 do
          !delta.(w) <- p.(base + w);
          p.(base + w) <- 0
        done
      else
        for w = 0 to !width - 1 do
          let x = ref p.(base + w) and id = ref (w * word) in
          p.(base + w) <- 0;
          while !x <> 0 do
            if !x land 1 <> 0 then begin
              let o = out st e !id in
              while o / word >= Array.length !delta do
                delta := Array.append !delta (Array.make (Array.length !delta) 0)
              done;
              !delta.(o / word) <- !delta.(o / word) lor (1 lsl (o mod word))
            end;
            x := !x lsr 1;
            incr id
          done
        done;
      while Hashtbl.length st.ids > !width * word do
        widen ()
      done;
      List.iter merge (Vivu.dag_succ vivu u);
      List.iter merge (Vivu.iter_succ vivu u);
      Array.fill !delta 0 !width 0
    in
    Deadline.check deadline;
    expand v;
    let expansions = ref 0 in
    let visit k =
      let u = topo.(k) in
      if dirty.(u) && not st.exhausted then begin
        incr expansions;
        if !expansions land 255 = 0 then Deadline.check deadline;
        expand u
      end
    in
    for k = k + 1 to n - 1 do
      visit k
    done;
    while !dirty_count > 0 && not st.exhausted do
      for k = 0 to n - 1 do
        visit k
      done
    done;
    st.width <- !width;
    st.rows <- !reached
  in
  let merge u =
    let w = !cols and r = !reach and p = !pend in
    let base = u * w in
    let fresh_any = ref false in
    for j = 0 to !n_out - 1 do
      let c = dc.(j) in
      let d = dl.(c) in
      if d <> 0 then begin
        let old = r.(base + c) in
        let fresh = d land lnot old in
        if fresh <> 0 then begin
          r.(base + c) <- old lor fresh;
          p.(base + c) <- p.(base + c) lor fresh;
          fresh_any := true;
          let st = per_set.(col_set.(c)) in
          st.visited <- st.visited + popcount fresh;
          if st.visited > budget then begin
            exhaust st;
            kill c
          end
        end
      end
    done;
    if !fresh_any && not ndirty.(u) then begin
      ndirty.(u) <- true;
      incr dirty_nodes
    end
  in
  let expand k v =
    ndirty.(v) <- false;
    decr dirty_nodes;
    let w = !cols and p = !pend in
    let base = v * w in
    n_out := 0;
    for c = 0 to w - 1 do
      let x = p.(base + c) in
      if x <> 0 then begin
        p.(base + c) <- 0;
        dl.(c) <- x;
        dc.(!n_out) <- c;
        incr n_out
      end
    done;
    if !n_out > 0 then begin
      let block = (Vivu.node vivu v).Vivu.block in
      for e = ev.first.(block) to ev.first.(block + 1) - 1 do
        let i = ev.entry_set.(e) in
        let c = col.(i) in
        if c >= 0 && dl.(c) <> 0 then begin
          let st = per_set.(i) and bits = dl.(c) in
          let x = ref bits and id = ref 0 and d = ref 0 and outgrown = ref false in
          while !x <> 0 do
            if !x land 1 <> 0 then begin
              let o = out st e !id in
              if o < word then d := !d lor (1 lsl o)
              else begin
                outgrown := true;
                x := 1
              end
            end;
            x := !x lsr 1;
            incr id
          done;
          if !outgrown then walk i c k v bits else dl.(c) <- !d
        end
      done;
      List.iter merge (Vivu.dag_succ vivu v);
      List.iter merge (Vivu.iter_succ vivu v);
      for j = 0 to !n_out - 1 do
        dl.(dc.(j)) <- 0
      done
    end
  in
  if ns > 0 then begin
    Deadline.check deadline;
    let entry = Vivu.entry vivu in
    for c = 0 to ns - 1 do
      !reach.((entry * ns) + c) <- 1;
      !pend.((entry * ns) + c) <- 1;
      let st = per_set.(c) in
      st.visited <- 1;
      if st.visited > budget then begin
        exhaust st;
        kill c
      end
    done;
    ndirty.(entry) <- true;
    dirty_nodes := 1
  end;
  (* the sweeps, one lap of [topo] each, until no set has pending ids *)
  let k = ref 0 and expansions = ref 0 in
  while !dirty_nodes > 0 && !cols > !dead do
    let v = topo.(!k) in
    if ndirty.(v) then begin
      incr expansions;
      if !expansions land 255 = 0 then Deadline.check deadline;
      expand !k v;
      if 2 * !dead > !cols then compact ()
    end;
    k := if !k = n - 1 then 0 else !k + 1
  done;
  { per_set; col; cols = !cols; slab = !reach }

let visited r i = r.per_set.(i).visited
let exhausted r i = r.per_set.(i).exhausted
let steps r i = r.per_set.(i).steps

let in_states r i v =
  let st = r.per_set.(i) in
  let acc = ref [] in
  let decode bits first_id =
    for b = word - 1 downto 0 do
      if bits land (1 lsl b) <> 0 then acc := st.states.(first_id + b) :: !acc
    done
  in
  if r.col.(i) >= 0 then decode r.slab.((v * r.cols) + r.col.(i)) 0
  else
    for w = st.width - 1 downto 0 do
      decode st.rows.((v * st.width) + w) (w * word)
    done;
  !acc
