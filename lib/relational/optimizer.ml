(** Plan rewrites.

    The binder emits a naive plan: every WHERE conjunct sits at the join
    step where its slots are first all available, scans read full rows,
    joins are nested loops. This module rewrites that plan:

    - {b constant folding} — subtrees whose children are all literal fold
      to their value; a subtree that would raise (e.g. [1/0]) is left
      unfolded so the error still surfaces per evaluated row;
    - {b predicate pushdown} — single-slot conjuncts move into the slot's
      scan, rebased to the slot-local layout;
    - {b equi-join-key extraction} — conjuncts of shape
      [prefix_expr = slot_expr] at a join step become hash keys;
    - {b projection pruning} — multi-slot selects narrow each slot to the
      columns the rest of the plan references, remapping every
      final-layout field.

    Rewrites are semantics-preserving by construction; the differential
    test in [test/test_plan_diff.ml] checks optimized output (rows,
    lineage, source tids) against the un-optimized binder output. *)

let is_const = function Plan.Const _ -> true | _ -> false

(* Fold bottom-up. A node folds only when all direct children are already
   constants (sound because children fold first); evaluation happens via
   the compiled closure on empty environments, and any SQL error means
   the node keeps its symbolic form. *)
let rec fold (p : Plan.pexpr) : Plan.pexpr =
  match p with
  | Plan.Const _ | Plan.Field _ | Plan.Rep_field _ | Plan.Agg_ref _
  | Plan.Agg_outside | Plan.Exec _ ->
    (* [Exec] reads exec-time state (the clock), so it never folds —
       freezing it would pin the plan to one tick. *)
    p
  | Plan.Binop (op, a, b) ->
    let a = fold a and b = fold b in
    let p' = Plan.Binop (op, a, b) in
    if is_const a && is_const b then try_const p' else p'
  | Plan.Unop (op, a) ->
    let a = fold a in
    let p' = Plan.Unop (op, a) in
    if is_const a then try_const p' else p'
  | Plan.Fn (name, args) ->
    let args = List.map fold args in
    let p' = Plan.Fn (name, args) in
    if List.for_all is_const args then try_const p' else p'
  | Plan.Case (branches, default) ->
    let branches = List.map (fun (c, v) -> (fold c, fold v)) branches in
    let default = Option.map fold default in
    let p' = Plan.Case (branches, default) in
    if
      List.for_all (fun (c, v) -> is_const c && is_const v) branches
      && (match default with None -> true | Some d -> is_const d)
    then try_const p'
    else p'

and try_const (p : Plan.pexpr) : Plan.pexpr =
  try Plan.Const (Compile.compile_expr p [||] [||])
  with Errors.Sql_error _ -> p

(* Shift final-layout fields to a slot-local layout (for predicates that
   move inside a single slot's scan, or to the build side of a join). *)
let rec rebase (off : int) (p : Plan.pexpr) : Plan.pexpr =
  match p with
  | Plan.Const _ | Plan.Agg_ref _ | Plan.Agg_outside | Plan.Exec _ -> p
  | Plan.Field i -> Plan.Field (i - off)
  | Plan.Rep_field i -> Plan.Rep_field (i - off)
  | Plan.Binop (op, a, b) -> Plan.Binop (op, rebase off a, rebase off b)
  | Plan.Unop (op, a) -> Plan.Unop (op, rebase off a)
  | Plan.Fn (name, args) -> Plan.Fn (name, List.map (rebase off) args)
  | Plan.Case (branches, default) ->
    Plan.Case
      ( List.map (fun (c, v) -> (rebase off c, rebase off v)) branches,
        Option.map (rebase off) default )

(* Renumber final-layout fields through a pruning map. *)
let rec remap (tbl : int array) (p : Plan.pexpr) : Plan.pexpr =
  match p with
  | Plan.Const _ | Plan.Agg_ref _ | Plan.Agg_outside | Plan.Exec _ -> p
  | Plan.Field i -> Plan.Field tbl.(i)
  | Plan.Rep_field i -> Plan.Rep_field tbl.(i)
  | Plan.Binop (op, a, b) -> Plan.Binop (op, remap tbl a, remap tbl b)
  | Plan.Unop (op, a) -> Plan.Unop (op, remap tbl a)
  | Plan.Fn (name, args) -> Plan.Fn (name, List.map (remap tbl) args)
  | Plan.Case (branches, default) ->
    Plan.Case
      ( List.map (fun (c, v) -> (remap tbl c, remap tbl v)) branches,
        Option.map (remap tbl) default )

let mark_fields (used : bool array) (p : Plan.pexpr) : unit =
  let rec walk = function
    | Plan.Const _ | Plan.Agg_ref _ | Plan.Agg_outside | Plan.Exec _ -> ()
    | Plan.Field i | Plan.Rep_field i -> used.(i) <- true
    | Plan.Binop (_, a, b) ->
      walk a;
      walk b
    | Plan.Unop (_, a) -> walk a
    | Plan.Fn (_, args) -> List.iter walk args
    | Plan.Case (branches, default) ->
      List.iter
        (fun (c, v) ->
          walk c;
          walk v)
        branches;
      Option.iter walk default
  in
  walk p

let fold_finish (f : Plan.finish) : Plan.finish =
  {
    f with
    projs = List.map fold f.Plan.projs;
    group_by = List.map fold f.Plan.group_by;
    aggs =
      Array.map
        (fun (a : Plan.agg_spec) -> { a with Plan.arg = Option.map fold a.Plan.arg })
        f.Plan.aggs;
    having = Option.map fold f.Plan.having;
    order_by =
      List.map
        (fun (k, dir) ->
          ( (match k with
            | Plan.By_expr p -> Plan.By_expr (fold p)
            | (Plan.By_output _ | Plan.By_null) as k -> k),
            dir ))
        f.Plan.order_by;
    distinct =
      (match f.Plan.distinct with
      | Plan.D_on keys -> Plan.D_on (List.map fold keys)
      | d -> d);
  }

let map_finish fn (f : Plan.finish) : Plan.finish =
  {
    f with
    projs = List.map fn f.Plan.projs;
    group_by = List.map fn f.Plan.group_by;
    aggs =
      Array.map
        (fun (a : Plan.agg_spec) -> { a with Plan.arg = Option.map fn a.Plan.arg })
        f.Plan.aggs;
    having = Option.map fn f.Plan.having;
    order_by =
      List.map
        (fun (k, dir) ->
          ( (match k with
            | Plan.By_expr p -> Plan.By_expr (fn p)
            | (Plan.By_output _ | Plan.By_null) as k -> k),
            dir ))
        f.Plan.order_by;
    distinct =
      (match f.Plan.distinct with
      | Plan.D_on keys -> Plan.D_on (List.map fn keys)
      | d -> d);
  }

let iter_finish fn (f : Plan.finish) : unit =
  List.iter fn f.Plan.projs;
  List.iter fn f.Plan.group_by;
  Array.iter
    (fun (a : Plan.agg_spec) -> Option.iter fn a.Plan.arg)
    f.Plan.aggs;
  Option.iter fn f.Plan.having;
  List.iter
    (fun (k, _) -> match k with Plan.By_expr p -> fn p | _ -> ())
    f.Plan.order_by;
  match f.Plan.distinct with
  | Plan.D_on keys -> List.iter fn keys
  | _ -> ()

(* Dynamic probe keys: slot-free expressions carrying an [Exec] leaf,
   re-evaluated at probe time. Only the grammar below qualifies —
   [Exec] never raises by contract, numeric/NULL literals and [+]/[-]
   over them never raise either (NULL propagates, ints promote), so
   turning a filter into a probe cannot surface an error on an empty
   table that the never-evaluated filter would not have raised. *)
let rec never_raises (p : Plan.pexpr) : bool =
  match p with
  | Plan.Exec _ -> true
  | Plan.Const (Value.Int _ | Value.Float _ | Value.Null) -> true
  | Plan.Binop ((Ast.Add | Ast.Sub), a, b) -> never_raises a && never_raises b
  | _ -> false

let rec has_exec (p : Plan.pexpr) : bool =
  match p with
  | Plan.Exec _ -> true
  | Plan.Const _ | Plan.Field _ | Plan.Rep_field _ | Plan.Agg_ref _
  | Plan.Agg_outside ->
    false
  | Plan.Binop (_, a, b) -> has_exec a || has_exec b
  | Plan.Unop (_, a) -> has_exec a
  | Plan.Fn (_, args) -> List.exists has_exec args
  | Plan.Case (branches, default) ->
    List.exists (fun (c, v) -> has_exec c || has_exec v) branches
    || (match default with None -> false | Some d -> has_exec d)

let dyn_key (p : Plan.pexpr) : bool = has_exec p && never_raises p

(* Access-path selection helper: given a scan's pushed-down conjuncts
   (slot-local, i.e. [Field i] is table column [i]), pick an index probe
   and return it with the conjuncts left over as ordinary filters.

   The first [col = const] conjunct over an indexed column wins (hash
   preferred, sorted serves equality too); failing that, every range
   conjunct ([</<=/>/>=] against a constant) over the first sorted-indexed
   column is folded into one [Index_range] whose bounds are the tightest
   combination. NULL constants are ineligible: the comparison is false
   for every row, and leaving the conjunct as a filter preserves that.

   Only when no constant probe exists, a {!dyn_key} conjunct may probe
   instead (the clock-elimination rewrite plants those): first a
   [col = dyn] equality, then dynamic bounds over the first
   sorted-indexed column with one — at most one lower and one upper
   bound, untightened (dynamic bounds cannot be compared at plan time),
   the rest staying filters. A dynamic key evaluating to NULL at probe
   time yields no rows, matching the filter it replaced. *)
let select_access (table : Table.t) (preds : Plan.pexpr list) :
    (Plan.access * Plan.pexpr list) option =
  let index_for col ~range =
    let candidates = Table.index_on table ~column:col in
    if range then List.find_opt (fun ix -> Index.kind ix = Index.Sorted) candidates
    else
      match List.find_opt (fun ix -> Index.kind ix = Index.Hash) candidates with
      | Some ix -> Some ix
      | None -> List.nth_opt candidates 0
  in
  let eq_probe = function
    | Plan.Binop (Ast.Eq, Plan.Field i, (Plan.Const v as k))
    | Plan.Binop (Ast.Eq, (Plan.Const v as k), Plan.Field i)
      when not (Value.is_null v) -> (
      match index_for i ~range:false with
      | Some ix -> Some (Plan.Index_eq { index = Index.name ix; key = k })
      | None -> None)
    | _ -> None
  in
  let rec split_eq before = function
    | [] -> None
    | p :: rest -> (
      match eq_probe p with
      | Some access -> Some (access, List.rev_append before rest)
      | None -> split_eq (p :: before) rest)
  in
  let dyn_eq_probe p =
    (* Two clauses, not an or-pattern: a failed [when] guard abandons
       the whole clause rather than retrying the other alternative. *)
    match p with
    | Plan.Binop (Ast.Eq, Plan.Field i, k) when dyn_key k -> (
      match index_for i ~range:false with
      | Some ix -> Some (Plan.Index_eq { index = Index.name ix; key = k })
      | None -> None)
    | Plan.Binop (Ast.Eq, k, Plan.Field i) when dyn_key k -> (
      match index_for i ~range:false with
      | Some ix -> Some (Plan.Index_eq { index = Index.name ix; key = k })
      | None -> None)
    | _ -> None
  in
  let dyn_bound_of p =
    match p with
    | Plan.Binop (op, Plan.Field i, k) when dyn_key k -> (
      match op with
      | Ast.Lt -> Some (i, `Hi (k, false))
      | Ast.Le -> Some (i, `Hi (k, true))
      | Ast.Gt -> Some (i, `Lo (k, false))
      | Ast.Ge -> Some (i, `Lo (k, true))
      | _ -> None)
    | Plan.Binop (op, k, Plan.Field i) when dyn_key k -> (
      match op with
      | Ast.Lt -> Some (i, `Lo (k, false))
      | Ast.Le -> Some (i, `Lo (k, true))
      | Ast.Gt -> Some (i, `Hi (k, false))
      | Ast.Ge -> Some (i, `Hi (k, true))
      | _ -> None)
    | _ -> None
  in
  let dyn_probe () =
    let rec split_dyn_eq before = function
      | [] -> None
      | p :: rest -> (
        match dyn_eq_probe p with
        | Some access -> Some (access, List.rev_append before rest)
        | None -> split_dyn_eq (p :: before) rest)
    in
    match split_dyn_eq [] preds with
    | Some r -> Some r
    | None -> (
      let target =
        List.find_map
          (fun p ->
            match dyn_bound_of p with
            | Some (i, _) when index_for i ~range:true <> None -> Some i
            | _ -> None)
          preds
      in
      match target with
      | None -> None
      | Some col ->
        let ix = Option.get (index_for col ~range:true) in
        let lo = ref None and hi = ref None in
        let remaining =
          List.filter
            (fun p ->
              match dyn_bound_of p with
              | Some (i, `Lo b) when i = col && Option.is_none !lo ->
                lo := Some b;
                false
              | Some (i, `Hi b) when i = col && Option.is_none !hi ->
                hi := Some b;
                false
              | _ -> true)
            preds
        in
        Some (Plan.Index_range { index = Index.name ix; lo = !lo; hi = !hi }, remaining))
  in
  match split_eq [] preds with
  | Some r -> Some r
  | None ->
    let bound_of = function
      | Plan.Binop (op, Plan.Field i, Plan.Const v) when not (Value.is_null v) -> (
        match op with
        | Ast.Lt -> Some (i, `Hi (v, false))
        | Ast.Le -> Some (i, `Hi (v, true))
        | Ast.Gt -> Some (i, `Lo (v, false))
        | Ast.Ge -> Some (i, `Lo (v, true))
        | _ -> None)
      | Plan.Binop (op, Plan.Const v, Plan.Field i) when not (Value.is_null v) -> (
        match op with
        | Ast.Lt -> Some (i, `Lo (v, false))
        | Ast.Le -> Some (i, `Lo (v, true))
        | Ast.Gt -> Some (i, `Hi (v, false))
        | Ast.Ge -> Some (i, `Hi (v, true))
        | _ -> None)
      | _ -> None
    in
    let target =
      List.find_map
        (fun p ->
          match bound_of p with
          | Some (i, _) when index_for i ~range:true <> None -> Some i
          | _ -> None)
        preds
    in
    (match target with
    | None -> dyn_probe ()
    | Some col ->
      let ix = Option.get (index_for col ~range:true) in
      let lo = ref None and hi = ref None in
      (* Tightest bound wins; on equal values an exclusive bound is
         tighter than an inclusive one. *)
      let tighter_lo (v, incl) =
        match !lo with
        | None -> lo := Some (v, incl)
        | Some (v0, i0) ->
          let c = Value.compare v v0 in
          if c > 0 || (c = 0 && i0 && not incl) then lo := Some (v, incl)
      in
      let tighter_hi (v, incl) =
        match !hi with
        | None -> hi := Some (v, incl)
        | Some (v0, i0) ->
          let c = Value.compare v v0 in
          if c < 0 || (c = 0 && i0 && not incl) then hi := Some (v, incl)
      in
      let remaining =
        List.filter
          (fun p ->
            match bound_of p with
            | Some (i, b) when i = col ->
              (match b with `Lo b -> tighter_lo b | `Hi b -> tighter_hi b);
              false
            | _ -> true)
          preds
      in
      let wrap = Option.map (fun (v, incl) -> (Plan.Const v, incl)) in
      Some
        ( Plan.Index_range { index = Index.name ix; lo = wrap !lo; hi = wrap !hi },
          remaining ))

(* How sensitive a policy's carried delta state is to mutations of one
   dependency table. Each kind names the set of version counters whose
   movement invalidates the state; the kinds are totally ordered by
   sensitivity and a policy whose branches disagree takes the maximum. *)
type dep_kind =
  | Dep_plain  (** any mutation invalidates ({!Table.ver_mut}) *)
  | Dep_log
      (** non-append mutations that can grow a monotone result invalidate
          ({!Table.ver_unsafe}); appends are covered by the watermark *)
  | Dep_log_exact
      (** [Dep_log] plus predicate deletion ({!Table.ver_del}): carried
          SUM/COUNT/AVG accumulators cannot subtract removed rows, but
          witness-driven compaction retains every contributing row, so
          [retain_tids] leaves them exact *)
  | Dep_log_frozen
      (** [Dep_log_exact] plus compaction ({!Table.ver_compact}):
          MIN/MAX state treats any removal as invalidating *)

(* Compiled-later description of an aggregate policy's delta evaluation:
   telescoped variant streams emit one row [group_by values @ agg args]
   per joined tuple containing at least one delta-bound log slot; the
   engine folds those rows into scratch clones of the carried per-group
   accumulators and re-checks HAVING/projections only for touched
   groups. *)
type agg_delta = {
  ad_variants : Plan.query list;
      (** one per log slot: that slot [Delta], earlier log slots [Heap],
          later log slots [Below] — each delta-bound joined tuple
          appears in exactly one variant *)
  ad_full : Plan.query;
      (** the same stream over the full state (all-[Heap]); establishes
          rebuild carried accumulators from it when the base is invalid *)
  ad_nkeys : int;  (** leading group-key values per stream row *)
  ad_specs : (Ast.agg * bool) array;
      (** aggregate function and DISTINCT flag per trailing stream
          column, in {!Plan.finish.aggs} order *)
  ad_width : int;  (** full row-layout width, for representative rows *)
  ad_rep_slots : int option list;
      (** per group-by position: [Some i] when the key expression is
          the bare [Field i], recovering the representative cell *)
  ad_finish : Plan.finish;
      (** the policy's own finish: HAVING and projections are
          re-evaluated per touched group over (rep, agg values) *)
}

type delta_branch =
  | B_spj of Plan.query list
      (** monotone select-project-join: per-log-slot [Delta] variants *)
  | B_residual of { plan : Plan.query; clock_table : string }
      (** clock-eliminated exact recompute; sound only while the clock
          relation holds exactly one row (engine-checked per eval) *)
  | B_agg of agg_delta

type delta_plans = {
  deps : (string * dep_kind) list;
  branches : delta_branch list;
}

let rec optimize (cat : Catalog.t) (q : Plan.query) : Plan.query =
  match q with
  | Plan.Union { all; left; right } ->
    Plan.Union { all; left = optimize cat left; right = optimize cat right }
  | Plan.Select sp -> Plan.Select (optimize_select cat sp)

and optimize_select (cat : Catalog.t) (sp : Plan.select_plan) : Plan.select_plan =
  let slots =
    Array.map
      (fun (sl : Plan.slot) ->
        match sl.Plan.source with
        | Plan.Scan _ -> sl
        | Plan.Sub q -> { sl with Plan.source = Plan.Sub (optimize cat q) })
      sp.Plan.slots
  in
  let nslots = Array.length slots in
  let offsets = Plan.full_offsets slots in
  let widths = Array.map (fun (sl : Plan.slot) -> Array.length sl.Plan.cols) slots in
  let total = Array.fold_left ( + ) 0 widths in
  (* Fold every expression first: folding can simplify conjuncts before
     placement decisions. *)
  let const_preds = List.map fold sp.Plan.const_preds in
  let joins =
    Array.map
      (fun (j : Plan.jstep) ->
        { j with Plan.residual = List.map fold j.Plan.residual })
      sp.Plan.joins
  in
  let finish = fold_finish sp.Plan.finish in
  (* Pushdown + equi-key extraction per join step. Single-slot conjuncts
     always reference the step's own slot (naive placement put them at
     the step where their last slot appears), so they push into its scan.
     Of the rest, [prefix = this-slot] equalities become hash keys. *)
  let scan_preds = Array.make (max nslots 1) [] in
  let joins =
    Array.mapi
      (fun si (j : Plan.jstep) ->
        let keys, residual =
          List.fold_left
            (fun (keys, residual) p ->
              match Plan.slots_of_pexpr offsets widths p with
              | [ s ] when s = si ->
                scan_preds.(si) <-
                  scan_preds.(si) @ [ rebase offsets.(si) p ];
                (keys, residual)
              | _ -> (
                match p with
                | Plan.Binop (Ast.Eq, a, b) -> (
                  let sa = Plan.slots_of_pexpr offsets widths a in
                  let sb = Plan.slots_of_pexpr offsets widths b in
                  let in_prefix ss =
                    ss <> [] && List.for_all (fun s -> s < si) ss
                  in
                  let on_slot ss = ss = [ si ] in
                  if si > 0 && in_prefix sa && on_slot sb then
                    ((a, rebase offsets.(si) b) :: keys, residual)
                  else if si > 0 && in_prefix sb && on_slot sa then
                    ((b, rebase offsets.(si) a) :: keys, residual)
                  else (keys, p :: residual))
                | _ -> (keys, p :: residual)))
            ([], []) j.Plan.residual
        in
        { Plan.keys = List.rev keys; residual = List.rev residual })
      joins
  in
  let scan_preds =
    if nslots = 0 then sp.Plan.scan_preds else Array.sub scan_preds 0 nslots
  in
  (* Access-path selection: pushed-down conjuncts hitting an indexed
     column turn the heap scan into an index probe; the consumed conjuncts
     disappear from [scan_preds], the rest stay as filters over the
     probe's result. *)
  let slots =
    Array.mapi
      (fun si (sl : Plan.slot) ->
        match sl.Plan.source with
        | Plan.Scan (tname, Plan.Heap) when scan_preds.(si) <> [] -> (
          match Catalog.find_opt cat tname with
          | None -> sl
          | Some table -> (
            match select_access table scan_preds.(si) with
            | None -> sl
            | Some (access, remaining) ->
              scan_preds.(si) <- remaining;
              { sl with Plan.source = Plan.Scan (tname, access) }))
        | _ -> sl)
      slots
  in
  (* Projection pruning: only worthwhile across joins — single-slot scans
     share their cell arrays with the table, and projecting would copy
     every row for no width saving downstream. *)
  if nslots < 2 then
    { Plan.slots; const_preds; scan_preds; joins; finish }
  else begin
    let used = Array.make total false in
    Array.iter
      (fun (j : Plan.jstep) ->
        List.iter (fun (probe, _) -> mark_fields used probe) j.Plan.keys;
        List.iter (mark_fields used) j.Plan.residual)
      joins;
    iter_finish (mark_fields used) finish;
    let keep =
      Array.mapi
        (fun si w ->
          let kept = ref [] in
          for i = w - 1 downto 0 do
            if used.(offsets.(si) + i) then kept := i :: !kept
          done;
          Array.of_list !kept)
        widths
    in
    let slots =
      Array.map2 (fun (sl : Plan.slot) k -> { sl with Plan.keep = k }) slots keep
    in
    (* Old absolute index -> index in the pruned layout. *)
    let tbl = Array.make total (-1) in
    let pruned = Plan.pruned_offsets slots in
    Array.iteri
      (fun si k ->
        Array.iteri (fun j local -> tbl.(offsets.(si) + local) <- pruned.(si) + j) k)
      keep;
    let joins =
      Array.map
        (fun (j : Plan.jstep) ->
          {
            Plan.keys =
              List.map (fun (probe, build) -> (remap tbl probe, build)) j.Plan.keys;
            residual = List.map (remap tbl) j.Plan.residual;
          })
        joins
    in
    let finish = map_finish (remap tbl) finish in
    { Plan.slots; const_preds; scan_preds; joins; finish }
  end

(* Delta derivation --------------------------------------------------------- *)

(* Every select of a policy classifies into exactly one delta branch, or
   the whole policy is ineligible:

   - {b SPJ} (clock-free, non-aggregated): for disjoint states S (proved
     empty) and Δ (appended rows), monotonicity gives

       Q(S ∪ Δ) = ⋃ over log slots i of Q with slot i restricted to Δ

     — any result row must bind at least one slot to a Δ tuple, and the
     per-slot variants cover every such binding, so the union equals the
     full result as a set. (Only multiplicities can differ, which is why
     DISTINCT ON — whose representative choice is order-sensitive — is
     excluded; the engine reads results as sets.)

   - {b Residual} (exactly one clock slot): the clock relation's single
     row is rewritten in place each submission, outside the append-only
     delta discipline, so no watermark argument applies — instead the
     clock is eliminated from the plan entirely and read at execution
     time, giving an exact recompute whose dynamic window/pin predicates
     become index probes. Aggregation, ordering and windows all ride
     along because nothing is approximated.

   - {b Aggregate} (clock-free, aggregated): per-slot Δ variants are
     unsound for non-monotone finishes, so the variants are telescoped
     ([Delta]/[Heap]/[Below] — each Δ-bound joined tuple appears in
     exactly one) and emit the raw stream [group keys @ agg arguments];
     the engine folds that stream into carried per-group accumulators
     and re-checks HAVING only for Δ-touched groups. Untouched groups
     are pinned by the base: their state is unchanged, so HAVING — a
     function of that state alone — still evaluates false. The carried
     state survives witness-driven compaction for SUM/COUNT/AVG
     (witnesses retain every contributing row) and demotes to a rebuild
     for MIN/MAX ({!dep_kind}).

   A UNION policy classifies per branch; its dependencies merge at each
   table's most sensitive kind. Each variant is optimized independently,
   so non-delta slots still get index probes. *)

exception Ineligible

(* Substitute the clock slot's cells with execution-time reads and close
   the gap it leaves in the row layout. [co]/[cw] are the clock slot's
   offset and width; [read c] yields the clock's cell [c] at execution
   time. A [Rep_field] over the clock is ineligible: for the empty
   group it yields Null where the substitute would yield the live
   cell. *)
let rec subst_clock ~co ~cw ~read (p : Plan.pexpr) : Plan.pexpr =
  let s = subst_clock ~co ~cw ~read in
  match p with
  | Plan.Const _ | Plan.Agg_ref _ | Plan.Agg_outside | Plan.Exec _ -> p
  | Plan.Field i ->
    if i >= co && i < co + cw then Plan.Exec (read (i - co))
    else if i >= co + cw then Plan.Field (i - cw)
    else p
  | Plan.Rep_field i ->
    if i >= co && i < co + cw then raise Ineligible
    else if i >= co + cw then Plan.Rep_field (i - cw)
    else p
  | Plan.Binop (op, a, b) -> Plan.Binop (op, s a, s b)
  | Plan.Unop (op, a) -> Plan.Unop (op, s a)
  | Plan.Fn (name, args) -> Plan.Fn (name, List.map s args)
  | Plan.Case (branches, default) ->
    Plan.Case
      (List.map (fun (c, v) -> (s c, s v)) branches, Option.map s default)

(* Clock elimination. Dropping the clock slot is sound only when the
   clock holds exactly one row — the cross join is then a no-op; the
   engine guards per evaluation and falls back to full evaluation
   otherwise. Dynamic pins are propagated across [Field = Field]
   equivalence classes so a window predicate written against one side
   of a join reaches every indexed column. Because the optimizer
   preserves row order (the plan-differential suite checks optimized
   output against the binder's, in order), the residual's output is
   bit-identical to the full plan's — float fold order and MIN/MAX tie
   representatives included. LIMIT and DISTINCT ON stay ineligible:
   the rewritten plan's key choices may differ from the original's, and
   those two finishes are the only order-sensitive ones. *)
let classify_residual (cat : Catalog.t) (sp : Plan.select_plan) ~(ci : int)
    ~(clock_tb : Table.t) : delta_branch =
  let f = sp.Plan.finish in
  if f.Plan.limit <> None then raise Ineligible;
  (match f.Plan.distinct with Plan.D_on _ -> raise Ineligible | _ -> ());
  let slots = sp.Plan.slots in
  let n = Array.length slots in
  (* A clock-only select has nothing left to scan once rewritten. *)
  if n < 2 then raise Ineligible;
  (* Derivation runs on the binder's naive output: no extracted keys,
     no pushed-down scan predicates. *)
  Array.iter
    (fun (j : Plan.jstep) -> if j.Plan.keys <> [] then raise Ineligible)
    sp.Plan.joins;
  Array.iter (fun ps -> if ps <> [] then raise Ineligible) sp.Plan.scan_preds;
  let offsets = Plan.full_offsets slots in
  let widths =
    Array.map (fun (sl : Plan.slot) -> Array.length sl.Plan.cols) slots
  in
  let co = offsets.(ci) and cw = widths.(ci) in
  let read c () =
    match Table.rows clock_tb with
    | [ row ] -> Row.cell row c
    | _ -> Value.Null
  in
  let subst = subst_clock ~co ~cw ~read in
  let conjuncts =
    sp.Plan.const_preds
    @ List.concat_map
        (fun (j : Plan.jstep) -> j.Plan.residual)
        (Array.to_list sp.Plan.joins)
  in
  let cs = List.map subst conjuncts in
  let finish' = map_finish subst f in
  let slots' =
    Array.of_list (List.filteri (fun j _ -> j <> ci) (Array.to_list slots))
  in
  let n' = Array.length slots' in
  let offsets' = Plan.full_offsets slots' in
  let widths' =
    Array.map (fun (sl : Plan.slot) -> Array.length sl.Plan.cols) slots'
  in
  let total' = Array.fold_left ( + ) 0 widths' in
  (* [Field = Field] equivalence classes over the shrunk layout. *)
  let parent = Array.init total' Fun.id in
  let rec find x =
    if parent.(x) = x then x
    else begin
      let r = find parent.(x) in
      parent.(x) <- r;
      r
    end
  in
  List.iter
    (function
      | Plan.Binop (Ast.Eq, Plan.Field a, Plan.Field b) ->
        let ra = find a and rb = find b in
        if ra <> rb then parent.(ra) <- rb
      | _ -> ())
    cs;
  (* Dynamic pins per class. Dedup keys are (field, op) pairs — never
     expressions, keeping structural equality away from closures. The
     derived conjuncts are implied filters: if a row joins, its class
     partner satisfied the pin, so filtering early drops only rows that
     could never join (NULL fields included — the equality would have
     rejected them). *)
  let op_tag = function
    | Ast.Eq -> 0
    | Ast.Lt -> 1
    | Ast.Le -> 2
    | Ast.Gt -> 3
    | Ast.Ge -> 4
    | _ -> -1
  in
  let pins : (int, Ast.binop * Plan.pexpr) Hashtbl.t = Hashtbl.create 8 in
  let direct : (int * int, unit) Hashtbl.t = Hashtbl.create 8 in
  let note fi op d =
    Hashtbl.add pins (find fi) (op, d);
    Hashtbl.replace direct (fi, op_tag op) ()
  in
  let flip = function
    | Ast.Lt -> Ast.Gt
    | Ast.Le -> Ast.Ge
    | Ast.Gt -> Ast.Lt
    | Ast.Ge -> Ast.Le
    | op -> op
  in
  List.iter
    (fun c ->
      match c with
      | Plan.Binop
          (((Ast.Eq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op), Plan.Field fi, d)
        when dyn_key d ->
        note fi op d
      | Plan.Binop
          (((Ast.Eq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op), d, Plan.Field fi)
        when dyn_key d ->
        note fi (flip op) d
      | _ -> ())
    cs;
  let derived = ref [] in
  for fld = 0 to total' - 1 do
    List.iter
      (fun (op, d) ->
        if not (Hashtbl.mem direct (fld, op_tag op)) then begin
          Hashtbl.replace direct (fld, op_tag op) ();
          derived := Plan.Binop (op, Plan.Field fld, d) :: !derived
        end)
      (Hashtbl.find_all pins (find fld))
  done;
  (* Re-place all conjuncts by the binder's rule: a conjunct joins the
     step of its last slot; slot-free ones gate the query. *)
  let residuals = Array.make n' [] in
  let consts = ref [] in
  List.iter
    (fun p ->
      match Plan.slots_of_pexpr offsets' widths' p with
      | [] -> consts := p :: !consts
      | ss ->
        let step = List.fold_left max 0 ss in
        residuals.(step) <- p :: residuals.(step))
    (cs @ List.rev !derived);
  let joins' =
    Array.init n' (fun i -> { Plan.keys = []; residual = List.rev residuals.(i) })
  in
  let sp' =
    {
      Plan.slots = slots';
      const_preds = List.rev !consts;
      scan_preds = Array.make n' [];
      joins = joins';
      finish = finish';
    }
  in
  B_residual
    { plan = optimize cat (Plan.Select sp'); clock_table = Table.name clock_tb }

(* Aggregated, clock-free selects: carried per-group state. Beyond the
   SPJ shape requirements, group keys and aggregate arguments must be
   pure row expressions, and HAVING and the projections may read only
   computed aggregates, constants and representative cells recoverable
   from a bare-field group key. *)
let classify_agg (cat : Catalog.t) ~(is_log : string -> bool)
    (sp : Plan.select_plan) (names : string array) :
    (string * dep_kind) list * delta_branch =
  let f = sp.Plan.finish in
  if f.Plan.order_by <> [] || f.Plan.limit <> None || f.Plan.projs = [] then
    raise Ineligible;
  (match f.Plan.distinct with Plan.D_on _ -> raise Ineligible | _ -> ());
  let covered =
    List.filter_map
      (function Plan.Field i -> Some i | _ -> None)
      f.Plan.group_by
  in
  let rec check_group p =
    match p with
    | Plan.Const _ | Plan.Agg_ref _ -> ()
    | Plan.Rep_field i -> if not (List.mem i covered) then raise Ineligible
    | Plan.Field _ | Plan.Agg_outside | Plan.Exec _ -> raise Ineligible
    | Plan.Binop (_, a, b) ->
      check_group a;
      check_group b
    | Plan.Unop (_, a) -> check_group a
    | Plan.Fn (_, args) -> List.iter check_group args
    | Plan.Case (branches, default) ->
      List.iter
        (fun (c, v) ->
          check_group c;
          check_group v)
        branches;
      Option.iter check_group default
  in
  List.iter check_group f.Plan.projs;
  Option.iter check_group f.Plan.having;
  let rec check_row p =
    match p with
    | Plan.Field _ | Plan.Const _ -> ()
    | Plan.Rep_field _ | Plan.Agg_ref _ | Plan.Agg_outside | Plan.Exec _ ->
      raise Ineligible
    | Plan.Binop (_, a, b) ->
      check_row a;
      check_row b
    | Plan.Unop (_, a) -> check_row a
    | Plan.Fn (_, args) -> List.iter check_row args
    | Plan.Case (branches, default) ->
      List.iter
        (fun (c, v) ->
          check_row c;
          check_row v)
        branches;
      Option.iter check_row default
  in
  List.iter check_row f.Plan.group_by;
  Array.iter
    (fun (a : Plan.agg_spec) -> Option.iter check_row a.Plan.arg)
    f.Plan.aggs;
  let arg_exprs =
    Array.to_list
      (Array.map
         (fun (a : Plan.agg_spec) ->
           match a.Plan.arg with
           | Some p -> p
           | None -> Plan.Const Value.Null (* COUNT star: row presence *))
         f.Plan.aggs)
  in
  let stream_projs =
    match f.Plan.group_by @ arg_exprs with
    | [] -> [ Plan.Const Value.Null ] (* bare HAVING: row presence only *)
    | ps -> ps
  in
  let vfinish =
    {
      Plan.columns = List.mapi (fun i _ -> Printf.sprintf "d%d" i) stream_projs;
      projs = stream_projs;
      aggregated = false;
      group_by = [];
      aggs = [||];
      having = None;
      order_by = [];
      distinct = Plan.D_all;
      limit = None;
    }
  in
  let log_slots = ref [] in
  Array.iteri (fun i n -> if is_log n then log_slots := i :: !log_slots) names;
  let log_slots = List.rev !log_slots in
  (* Telescoped accesses: each joined tuple with a non-empty set D of
     delta-bound log slots appears in exactly the variant of max(D). *)
  let retag i =
    Array.mapi
      (fun j (sl : Plan.slot) ->
        match sl.Plan.source with
        | Plan.Scan (tname, _) when List.mem j log_slots ->
          let access =
            if j = i then Plan.Delta
            else if j < i then Plan.Heap
            else Plan.Below
          in
          { sl with Plan.source = Plan.Scan (tname, access) }
        | _ -> sl)
      sp.Plan.slots
  in
  let variants =
    List.map
      (fun i ->
        optimize cat
          (Plan.Select { sp with Plan.slots = retag i; Plan.finish = vfinish }))
      log_slots
  in
  let ad_full = optimize cat (Plan.Select { sp with Plan.finish = vfinish }) in
  let ad_width =
    Array.fold_left
      (fun acc (sl : Plan.slot) -> acc + Array.length sl.Plan.cols)
      0 sp.Plan.slots
  in
  let has_frozen =
    Array.exists
      (fun (a : Plan.agg_spec) ->
        match a.Plan.agg with Ast.Min | Ast.Max -> true | _ -> false)
      f.Plan.aggs
  in
  let log_kind = if has_frozen then Dep_log_frozen else Dep_log_exact in
  let deps =
    List.sort_uniq compare
      (Array.to_list
         (Array.map
            (fun n -> (n, if is_log n then log_kind else Dep_plain))
            names))
  in
  ( deps,
    B_agg
      {
        ad_variants = variants;
        ad_full;
        ad_nkeys = List.length f.Plan.group_by;
        ad_specs =
          Array.map
            (fun (a : Plan.agg_spec) -> (a.Plan.agg, a.Plan.distinct_agg))
            f.Plan.aggs;
        ad_width;
        ad_rep_slots =
          List.map (function Plan.Field i -> Some i | _ -> None) f.Plan.group_by;
        ad_finish = f;
      } )

let classify_spj (cat : Catalog.t) ~(is_log : string -> bool)
    (sp : Plan.select_plan) (names : string array) :
    (string * dep_kind) list * delta_branch =
  let f = sp.Plan.finish in
  if
    Array.length f.Plan.aggs > 0
    || f.Plan.order_by <> []
    || f.Plan.limit <> None
    || f.Plan.projs = []
  then raise Ineligible;
  (match f.Plan.distinct with Plan.D_on _ -> raise Ineligible | _ -> ());
  let deps =
    List.sort_uniq compare
      (Array.to_list
         (Array.map (fun n -> (n, if is_log n then Dep_log else Dep_plain)) names))
  in
  let variants = ref [] in
  Array.iteri
    (fun i n ->
      if is_log n then begin
        let slots =
          Array.mapi
            (fun j (sl : Plan.slot) ->
              match sl.Plan.source with
              | Plan.Scan (tname, _) when j = i ->
                { sl with Plan.source = Plan.Scan (tname, Plan.Delta) }
              | _ -> sl)
            sp.Plan.slots
        in
        variants :=
          optimize cat (Plan.Select { sp with Plan.slots = slots }) :: !variants
      end)
    names;
  (deps, B_spj (List.rev !variants))

let classify_select (cat : Catalog.t) ~(is_log : string -> bool)
    ~(clock : string) (sp : Plan.select_plan) :
    (string * dep_kind) list * delta_branch =
  (* Canonical table name per slot. Explicit resolution: a slot naming a
     table that vanished from the catalog between bind and derivation
     surfaces as ineligible, not as an [Option.get] crash; subquery
     slots are ineligible everywhere. *)
  let names =
    Array.map
      (fun (sl : Plan.slot) ->
        match sl.Plan.source with
        | Plan.Scan (name, _) -> (
          match Catalog.find_opt cat name with
          | Some tb -> Table.name tb
          | None -> raise Ineligible)
        | Plan.Sub _ -> raise Ineligible)
      sp.Plan.slots
  in
  let clock_slots = ref [] in
  Array.iteri
    (fun i n ->
      if String.lowercase_ascii n = clock then clock_slots := i :: !clock_slots)
    names;
  match List.rev !clock_slots with
  | [ ci ] ->
    let clock_tb =
      match Catalog.find_opt cat names.(ci) with
      | Some tb -> tb
      | None -> raise Ineligible
    in
    ([], classify_residual cat sp ~ci ~clock_tb)
  | _ :: _ -> raise Ineligible
  | [] ->
    if sp.Plan.finish.Plan.aggregated then classify_agg cat ~is_log sp names
    else classify_spj cat ~is_log sp names

let kind_rank = function
  | Dep_plain -> 0
  | Dep_log -> 1
  | Dep_log_exact -> 2
  | Dep_log_frozen -> 3

let merge_deps (a : (string * dep_kind) list) (b : (string * dep_kind) list) :
    (string * dep_kind) list =
  List.sort_uniq compare
    (List.fold_left
       (fun acc (n, k) ->
         match List.assoc_opt n acc with
         | None -> (n, k) :: acc
         | Some k0 ->
           if kind_rank k > kind_rank k0 then (n, k) :: List.remove_assoc n acc
           else acc)
       a b)

let derive_delta (cat : Catalog.t) ~(is_log : string -> bool)
    ~(clock_rel : string) (q : Ast.query) : delta_plans option =
  match Plan.of_query cat q with
  | exception Errors.Sql_error _ -> None
  | plan -> (
    let clock = String.lowercase_ascii clock_rel in
    let rec walk = function
      | Plan.Select sp ->
        let deps, branch = classify_select cat ~is_log ~clock sp in
        (deps, [ branch ])
      | Plan.Union { left; right; _ } ->
        let dl, bl = walk left in
        let dr, br = walk right in
        (merge_deps dl dr, bl @ br)
    in
    match walk plan with
    | exception Ineligible -> None
    | deps, branches -> Some { deps; branches })

(* Batch-eligibility analysis ---------------------------------------------- *)

(* Expressions the batch operators evaluate positionally (against slot or
   prefix columns). Group-context nodes ([Rep_field], [Agg_ref]) never
   appear in the clauses the batch pipeline evaluates — WHERE rejects
   aggregates at bind — but a plan that somehow carries one routes to the
   row path rather than miscompiling. [Agg_outside] is batchable: it
   raises lazily on evaluation, identically in both pipelines. *)
let rec batchable_pexpr (p : Plan.pexpr) : bool =
  match p with
  | Plan.Const _ | Plan.Field _ | Plan.Agg_outside -> true
  (* [Exec] keys compile through the row compiler's scalar closure in
     both pipelines, so they batch fine. *)
  | Plan.Exec _ -> true
  | Plan.Rep_field _ | Plan.Agg_ref _ -> false
  | Plan.Binop (_, a, b) -> batchable_pexpr a && batchable_pexpr b
  | Plan.Unop (_, a) -> batchable_pexpr a
  | Plan.Fn (_, args) -> List.for_all batchable_pexpr args
  | Plan.Case (branches, default) ->
    List.for_all
      (fun (c, v) -> batchable_pexpr c && batchable_pexpr v)
      branches
    && (match default with None -> true | Some d -> batchable_pexpr d)

let batch_route ~(lineage : bool) ~(track_src : bool) (q : Plan.query) :
    Plan.route =
  let select_eligible (sp : Plan.select_plan) : bool =
    (* Lineage annotations thread through every operator and merge at
       DISTINCT/aggregation; such runs stay on the row path wholesale.
       Source-tid tracking is carried by per-slot tid columns in the
       batch pipeline, but only for flat selects: an aggregated select
       merges src lists per group, which the row path owns. *)
    (not lineage)
    && not (track_src && sp.Plan.finish.Plan.aggregated)
    && List.for_all batchable_pexpr sp.Plan.const_preds
    && Array.for_all (List.for_all batchable_pexpr) sp.Plan.scan_preds
    && Array.for_all
         (fun (j : Plan.jstep) ->
           List.for_all
             (fun (p, b) -> batchable_pexpr p && batchable_pexpr b)
             j.Plan.keys
           && List.for_all batchable_pexpr j.Plan.residual)
         sp.Plan.joins
    && (not sp.Plan.finish.Plan.aggregated
       || List.for_all batchable_pexpr sp.Plan.finish.Plan.group_by
          && Array.for_all
               (fun (a : Plan.agg_spec) ->
                 match a.Plan.arg with
                 | None -> true
                 | Some p -> batchable_pexpr p)
               sp.Plan.finish.Plan.aggs)
  in
  let rec route = function
    | Plan.Select sp ->
      if select_eligible sp then Plan.Route_batch else Plan.Route_row
    | Plan.Union { left; right; _ } ->
      Plan.Route_union { left = route left; right = route right }
  in
  route q

(* Kernel-shape analysis ---------------------------------------------------- *)

(* Shape classification for the typed batch kernels ({!Compile_batch}).
   Routing above is static per query; which kernel actually runs is
   decided per execution from the column layouts the batch binds against
   (a typed column can demote to Mixed between executions of a prepared
   plan, so the batch compiler re-inspects views every time and the
   Mixed/opaque shapes fall back to the boxed Value kernels). These
   helpers pull the field/constant skeleton out of a predicate or join
   key once, at compile time, so that per-execution dispatch is a view
   inspection rather than an expression walk. *)

type cmp_shape =
  | Cmp_field_const of Ast.binop * int * Value.t
      (** [field OP literal], constant side normalized to the right *)
  | Cmp_field_field of Ast.binop * int * int  (** [field OP field] *)
  | Cmp_opaque  (** anything else: evaluate through the scalar closure *)

(* Mirror a comparison around the constant: [c OP f] is [f (flip OP) c]. *)
let flip_cmp = function
  | Ast.Lt -> Ast.Gt
  | Ast.Gt -> Ast.Lt
  | Ast.Le -> Ast.Ge
  | Ast.Ge -> Ast.Le
  | op -> op

let cmp_shape (p : Plan.pexpr) : cmp_shape =
  match p with
  | Plan.Binop
      ( ((Ast.Eq | Ast.Neq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op),
        Plan.Field i,
        Plan.Const v ) ->
    Cmp_field_const (op, i, v)
  | Plan.Binop
      ( ((Ast.Eq | Ast.Neq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op),
        Plan.Const v,
        Plan.Field i ) ->
    Cmp_field_const (flip_cmp op, i, v)
  | Plan.Binop
      ( ((Ast.Eq | Ast.Neq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op),
        Plan.Field i,
        Plan.Field j ) ->
    Cmp_field_field (op, i, j)
  | _ -> Cmp_opaque

(* A join/group key that is a bare column reference, eligible for the
   unboxed int/dictionary-code hash kernels. *)
let key_field (p : Plan.pexpr) : int option =
  match p with Plan.Field i -> Some i | _ -> None
