(** Batch-at-a-time (vectorized) compiler over typed columns.

    A sibling of {!Compile} that lowers batch-routed subtrees
    ({!Optimizer.batch_route}) to columnar operators running directly on
    the typed column store ({!Column}): scans borrow a table's mirror
    views without copying or boxing, filter passes compare unboxed ints
    and floats and dictionary codes against a selection vector, hash
    joins and grouping key on raw ints / codes where the layouts allow
    (falling back to Value-keyed tables for Mixed columns and computed
    keys), and aggregation accumulates per group over row indices.
    Everything downstream of the pipeline — grouping representative
    semantics, projection, DISTINCT, ORDER BY, LIMIT, UNION merge — is
    the row compiler's own closures ({!Compile.compile_produce},
    {!Compile.compile_finish_tail}, {!Compile.union_rows}), so output
    shaping cannot diverge.

    Kernel choice is per {e execution}, not per compilation: a prepared
    plan outlives mutations, and a typed column can demote to Mixed
    between runs, so every binding re-inspects the views it was handed
    ({!Optimizer.cmp_shape} / {!Optimizer.key_field} precompute the
    expression skeletons, the binding picks the kernel).

    Observable behaviour is bit-identical to the row path by
    construction: scan order is heap/tid order; string-constant
    predicates translate the literal through the column dictionary once
    per batch (an absent code is an empty selection without touching the
    rows); the hash joins reproduce the reverse-insertion match order of
    [Hashtbl.add]/[find_all] in probe-major output order, with NULL keys
    matching NULL keys exactly as the row path's canonical "n" key does;
    cross-dictionary joins remap probe codes into the build dictionary's
    code space (memoized per code); multi-column keys use {!Value.Key}
    exactly as the row path does; and scalar evaluation reuses
    {!Compile.compile_expr} closures over a per-execution scratch row,
    so error messages and laziness are the row path's own. Subtrees the
    router keeps on the row path (lineage runs, aggregated
    source-tracking, group-context expressions) fall back to
    {!Compile.compile} wholesale. *)

(* Per-batch statistics, exposed through engine stats / :stats / server
   STATS. *)
let batches_built = ref 0
let batch_rows = ref 0
let row_fallbacks = ref 0

(* Rows-per-batch histogram: < 16, < 256, < 4096, < 65536, >= 65536. *)
let hist_bounds = [| 16; 256; 4096; 65536 |]
let hist = Array.make (Array.length hist_bounds + 1) 0

let note_batch n =
  incr batches_built;
  batch_rows := !batch_rows + n;
  let rec bucket i =
    if i >= Array.length hist_bounds || n < hist_bounds.(i) then i
    else bucket (i + 1)
  in
  let b = bucket 0 in
  hist.(b) <- hist.(b) + 1

let hist_snapshot () = Array.copy hist

let reset_stats () =
  batches_built := 0;
  batch_rows := 0;
  row_fallbacks := 0;
  Array.fill hist 0 (Array.length hist) 0

(* Batches ---------------------------------------------------------------- *)

(* Which positions of the backing columns are live, in output order.
   [All n] avoids materializing the identity selection for fresh scans
   (the common case on large log relations). *)
type selv = All of int | Chosen of int array

(* A source-tid column for [track_src] runs: tids parallel to the
   backing columns, tagged with the FROM-slot index they annotate. *)
type src_col = { slot : int; tids : int array }

(* A column batch. [cols] are typed views over backing arrays — possibly
   borrowed zero-copy from a table's columnar mirror, so only positions
   reached through [sel] are meaningful. [srcs] is in ascending slot
   order. *)
type batch = { cols : Column.view array; sel : selv; srcs : src_col list }

let sel_length = function All n -> n | Chosen a -> Array.length a

let sel_iter f = function
  | All n ->
    for i = 0 to n - 1 do
      f i
    done
  | Chosen a -> Array.iter f a

(* Shared boxed booleans so the boxing accessors never allocate for
   BOOL cells. *)
let vtrue = Value.Bool true
let vfalse = Value.Bool false

(* Positional boxed read, specialized once per view (the typed kernels
   below bypass this; it feeds the scalar-closure fallback and row
   materialization). *)
let getter (v : Column.view) : int -> Value.t =
  match v with
  | Column.V_int (a, nulls) ->
    if Bitvec.count nulls = 0 then fun ri -> Value.Int a.(ri)
    else fun ri -> if Bitvec.get nulls ri then Value.Null else Value.Int a.(ri)
  | Column.V_float (a, nulls) ->
    if Bitvec.count nulls = 0 then fun ri -> Value.Float a.(ri)
    else fun ri -> if Bitvec.get nulls ri then Value.Null else Value.Float a.(ri)
  | Column.V_bool a -> (
    fun ri -> match a.(ri) with 0 -> vfalse | 1 -> vtrue | _ -> Value.Null)
  | Column.V_str (codes, d) ->
    fun ri ->
      let c = codes.(ri) in
      if c < 0 then Value.Null else Value.Str (Column.dict_string d c)
  | Column.V_mixed a -> fun ri -> a.(ri)

(* Expressions ------------------------------------------------------------ *)

(* A positional evaluator: bind to a batch's columns once per execution,
   then evaluate at row positions. *)
type bexpr = Column.view array -> int -> Value.t

let rec add_fields acc (p : Plan.pexpr) =
  match p with
  | Plan.Field i | Plan.Rep_field i -> if List.mem i acc then acc else i :: acc
  | Plan.Const _ | Plan.Agg_ref _ | Plan.Agg_outside | Plan.Exec _ -> acc
  | Plan.Binop (_, a, b) -> add_fields (add_fields acc a) b
  | Plan.Unop (_, a) -> add_fields acc a
  | Plan.Fn (_, args) -> List.fold_left add_fields acc args
  | Plan.Case (branches, default) ->
    let acc =
      List.fold_left
        (fun acc (c, v) -> add_fields (add_fields acc c) v)
        acc branches
    in
    (match default with None -> acc | Some d -> add_fields acc d)

(* Bare fields and constants evaluate straight off the views. Anything
   richer reuses the row compiler's scalar closure over a scratch row
   refilled with just the fields the expression reads — semantics
   (dispatch, laziness, error messages) are therefore shared code, at
   the cost of a few array stores per row. The scratch row is allocated
   at column-binding time, i.e. per execution, so a compiled plan stays
   re-entrant. *)
let rec compile_bexpr (p : Plan.pexpr) : bexpr =
  match p with
  | Plan.Field i -> fun cols -> getter cols.(i)
  | Plan.Const v -> fun _ _ -> v
  | Plan.Binop
      ( ((Ast.Eq | Ast.Neq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op),
        ((Plan.Field _ | Plan.Const _) as a),
        ((Plan.Field _ | Plan.Const _) as b) ) ->
    (* Comparisons that must yield a boxed result (projections, CASE
       conditions) dispatch through the row path's own [Eval.compare_op]
       — same semantics, no scratch-row copy. Filter positions use the
       unboxed predicate compiler below instead. *)
    let ba = compile_bexpr a and bb = compile_bexpr b in
    fun cols ->
      let ea = ba cols and eb = bb cols in
      fun ri -> Eval.compare_op op (ea ri) (eb ri)
  | _ ->
    let ce = Compile.compile_expr p in
    let used = Array.of_list (add_fields [] p) in
    fun cols ->
      let scratch = Array.make (Array.length cols) Value.Null in
      let srcs = Array.map (fun i -> getter cols.(i)) used in
      fun ri ->
        for k = 0 to Array.length used - 1 do
          scratch.(used.(k)) <- (Array.unsafe_get srcs k) ri
        done;
        ce scratch [||]

(* Predicates ------------------------------------------------------------- *)

(* A predicate bound to a batch: either decided for every row at binding
   time (a string constant absent from the dictionary, a cross-type
   comparison) or an unboxed per-row test. *)
type pred = P_const of bool | P_fun of (int -> bool)

(* A predicate compiler: bind to a batch's views, get a [pred]. *)
type bpred = Column.view array -> pred

(* Short-circuit composition mirroring the row path's AND/OR laziness:
   the left operand is always evaluated (it may raise); the right only
   when the left doesn't decide. *)
let pred_and pa pb =
  match pa, pb with
  | P_const false, _ -> P_const false
  | P_const true, p -> p
  | P_fun f, P_const b -> P_fun (fun ri -> f ri && b)
  | P_fun f, P_fun g -> P_fun (fun ri -> f ri && g ri)

let pred_or pa pb =
  match pa, pb with
  | P_const true, _ -> P_const true
  | P_const false, p -> p
  | P_fun f, P_const b -> P_fun (fun ri -> f ri || b)
  | P_fun f, P_fun g -> P_fun (fun ri -> f ri || g ri)

let pred_not = function
  | P_const b -> P_const (not b)
  | P_fun f -> P_fun (fun ri -> not (f ri))

let op_test (op : Ast.binop) : int -> bool =
  match op with
  | Ast.Eq -> fun c -> c = 0
  | Ast.Neq -> fun c -> c <> 0
  | Ast.Lt -> fun c -> c < 0
  | Ast.Le -> fun c -> c <= 0
  | Ast.Gt -> fun c -> c > 0
  | Ast.Ge -> fun c -> c >= 0
  | _ -> assert false

(* Total-order float compare matching [Float.compare] (NaN below every
   number and equal to itself; [-0. = 0.]), on unboxed operands. *)
let fcmp (x : float) (y : float) : int =
  if x < y then -1
  else if x > y then 1
  else if x = y then 0
  else if Float.is_nan x then if Float.is_nan y then 0 else -1
  else 1

let wrap_null (nulls : Bitvec.t) (f : int -> bool) : pred =
  if Bitvec.count nulls = 0 then P_fun f
  else P_fun (fun ri -> (not (Bitvec.get nulls ri)) && f ri)

(* field OP int-constant over an unboxed int column. *)
let int_cmp_const (op : Ast.binop) (a : int array) (k : int) : int -> bool =
  match op with
  | Ast.Eq -> fun ri -> a.(ri) = k
  | Ast.Neq -> fun ri -> a.(ri) <> k
  | Ast.Lt -> fun ri -> a.(ri) < k
  | Ast.Le -> fun ri -> a.(ri) <= k
  | Ast.Gt -> fun ri -> a.(ri) > k
  | Ast.Ge -> fun ri -> a.(ri) >= k
  | _ -> assert false

(* BOOL columns store 0 / 1 / 2 (NULL); [Bool.compare] is int compare on
   0/1, and 2 must fail every comparison. Guards are only needed where 2
   wouldn't fail the int test by itself. *)
let bool_cmp_const (op : Ast.binop) (a : int array) (b : bool) : int -> bool =
  let k = if b then 1 else 0 in
  match op with
  | Ast.Eq -> fun ri -> a.(ri) = k
  | Ast.Neq ->
    fun ri ->
      let x = a.(ri) in
      x <> 2 && x <> k
  | Ast.Lt -> fun ri -> a.(ri) < k
  | Ast.Le -> fun ri -> a.(ri) <= k
  | Ast.Gt ->
    fun ri ->
      let x = a.(ri) in
      x <> 2 && x > k
  | Ast.Ge ->
    fun ri ->
      let x = a.(ri) in
      x <> 2 && x >= k
  | _ -> assert false

(* field OP string-constant over dictionary codes: equality translates
   the literal into the dictionary once per binding — absent means no
   row can match, an empty selection without touching the rows. The
   ordering operators precompute one verdict per interned string (codes
   are dense), so the per-row test is a table lookup. NULL is the -1
   code, below every real code, so it fails every test for free except
   NEQ's explicit guard. *)
let str_cmp_const (op : Ast.binop) (codes : int array) (d : Column.dict)
    (s : string) : pred =
  match op with
  | Ast.Eq -> (
    match Column.dict_find d s with
    | None -> P_const false
    | Some c -> P_fun (fun ri -> codes.(ri) = c))
  | Ast.Neq -> (
    match Column.dict_find d s with
    | None -> P_fun (fun ri -> codes.(ri) >= 0)
    | Some c ->
      P_fun
        (fun ri ->
          let x = codes.(ri) in
          x >= 0 && x <> c))
  | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
    let t = op_test op in
    let ok =
      Array.init (Column.dict_size d) (fun c ->
          t (String.compare (Column.dict_string d c) s))
    in
    P_fun
      (fun ri ->
        let x = codes.(ri) in
        x >= 0 && Array.unsafe_get ok x)
  | _ -> assert false

(* Non-null test per layout, for comparisons whose outcome is constant
   on every non-null row (cross-type ranks). *)
let nonnull_pred (v : Column.view) : pred =
  match v with
  | Column.V_int (_, nulls) | Column.V_float (_, nulls) ->
    if Bitvec.count nulls = 0 then P_const true
    else P_fun (fun ri -> not (Bitvec.get nulls ri))
  | Column.V_bool a -> P_fun (fun ri -> a.(ri) <> 2)
  | Column.V_str (codes, _) -> P_fun (fun ri -> codes.(ri) >= 0)
  | Column.V_mixed a -> P_fun (fun ri -> not (Value.is_null a.(ri)))

(* [Value.compare]'s type ranks (NULL handled before this point). *)
let rank_of_view = function
  | Column.V_bool _ -> 1
  | Column.V_int _ | Column.V_float _ -> 2
  | Column.V_str _ -> 3
  | Column.V_mixed _ -> assert false

let rank_of_const = function
  | Value.Bool _ -> 1
  | Value.Int _ | Value.Float _ -> 2
  | Value.Str _ -> 3
  | Value.Null -> assert false

(* field OP constant, semantics of
   [Value.to_bool (Eval.compare_op op cell const)]: false when either
   side is NULL, [Value.compare] otherwise. *)
let bind_cmp_const (op : Ast.binop) (v : Column.view) (k : Value.t) : pred =
  match v, k with
  | _, Value.Null -> P_const false
  | Column.V_int (a, nulls), Value.Int ki ->
    wrap_null nulls (int_cmp_const op a ki)
  | Column.V_int (a, nulls), Value.Float kf ->
    let t = op_test op in
    wrap_null nulls (fun ri -> t (fcmp (float_of_int a.(ri)) kf))
  | Column.V_float (a, nulls), Value.Int ki ->
    let t = op_test op and kf = float_of_int ki in
    wrap_null nulls (fun ri -> t (fcmp a.(ri) kf))
  | Column.V_float (a, nulls), Value.Float kf ->
    let t = op_test op in
    wrap_null nulls (fun ri -> t (fcmp a.(ri) kf))
  | Column.V_bool a, Value.Bool b -> P_fun (bool_cmp_const op a b)
  | Column.V_str (codes, d), Value.Str s -> str_cmp_const op codes d s
  | Column.V_mixed a, k ->
    (* Boxed fallback: the row path's own comparison dispatch, so the
       fallback cannot drift semantically from [Eval.compare_op]. *)
    P_fun (fun ri -> Value.to_bool (Eval.compare_op op a.(ri) k))
  | (Column.V_int _ | Column.V_float _ | Column.V_bool _ | Column.V_str _), k
    ->
    (* Cross-type comparison: [Value.compare] is rank order, constant
       across the column, so the pass degenerates to a non-null test or
       an empty selection. *)
    if op_test op (Int.compare (rank_of_view v) (rank_of_const k)) then
      nonnull_pred v
    else P_const false

(* field OP field. The typed pairings compare unboxed; same-dictionary
   string equality is code equality; everything else (including
   cross-type pairings, which still have per-row NULL structure) goes
   through the boxed getters. *)
let bind_cmp_ff (op : Ast.binop) (va : Column.view) (vb : Column.view) : pred =
  match va, vb with
  | Column.V_int (a, _), Column.V_int (b, _) ->
    let base =
      match op with
      | Ast.Eq -> fun ri -> a.(ri) = b.(ri)
      | Ast.Neq -> fun ri -> a.(ri) <> b.(ri)
      | Ast.Lt -> fun ri -> a.(ri) < b.(ri)
      | Ast.Le -> fun ri -> a.(ri) <= b.(ri)
      | Ast.Gt -> fun ri -> a.(ri) > b.(ri)
      | Ast.Ge -> fun ri -> a.(ri) >= b.(ri)
      | _ -> assert false
    in
    pred_and (pred_and (nonnull_pred va) (nonnull_pred vb)) (P_fun base)
  | Column.V_int (a, _), Column.V_float (b, _) ->
    let t = op_test op in
    pred_and
      (pred_and (nonnull_pred va) (nonnull_pred vb))
      (P_fun (fun ri -> t (fcmp (float_of_int a.(ri)) b.(ri))))
  | Column.V_float (a, _), Column.V_int (b, _) ->
    let t = op_test op in
    pred_and
      (pred_and (nonnull_pred va) (nonnull_pred vb))
      (P_fun (fun ri -> t (fcmp a.(ri) (float_of_int b.(ri)))))
  | Column.V_float (a, _), Column.V_float (b, _) ->
    let t = op_test op in
    pred_and
      (pred_and (nonnull_pred va) (nonnull_pred vb))
      (P_fun (fun ri -> t (fcmp a.(ri) b.(ri))))
  | Column.V_bool a, Column.V_bool b ->
    let t = op_test op in
    P_fun
      (fun ri ->
        let x = a.(ri) and y = b.(ri) in
        x <> 2 && y <> 2 && t (x - y))
  | Column.V_str (ca, da), Column.V_str (cb, db) ->
    if da == db && op = Ast.Eq then
      (* Same dictionary: interning makes code equality string
         equality (NULL's -1 fails against any real code and the
         other side's NULL is caught by [x >= 0]). *)
      P_fun
        (fun ri ->
          let x = ca.(ri) in
          x >= 0 && x = cb.(ri))
    else
      let t = op_test op in
      P_fun
        (fun ri ->
          let x = ca.(ri) and y = cb.(ri) in
          x >= 0 && y >= 0
          && t
               (String.compare (Column.dict_string da x)
                  (Column.dict_string db y)))
  | _ ->
    (* Mixed (and rank-constant cross-type) pairings: boxed getters
       through the row path's comparison dispatch. *)
    let ga = getter va and gb = getter vb in
    P_fun (fun ri -> Value.to_bool (Eval.compare_op op (ga ri) (gb ri)))

(* Predicate compiler: the comparison skeleton is classified once at
   compile time ({!Optimizer.cmp_shape}); binding inspects the views and
   picks the unboxed kernel, with Mixed and opaque shapes falling back
   to the scalar closure (whose laziness and error behaviour is the row
   path's own). *)
let rec compile_bpred (p : Plan.pexpr) : bpred =
  match Optimizer.cmp_shape p with
  | Optimizer.Cmp_field_const (op, i, v) ->
    fun cols -> bind_cmp_const op cols.(i) v
  | Optimizer.Cmp_field_field (op, i, j) ->
    fun cols -> bind_cmp_ff op cols.(i) cols.(j)
  | Optimizer.Cmp_opaque -> (
    match p with
    | Plan.Const v ->
      let b = Value.to_bool v in
      fun _ -> P_const b
    | Plan.Binop (Ast.And, a, b) ->
      let pa = compile_bpred a and pb = compile_bpred b in
      fun cols -> pred_and (pa cols) (pb cols)
    | Plan.Binop (Ast.Or, a, b) ->
      let pa = compile_bpred a and pb = compile_bpred b in
      fun cols -> pred_or (pa cols) (pb cols)
    | Plan.Unop (Ast.Not, a) ->
      let pa = compile_bpred a in
      fun cols -> pred_not (pa cols)
    | Plan.Field i -> (
      fun cols ->
        match cols.(i) with
        | Column.V_bool a -> P_fun (fun ri -> a.(ri) = 1)
        | v ->
          let g = getter v in
          P_fun (fun ri -> Value.to_bool (g ri)))
    | _ ->
      let bx = compile_bexpr p in
      fun cols ->
        let ev = bx cols in
        P_fun (fun ri -> Value.to_bool (ev ri)))

(* Filters ---------------------------------------------------------------- *)

(* One selection-refinement pass for one bound predicate. A
   binding-time verdict skips the row loop entirely — the "code absent
   from the dictionary" fast path lands here as [P_const false]. *)
let filter_pred (b : batch) (p : pred) : batch =
  match p with
  | P_const true -> b
  | P_const false -> { b with sel = Chosen [||] }
  | P_fun f ->
    let n = sel_length b.sel in
    let out = Array.make n 0 in
    let j = ref 0 in
    sel_iter
      (fun ri ->
        if f ri then begin
          out.(!j) <- ri;
          incr j
        end)
      b.sel;
    { b with sel = Chosen (if !j = n then out else Array.sub out 0 !j) }

(* Pushed-down predicates: one pass per conjunct, the row path's
   [scan_preds] evaluation order. *)
let filter_conjuncts (b : batch) (preds : bpred list) : batch =
  List.fold_left (fun b bp -> filter_pred b (bp b.cols)) b preds

(* Join residuals: a single pass evaluating all conjuncts per row with
   short-circuit, the row path's [List.for_all] order (conjuncts are
   walked in order per row, so an erroring conjunct fires for exactly
   the rows the row path would have reached it on). *)
let filter_residual (b : batch) (preds : bpred list) : batch =
  match preds with
  | [] -> b
  | _ ->
    let ps = List.map (fun bp -> bp b.cols) preds in
    let rec row_ok ps ri =
      match ps with
      | [] -> true
      | P_const c :: rest -> c && row_ok rest ri
      | P_fun f :: rest -> f ri && row_ok rest ri
    in
    let n = sel_length b.sel in
    let out = Array.make n 0 in
    let j = ref 0 in
    sel_iter
      (fun ri ->
        if row_ok ps ri then begin
          out.(!j) <- ri;
          incr j
        end)
      b.sel;
    { b with sel = Chosen (if !j = n then out else Array.sub out 0 !j) }

(* Scans ------------------------------------------------------------------ *)

(* Transpose a row list (index probe results, columnar-less tables) into
   boxed Mixed views — these paths have no typed mirror to borrow. *)
let batch_of_rows ~track ~slot ~width (rows : Row.t list) : batch =
  let n = List.length rows in
  let cols = Array.init width (fun _ -> Array.make n Value.Null) in
  let tids = if track then Array.make n 0 else [||] in
  List.iteri
    (fun i row ->
      let cells = Row.cells row in
      for c = 0 to width - 1 do
        cols.(c).(i) <- cells.(c)
      done;
      if track then tids.(i) <- Row.tid row)
    rows;
  {
    cols = Array.map (fun a -> Column.V_mixed a) cols;
    sel = All n;
    srcs = (if track then [ { slot; tids } ] else []);
  }

(* Index probe results as a batch, without materializing rows: the
   probe's tids (ascending, same order contract as [Table.index_lookup])
   become a selection vector over the mirror's zero-copy views via a
   single merge walk of the two ascending tid sequences. A tid absent
   from the mirror is skipped, matching the row path's stale-tid
   filtering. *)
let batch_of_sorted_tids store ~track ~slot (tids : int array) : batch =
  let mt = Column.tids store in
  let n = Column.length store in
  let buf = Array.make (Array.length tids) 0 in
  let k = ref 0 and p = ref 0 in
  Array.iter
    (fun tid ->
      while !p < n && mt.(!p) < tid do
        incr p
      done;
      if !p < n && mt.(!p) = tid then begin
        buf.(!k) <- !p;
        incr k
      end)
    tids;
  {
    cols = Column.views store;
    sel = Chosen (if !k = Array.length buf then buf else Array.sub buf 0 !k);
    srcs = (if track then [ { slot; tids = mt } ] else []);
  }

(* One scan closure per access path, mirroring [Compile.access_scan]:
   index probes count against {!Compile.index_probes} and NULL keys /
   bounds match nothing. Tables with a columnar mirror are scanned
   zero-copy; others transpose per execution. *)
let batch_access (table : Table.t) (tname : string) ~track ~slot
    (access : Plan.access) : unit -> batch =
  let width = Schema.arity (Table.schema table) in
  match access with
  | Plan.Heap -> (
    fun () ->
      match Table.columnar table with
      | Some store ->
        let n = Column.length store in
        {
          cols = Column.views store;
          sel = All n;
          srcs =
            (if track then [ { slot; tids = Column.tids store } ] else []);
        }
      | None ->
        let rows = List.rev (Table.fold (fun acc r -> r :: acc) [] table) in
        batch_of_rows ~track ~slot ~width rows)
  | Plan.Delta -> (
    (* The watermark is read per execution, like the row path: one
       compiled plan keeps scanning the current delta suffix as the
       engine advances [Table.delta_base]. *)
    fun () ->
      match Table.columnar table with
      | Some store ->
        let n = Column.length store in
        let lo = Column.delta_start store ~base:(Table.delta_base table) in
        {
          cols = Column.views store;
          sel =
            (if lo = 0 then All n
             else Chosen (Array.init (n - lo) (fun k -> lo + k)));
          srcs =
            (if track then [ { slot; tids = Column.tids store } ] else []);
        }
      | None ->
        let rows =
          List.rev (Table.fold_delta (fun acc r -> r :: acc) [] table)
        in
        batch_of_rows ~track ~slot ~width rows)
  | Plan.Below -> (
    (* Complement of [Delta]: the prefix strictly below the watermark. *)
    fun () ->
      match Table.columnar table with
      | Some store ->
        let n = Column.length store in
        let lo = Column.delta_start store ~base:(Table.delta_base table) in
        {
          cols = Column.views store;
          sel = (if lo = n then All n else Chosen (Array.init lo (fun k -> k)));
          srcs =
            (if track then [ { slot; tids = Column.tids store } ] else []);
        }
      | None ->
        let rows =
          List.rev (Table.fold_below (fun acc r -> r :: acc) [] table)
        in
        batch_of_rows ~track ~slot ~width rows)
  | Plan.Index_eq { index; key } ->
    let ix =
      match Table.find_index table index with
      | Some ix -> ix
      | None -> Errors.catalog_error "no index %s on table %s" index tname
    in
    let ckey = Compile.compile_expr key in
    fun () ->
      incr Compile.index_probes;
      let v = ckey [||] [||] in
      (* [col = NULL] matches nothing. *)
      (match Table.columnar table with
      | Some store ->
        let tids =
          if Value.is_null v then [||] else Table.index_lookup_tids table ix v
        in
        batch_of_sorted_tids store ~track ~slot tids
      | None ->
        let rows =
          if Value.is_null v then [] else Table.index_lookup table ix v
        in
        batch_of_rows ~track ~slot ~width rows)
  | Plan.Index_range { index; lo; hi } ->
    let ix =
      match Table.find_index table index with
      | Some ix -> ix
      | None -> Errors.catalog_error "no index %s on table %s" index tname
    in
    let kcol = Index.column ix in
    let cbound = Option.map (fun (p, incl) -> (Compile.compile_expr p, incl)) in
    let clo = cbound lo and chi = cbound hi in
    fun () ->
      incr Compile.index_probes;
      let eval = Option.map (fun (c, incl) -> (c [||] [||], incl)) in
      let lo = eval clo and hi = eval chi in
      (* A NULL bound makes the comparison false for every row. *)
      let null_bound =
        match lo, hi with
        | Some (v, _), _ when Value.is_null v -> true
        | _, Some (v, _) when Value.is_null v -> true
        | _ -> false
      in
      (match Table.columnar table with
      | Some store ->
        (* The row path re-sorts probe results into tid order, so a
           range probe is observably a bound-filtered scan in heap
           order — over the mirror that is one selection pass on the
           key column ([Index.range]'s bound semantics, NULL-keyed rows
           excluded), skipping the index walk, row fetch and re-sort.
           The bounds bind through the same typed comparators as
           filter passes, so the scan compares unboxed cells (or
           dictionary-translated codes) rather than boxed values.
           Selective ranges trade an O(matched) walk for O(rows) cheap
           compares; the engine's range probes are watermark-shaped and
           typically match most of the log. *)
        let kview = Column.view store kcol in
        let n = Column.length store in
        let buf = Array.make n 0 in
        let k = ref 0 in
        if not null_bound then begin
          let above =
            match lo with
            | None -> P_const true
            | Some (b, incl) ->
              bind_cmp_const (if incl then Ast.Ge else Ast.Gt) kview b
          in
          let below =
            match hi with
            | None -> P_const true
            | Some (b, incl) ->
              bind_cmp_const (if incl then Ast.Le else Ast.Lt) kview b
          in
          match pred_and (pred_and (nonnull_pred kview) above) below with
          | P_const false -> ()
          | P_const true ->
            for p = 0 to n - 1 do
              buf.(p) <- p
            done;
            k := n
          | P_fun f ->
            for p = 0 to n - 1 do
              if f p then begin
                buf.(!k) <- p;
                incr k
              end
            done
        end;
        {
          cols = Column.views store;
          sel = Chosen (if !k = n then buf else Array.sub buf 0 !k);
          srcs =
            (if track then [ { slot; tids = Column.tids store } ] else []);
        }
      | None ->
        let rows =
          if null_bound then [] else Table.index_range table ix ?lo ?hi ()
        in
        batch_of_rows ~track ~slot ~width rows)

(* Joins ------------------------------------------------------------------ *)

module VTbl = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

(* Multi-column keys: value arrays through {!Value.Key}, the same tables
   the row path keys its joins and groups on. *)
module KTbl = Hashtbl.Make (Value.Key)

(* Int-keyed tables for the unboxed join / group kernels. The hash is a
   single multiply (Fibonacci hashing) instead of [Hashtbl.hash]'s
   polymorphic runtime call — the probe loop touches it once per row. *)
module ITbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = (x * 0x2545F4914F6CDD1D) lsr 12
end)

(* Typed gathers: join outputs copy the matched positions into fresh
   arrays of the same layout, so the output batch stays unboxed and the
   dictionary handle travels with the codes. *)
let gather_ints (a : int array) (idx : int array) : int array =
  let n = Array.length idx in
  let out = Array.make n 0 in
  for k = 0 to n - 1 do
    Array.unsafe_set out k (Array.unsafe_get a (Array.unsafe_get idx k))
  done;
  out

let gather_floats (a : float array) (idx : int array) : float array =
  let n = Array.length idx in
  if n = 0 then [||]
  else begin
    let out = Array.make n 0.0 in
    for k = 0 to n - 1 do
      Array.unsafe_set out k (Array.unsafe_get a (Array.unsafe_get idx k))
    done;
    out
  end

let gather_bitvec (nulls : Bitvec.t) (idx : int array) : Bitvec.t =
  if Bitvec.count nulls = 0 then Bitvec.empty
  else begin
    let out = Bitvec.create () in
    Array.iter (fun i -> Bitvec.push out (Bitvec.get nulls i)) idx;
    out
  end

let gather_view (v : Column.view) (idx : int array) : Column.view =
  match v with
  | Column.V_int (a, nulls) ->
    Column.V_int (gather_ints a idx, gather_bitvec nulls idx)
  | Column.V_float (a, nulls) ->
    Column.V_float (gather_floats a idx, gather_bitvec nulls idx)
  | Column.V_bool a -> Column.V_bool (gather_ints a idx)
  | Column.V_str (codes, d) -> Column.V_str (gather_ints codes idx, d)
  | Column.V_mixed a -> Column.V_mixed (Array.map (fun i -> a.(i)) idx)

let gather_cols (cols : Column.view array) (idx : int array) =
  Array.map (fun v -> gather_view v idx) cols

let gather_srcs (srcs : src_col list) (idx : int array) =
  List.map (fun sc -> { sc with tids = gather_ints sc.tids idx }) srcs

(* A join key: the compile-time skeleton (bare-field indices when the
   key is a column reference) plus the generic evaluators. *)
type jkey = {
  pf : int option;  (** probe-side field, when the key is a bare column *)
  bf : int option;  (** build-side field likewise *)
  cp : bexpr;
  cb : bexpr;
}

let never (_ : int) = false

(* Unboxed single-key join plan over a view pairing: per-side
   (is_null, int key) accessors in a shared key space, or [None] when
   the pairing needs the boxed Value table ([Value.equal]'s cross-type
   Int/Float matching, Mixed columns, computed keys). NULL keys match
   NULL keys, as the row path's canonical "n" key does: BOOL's 2 and
   TEXT's -1 encode that in-band; INT NULLs go through a dedicated
   chain. Cross-dictionary string joins translate probe codes into the
   build dictionary's space, memoized per code; a string absent from
   the build dictionary maps to -2, which no build key can equal. *)
let typed_keys (vp : Column.view) (vb : Column.view) :
    ((int -> bool) * (int -> int) * (int -> bool) * (int -> int)) option =
  match vp, vb with
  | Column.V_int (pa, pn), Column.V_int (ba, bn) ->
    let pnull =
      if Bitvec.count pn = 0 then never else fun q -> Bitvec.get pn q
    in
    let bnull =
      if Bitvec.count bn = 0 then never else fun p -> Bitvec.get bn p
    in
    Some (pnull, (fun q -> pa.(q)), bnull, fun p -> ba.(p))
  | Column.V_bool pa, Column.V_bool ba ->
    Some (never, (fun q -> pa.(q)), never, fun p -> ba.(p))
  | Column.V_str (pc, pd), Column.V_str (bc, bd) ->
    if pd == bd then Some (never, (fun q -> pc.(q)), never, fun p -> bc.(p))
    else begin
      let memo = Array.make (max 1 (Column.dict_size pd)) min_int in
      let remap x =
        if x < 0 then -1
        else begin
          let m = Array.unsafe_get memo x in
          if m <> min_int then m
          else begin
            let m =
              match Column.dict_find bd (Column.dict_string pd x) with
              | Some c -> c
              | None -> -2
            in
            memo.(x) <- m;
            m
          end
        end
      in
      Some (never, (fun q -> remap pc.(q)), never, fun p -> bc.(p))
    end
  | _ -> None

(* Hash join: build on the new slot (full width), probe with the prefix,
   emit (probe, build) position pairs. Per-key chains are built by
   prepending in build order, reproducing [Hashtbl.add] + [find_all]'s
   reverse-insertion match order; probing in prefix order makes the
   output probe-major, exactly the row path's [List.rev !out]. The key
   representation is picked per execution: raw ints / dictionary codes
   when the views allow, the Value table otherwise, {!Value.Key} for
   multi-column keys. *)
let join_hash ~(keys : jkey list) (prefix : batch) (build : batch)
    ~(keep : int array option) : batch =
  let probe_idx = Vec.create ~dummy:0 () in
  let build_idx = Vec.create ~dummy:0 () in
  let emit q p =
    Vec.push probe_idx q;
    Vec.push build_idx p
  in
  let value_join (cp : bexpr) (cb : bexpr) =
    (* Single-column boxed key: [Value.equal] / [Value.hash] agree with
       canonical-key equality on single values (NULL = NULL, integral
       floats = ints), so grouping matches the row path's string keys
       without per-row encoding. *)
    let evb = cb build.cols in
    let tbl : int list ref VTbl.t = VTbl.create (max 16 (sel_length build.sel)) in
    sel_iter
      (fun p ->
        let k = evb p in
        match VTbl.find_opt tbl k with
        | Some cell -> cell := p :: !cell
        | None -> VTbl.add tbl k (ref [ p ]))
      build.sel;
    let evp = cp prefix.cols in
    sel_iter
      (fun q ->
        match VTbl.find_opt tbl (evp q) with
        | None -> ()
        | Some cell -> List.iter (fun p -> emit q p) !cell)
      prefix.sel
  in
  (match keys with
   | [ k ] -> (
     let typed =
       match k.pf, k.bf with
       | Some pi, Some bi -> typed_keys prefix.cols.(pi) build.cols.(bi)
       | _ -> None
     in
     match typed with
     | Some (pnull, pkey, bnull, bkey) ->
       let tbl : int list ref ITbl.t =
         ITbl.create (max 16 (sel_length build.sel))
       in
       let null_chain = ref [] in
       (* find_opt, not find: probe misses are the common case (the
          violation-free join is empty), and a raise per miss costs more
          than the 2-word [Some] per hit. *)
       sel_iter
         (fun p ->
           if bnull p then null_chain := p :: !null_chain
           else
             let k = bkey p in
             match ITbl.find_opt tbl k with
             | Some cell -> cell := p :: !cell
             | None -> ITbl.add tbl k (ref [ p ]))
         build.sel;
       sel_iter
         (fun q ->
           if pnull q then List.iter (fun p -> emit q p) !null_chain
           else
             match ITbl.find_opt tbl (pkey q) with
             | Some cell -> List.iter (fun p -> emit q p) !cell
             | None -> ())
         prefix.sel
     | None -> value_join k.cp k.cb)
   | _ ->
     (* Multi-column key: value tuples through {!Value.Key}, the
        equality the row path implements. *)
     let evbs = List.map (fun k -> k.cb build.cols) keys in
     let tbl : int list ref KTbl.t = KTbl.create (max 16 (sel_length build.sel)) in
     sel_iter
       (fun p ->
         let kv = Array.of_list (List.map (fun ev -> ev p) evbs) in
         match KTbl.find_opt tbl kv with
         | Some cell -> cell := p :: !cell
         | None -> KTbl.add tbl kv (ref [ p ]))
       build.sel;
     let evps = List.map (fun k -> k.cp prefix.cols) keys in
     sel_iter
       (fun q ->
         let kv = Array.of_list (List.map (fun ev -> ev q) evps) in
         match KTbl.find_opt tbl kv with
         | None -> ()
         | Some cell -> List.iter (fun p -> emit q p) !cell)
       prefix.sel);
  let pidx = Vec.to_array probe_idx and bidx = Vec.to_array build_idx in
  let m = Array.length pidx in
  Compile.note_rows m;
  note_batch m;
  let bcols =
    match keep with
    | None -> build.cols
    | Some keep -> Array.map (fun j -> build.cols.(j)) keep
  in
  {
    cols = Array.append (gather_cols prefix.cols pidx) (gather_cols bcols bidx);
    sel = All m;
    srcs = gather_srcs prefix.srcs pidx @ gather_srcs build.srcs bidx;
  }

(* Nested-loop cross product, probe-major like the row path. *)
let join_nested (prefix : batch) (build : batch) ~(keep : int array option) :
    batch =
  let probe_idx = Vec.create ~dummy:0 () in
  let build_idx = Vec.create ~dummy:0 () in
  sel_iter
    (fun q ->
      sel_iter
        (fun p ->
          Vec.push probe_idx q;
          Vec.push build_idx p)
        build.sel)
    prefix.sel;
  let pidx = Vec.to_array probe_idx and bidx = Vec.to_array build_idx in
  let m = Array.length pidx in
  Compile.note_rows m;
  note_batch m;
  let bcols =
    match keep with
    | None -> build.cols
    | Some keep -> Array.map (fun j -> build.cols.(j)) keep
  in
  {
    cols = Array.append (gather_cols prefix.cols pidx) (gather_cols bcols bidx);
    sel = All m;
    srcs = gather_srcs prefix.srcs pidx @ gather_srcs build.srcs bidx;
  }

(* Finish ----------------------------------------------------------------- *)

let row_at (b : batch) (pos : int) : Value.t array =
  Array.map (fun v -> Column.view_value v pos) b.cols

let src_at (b : batch) (pos : int) : (int * int) list =
  List.map (fun sc -> (sc.slot, sc.tids.(pos))) b.srcs

(* Materialize the batch's live rows as annotated rows, in selection
   order. Lineage is off by routing (lineage runs stay on the row
   path). *)
let arows_of_batch (b : batch) : Compile.arow list =
  let out = ref [] in
  sel_iter
    (fun pos ->
      out :=
        { Compile.vals = row_at b pos; lin = Lineage.off; src = src_at b pos }
        :: !out)
    b.sel;
  List.rev !out

(* Unboxed single-column group key over a view: (is_null, int key) with
   the same in-band NULL conventions as the join kernels; [None] falls
   back to the Value-keyed table (floats, whose Int-crossing equality
   the int space cannot express, and Mixed). *)
let typed_group_key (v : Column.view) :
    ((int -> bool) * (int -> int)) option =
  match v with
  | Column.V_int (a, nulls) ->
    let knull =
      if Bitvec.count nulls = 0 then never else fun i -> Bitvec.get nulls i
    in
    Some (knull, fun i -> a.(i))
  | Column.V_bool a -> Some (never, fun i -> a.(i))
  | Column.V_str (codes, _) -> Some (never, fun i -> codes.(i))
  | Column.V_float _ | Column.V_mixed _ -> None

(* Unboxed aggregate accumulation over a NULL-free int column: the same
   folds [Aggregate.compute] performs, minus the per-row boxing. SUM
   starts at the first element (so integer wrap-around is bit-identical
   to [sum_step]), MIN/MAX keep the int order [Value.compare] gives
   ints, AVG divides the int sum exactly as the row path does. *)
let int_agg (agg : Ast.agg) (a : int array) (members : int list) : Value.t =
  match agg, members with
  | Ast.Count_star, _ | Ast.Count, _ -> Value.Int (List.length members)
  | _, [] -> Value.Null
  | Ast.Sum, p :: ps ->
    Value.Int (List.fold_left (fun acc q -> acc + a.(q)) a.(p) ps)
  | Ast.Avg, p :: ps ->
    let n = List.length members in
    let s = List.fold_left (fun acc q -> acc + a.(q)) a.(p) ps in
    Value.Float (float_of_int s /. float_of_int n)
  | Ast.Min, p :: ps ->
    Value.Int
      (List.fold_left (fun m q -> if a.(q) < m then a.(q) else m) a.(p) ps)
  | Ast.Max, p :: ps ->
    Value.Int
      (List.fold_left (fun m q -> if a.(q) > m then a.(q) else m) a.(p) ps)

(* Group + aggregate + HAVING over the final batch, producing the same
   (representative, aggregates) pairs as [Compile.compile_produce]:
   first-encounter group order, members in row order — and for the
   ungrouped aggregate the row path's reversed order, so fold-sensitive
   aggregates and the last-row representative match exactly. Single
   bare-column keys group on raw ints / dictionary codes when the
   layout allows; aggregates over NULL-free int columns fold unboxed,
   everything else runs [Aggregate.compute] over row indices, which is
   the row path's own accumulation code. *)
let produce_batch (f : Plan.finish) : batch -> (Compile.arow * Value.t array) list
    =
  let gkeys = List.map compile_bexpr f.Plan.group_by in
  let gfields = List.map Optimizer.key_field f.Plan.group_by in
  let grouped = f.Plan.group_by <> [] in
  let aggcs =
    Array.map
      (fun (a : Plan.agg_spec) ->
        ( a.Plan.agg,
          a.Plan.distinct_agg,
          (match a.Plan.arg with
          | None -> None
          | Some p -> Optimizer.key_field p),
          match a.Plan.arg with
          | None -> None
          | Some p -> Some (compile_bexpr p) ))
      f.Plan.aggs
  in
  let having = Option.map Compile.compile_expr f.Plan.having in
  fun (b : batch) ->
    let group_list : int list list =
      if not grouped then begin
        let acc = ref [] in
        sel_iter (fun pos -> acc := pos :: !acc) b.sel;
        [ !acc ]
      end
      else begin
        match gkeys, gfields with
        | [ _ ], [ Some fi ] when typed_group_key b.cols.(fi) <> None ->
          (* Single bare-column key on an int-keyable layout: group on
             the raw ints / codes. The NULL group (chained separately
             for INT columns, in-band for BOOL/TEXT) appears at its
             first-encounter position like every other group. *)
          let knull, kkey =
            match typed_group_key b.cols.(fi) with
            | Some kk -> kk
            | None -> assert false
          in
          let groups : int list ref ITbl.t = ITbl.create 64 in
          let null_cell = ref None in
          let order = ref [] in
          sel_iter
            (fun pos ->
              if knull pos then (
                match !null_cell with
                | Some cell -> cell := pos :: !cell
                | None ->
                  let cell = ref [ pos ] in
                  null_cell := Some cell;
                  order := cell :: !order)
              else
                let k = kkey pos in
                match ITbl.find groups k with
                | cell -> cell := pos :: !cell
                | exception Not_found ->
                  let cell = ref [ pos ] in
                  ITbl.add groups k cell;
                  order := cell :: !order)
            b.sel;
          List.rev_map (fun cell -> List.rev !cell) !order
        | [ gk ], _ ->
          (* Single computed / float / Mixed key: group on the {!Value}
             directly — [Value.equal]/[Value.hash] agree with
             canonical-key equality on single values, so the groups and
             their first-encounter order are identical to the string
             path without the per-row key encoding. *)
          let ev = gk b.cols in
          let groups : int list ref VTbl.t = VTbl.create 64 in
          let order = ref [] in
          sel_iter
            (fun pos ->
              let k = ev pos in
              match VTbl.find_opt groups k with
              | Some cell -> cell := pos :: !cell
              | None ->
                let cell = ref [ pos ] in
                VTbl.add groups k cell;
                order := cell :: !order)
            b.sel;
          List.rev_map (fun cell -> List.rev !cell) !order
        | _ ->
          let evs = List.map (fun bx -> bx b.cols) gkeys in
          let groups : int list ref KTbl.t = KTbl.create 64 in
          let order = ref [] in
          sel_iter
            (fun pos ->
              let key = Array.of_list (List.map (fun ev -> ev pos) evs) in
              match KTbl.find_opt groups key with
              | Some cell -> cell := pos :: !cell
              | None ->
                let cell = ref [ pos ] in
                KTbl.add groups key cell;
                order := cell :: !order)
            b.sel;
          List.rev_map (fun cell -> List.rev !cell) !order
      end
    in
    List.filter_map
      (fun members ->
        let aggs =
          Array.map
            (fun (agg, distinct, argf, argc) ->
              match agg with
              | Ast.Count_star -> Value.Int (List.length members)
              | _ -> (
                let typed_col =
                  if distinct then None
                  else
                    match argf with
                    | Some i -> (
                      match b.cols.(i) with
                      | Column.V_int (a, nulls) when Bitvec.count nulls = 0 ->
                        Some a
                      | _ -> None)
                    | None -> None
                in
                match typed_col with
                | Some a -> int_agg agg a members
                | None ->
                  let eval_arg =
                    match argc with
                    | None -> fun (_ : int) -> Value.Int 1
                    | Some bx ->
                      let ev = bx b.cols in
                      fun pos -> ev pos
                  in
                  Aggregate.compute agg ~distinct ~eval_arg members))
            aggcs
        in
        let merged =
          match members with
          | pos :: _ ->
            (* src is [] here: aggregated + track_src routes to rows. *)
            { Compile.vals = row_at b pos; lin = Lineage.off; src = [] }
          | [] -> { Compile.vals = [||]; lin = Lineage.empty; src = [] }
        in
        let keep =
          match having with
          | None -> true
          | Some h -> Value.to_bool (h merged.Compile.vals aggs)
        in
        if keep then Some (merged, aggs) else None)
      group_list

(* Pipeline --------------------------------------------------------------- *)

let rec compile_route (cat : Catalog.t) (opts : Compile.opts)
    (route : Plan.route) (q : Plan.query) : Compile.t =
  match route, q with
  | Plan.Route_batch, Plan.Select sp -> compile_select_batch cat opts sp
  | Plan.Route_union { left = rl; right = rr }, Plan.Union { all; left; right }
    ->
    let l = compile_route cat opts rl left in
    let r = compile_route cat opts rr right in
    {
      Compile.cols = l.Compile.cols;
      exec = (fun () -> Compile.union_rows ~all (l.Compile.exec ()) (r.Compile.exec ()));
    }
  | (Plan.Route_row | Plan.Route_batch | Plan.Route_union _), _ ->
    (* Routed to rows (or a route/shape mismatch, impossible when the
       route came from [Optimizer.batch_route] on this query). *)
    incr row_fallbacks;
    Compile.compile cat opts q

and compile_select_batch (cat : Catalog.t) (opts : Compile.opts)
    (sp : Plan.select_plan) : Compile.t =
  let track = opts.Compile.track_src in
  let nslots = Array.length sp.Plan.slots in
  let scan =
    Array.mapi
      (fun idx (slot : Plan.slot) ->
        let raw =
          match slot.Plan.source with
          | Plan.Scan (name, access) ->
            let table = Catalog.find cat name in
            batch_access table (Table.name table) ~track ~slot:idx access
          | Plan.Sub q ->
            (* Subqueries compile on the row path (they may be routed
               there themselves) and adapt at the slot boundary; source
               tids do not flow out of subqueries, as in the row path. *)
            let c =
              Compile.compile cat { opts with Compile.track_src = false } q
            in
            let width = Array.length c.Compile.cols in
            fun () ->
              let rows = c.Compile.exec () in
              let n = List.length rows in
              let cols = Array.init width (fun _ -> Array.make n Value.Null) in
              List.iteri
                (fun i (r : Compile.arow) ->
                  for cidx = 0 to width - 1 do
                    cols.(cidx).(i) <- r.Compile.vals.(cidx)
                  done)
                rows;
              {
                cols = Array.map (fun a -> Column.V_mixed a) cols;
                sel = All n;
                srcs = [];
              }
        in
        fun () ->
          let b = raw () in
          note_batch (sel_length b.sel);
          b)
      sp.Plan.slots
  in
  let scan_preds = Array.map (List.map compile_bpred) sp.Plan.scan_preds in
  let project =
    Array.map
      (fun (slot : Plan.slot) ->
        if Array.length slot.Plan.keep = Array.length slot.Plan.cols then None
        else Some slot.Plan.keep)
      sp.Plan.slots
  in
  let steps =
    Array.map
      (fun (j : Plan.jstep) ->
        ( List.map
            (fun (p, b) ->
              {
                pf = Optimizer.key_field p;
                bf = Optimizer.key_field b;
                cp = compile_bexpr p;
                cb = compile_bexpr b;
              })
            j.Plan.keys,
          List.map compile_bpred j.Plan.residual ))
      sp.Plan.joins
  in
  let const_preds = List.map Compile.compile_expr sp.Plan.const_preds in
  let produce_degenerate = Compile.compile_produce sp.Plan.finish in
  let produce =
    if sp.Plan.finish.Plan.aggregated then produce_batch sp.Plan.finish
    else fun b -> List.map (fun r -> (r, [||])) (arows_of_batch b)
  in
  let fin_tail = Compile.compile_finish_tail sp.Plan.finish in
  let cols = Array.of_list sp.Plan.finish.Plan.columns in
  let exec () =
    if not (List.for_all (fun c -> Value.to_bool (c [||] [||])) const_preds)
    then fin_tail (produce_degenerate [])
    else if nslots = 0 then
      fin_tail
        (produce_degenerate
           [ { Compile.vals = [||]; lin = Lineage.empty; src = [] } ])
    else begin
      let joined = ref { cols = [||]; sel = All 0; srcs = [] } in
      for si = 0 to nslots - 1 do
        let b = ref (scan.(si) ()) in
        b := filter_conjuncts !b scan_preds.(si);
        let keys, residual = steps.(si) in
        if si = 0 then begin
          (match project.(0) with
           | None -> ()
           | Some keep ->
             b := { !b with cols = Array.map (fun j -> !b.cols.(j)) keep });
          joined := filter_residual !b residual
        end
        else begin
          let out =
            if keys <> [] then join_hash ~keys !joined !b ~keep:project.(si)
            else join_nested !joined !b ~keep:project.(si)
          in
          joined := filter_residual out residual
        end
      done;
      fin_tail (produce !joined)
    end
  in
  { Compile.cols; exec }

(* Entry point: route per subtree, lower batch subtrees, fall back to the
   row compiler elsewhere. *)
let compile (cat : Catalog.t) (opts : Compile.opts) (q : Plan.query) :
    Compile.t =
  let route =
    Optimizer.batch_route ~lineage:opts.Compile.lineage
      ~track_src:opts.Compile.track_src q
  in
  compile_route cat opts route q
