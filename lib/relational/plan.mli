(** Logical plan IR.

    The binder turns a parsed {!Ast.query} into a fully bound plan: every
    column reference resolves once to an index into an explicit row
    layout, and every clause becomes a {!pexpr} tree over that layout.
    Binding errors (unknown/ambiguous names, aggregates in WHERE, UNION
    arity mismatches) are raised here.

    The binder is naive: WHERE conjuncts attach to the join step at which
    their slots are all available, nothing is pushed into scans, no hash
    keys are extracted, no column is pruned. {!Optimizer.optimize}
    performs those rewrites; compiling the binder's output directly
    yields the un-optimized reference path used by differential tests. *)

(** Bound scalar expression. [Field] indexes the enclosing SELECT's
    concatenated row layout (slot-local inside scan predicates and
    hash-join build keys); [Rep_field] reads the group representative
    row, yielding [Null] for the empty group; [Agg_ref] indexes the
    per-group computed-aggregate array; [Agg_outside] raises lazily, on
    evaluation. *)
type pexpr =
  | Const of Value.t
  | Field of int
  | Rep_field of int
  | Agg_ref of int
  | Agg_outside
  | Exec of (unit -> Value.t)
      (** read a value at execution time — the clock-elimination rewrite
          substitutes the clock relation's single cell with one of these,
          so a compiled residual plan stays valid as the clock advances.
          The closure must never raise and reads no row fields. Plans
          carrying [Exec] are never constant-folded. *)
  | Binop of Ast.binop * pexpr * pexpr
  | Unop of Ast.unop * pexpr
  | Fn of string * pexpr list
  | Case of (pexpr * pexpr) list * pexpr option

(** How a base-table scan reaches its rows. [Heap] walks the whole table;
    the index paths probe a declared {!Index}, selected by the optimizer
    from pushed-down predicates. Key/bound expressions are slot-free; a
    NULL key or bound yields no rows (SQL comparison semantics). *)
type access =
  | Heap
  | Delta
      (** walk only the rows at or above the table's delta watermark
          ({!Table.delta_base}), read at execution time so one compiled
          plan stays valid as the watermark advances *)
  | Below
      (** walk only the rows strictly below the watermark — the
          complement of [Delta]. Telescoped delta variants of aggregate
          policies use it to count each joined increment row exactly
          once across variants. *)
  | Index_eq of { index : string; key : pexpr }
  | Index_range of {
      index : string;
      lo : (pexpr * bool) option;  (** bound, inclusive? *)
      hi : (pexpr * bool) option;
    }

type source =
  | Scan of string * access  (** base table, by catalog name *)
  | Sub of query

and slot = {
  alias : string;  (** lowercased effective alias *)
  cols : string array;
  source : source;
  keep : int array;  (** slot-local columns surviving projection pruning *)
}

(** One join step: [keys] are (probe, build) equi-key pairs — probe over
    the pruned prefix layout, build over the slot's local full-width
    row; [residual] are conjuncts applicable once the slot is joined. *)
and jstep = { keys : (pexpr * pexpr) list; residual : pexpr list }

and agg_spec = { agg : Ast.agg; distinct_agg : bool; arg : pexpr option }

and okey = By_output of int | By_expr of pexpr | By_null

and dspec = D_all | D_distinct | D_on of pexpr list

and finish = {
  columns : string list;
  projs : pexpr list;  (** one per output column *)
  aggregated : bool;
  group_by : pexpr list;
  aggs : agg_spec array;  (** indexed by [Agg_ref] *)
  having : pexpr option;
  order_by : (okey * Ast.order_dir) list;
  distinct : dspec;
  limit : int option;
}

and select_plan = {
  slots : slot array;
  const_preds : pexpr list;  (** slot-free conjuncts gating the query *)
  scan_preds : pexpr list array;  (** per-slot pushdowns, slot-local *)
  joins : jstep array;  (** one per slot *)
  finish : finish;
}

and query = Select of select_plan | Union of { all : bool; left : query; right : query }

(** Physical routing between the row-at-a-time compiler ({!Compile}) and
    the batch-at-a-time compiler ({!Compile_batch}), decided per subtree
    by {!Optimizer.batch_route}. Mirrors the query's UNION structure;
    each [Select] is routed whole. *)
type route =
  | Route_row
  | Route_batch
  | Route_union of { left : route; right : route }

(** Output column names (a UNION's come from its left operand). *)
val columns : query -> string list

(** Bind a query against the catalog.
    @raise Errors.Sql_error on resolution failures. *)
val of_query : Catalog.t -> Ast.query -> query

(** Slots referenced by a bound expression, given the layout's offsets
    and widths; sorted, without duplicates. *)
val slots_of_pexpr : int array -> int array -> pexpr -> int list

(** Per-slot offsets in the full (un-pruned) row layout. *)
val full_offsets : slot array -> int array

(** Per-slot offsets in the pruned layout induced by [keep]. *)
val pruned_offsets : slot array -> int array
