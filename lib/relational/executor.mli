(** Query execution: thin driver over the plan pipeline
    (bind → optimize → compile → execute).

    Two orthogonal annotations can be threaded through execution:

    - {b lineage}: each output row carries the set of (relation, tid)
      input tuples that contributed to it. Aggregation, DISTINCT and
      UNION merge the lineages of the rows they combine. Implements the
      paper's [f_Provenance] log-generating function.
    - {b source tids}: each output row carries, for every top-level FROM
      item of the outermost SELECT, the tid of the row it derives from.
      Log compaction executes witness queries in this mode to mark
      retained log tuples in place. *)

type opts = Compile.opts = { lineage : bool; track_src : bool }

val default_opts : opts

type row_out = {
  values : Value.t array;
  lineage : (string * int) list;  (** empty unless [opts.lineage] *)
  src_tids : (int * int) list;
      (** (FROM-slot index, tid) pairs; empty unless [opts.track_src] *)
}

type result = { columns : string list; out_rows : row_out list }

(** A compiled plan: all name resolution, conjunct decomposition, join
    planning and closure compilation already done. Valid until the
    catalog's shape changes (see {!Catalog.generation}). *)
type compiled = Compile.t

(** Bind, optimize and compile a query. With [vectorized:true],
    batch-eligible subtrees compile through {!Compile_batch}
    (bit-identical results).
    @raise Errors.Sql_error on binding failures. *)
val prepare :
  ?opts:opts -> ?vectorized:bool -> Catalog.t -> Ast.query -> compiled

(** Like {!prepare} but skipping the optimizer: the naive reference path
    used by differential tests. *)
val prepare_unoptimized : ?opts:opts -> Catalog.t -> Ast.query -> compiled

(** Compiled form of an aggregate delta branch
    ({!Optimizer.agg_delta}): the telescoped stream variants, the
    full-state rebuild stream, the stream-row layout ([c_nkeys] group
    keys then one column per [c_specs] entry), and the policy's own
    HAVING/projections compiled over (representative row of width
    [c_width], computed aggregate values). *)
type agg_compiled = {
  c_variants : compiled list;
  c_full : compiled;
  c_nkeys : int;
  c_specs : (Ast.agg * bool) array;
  c_width : int;
  c_rep_slots : int option list;
  c_having : Compile.cexpr option;
  c_projs : Compile.cexpr list;
  c_columns : string list;
}

(** Compiled per-select delta strategy (see {!Optimizer.delta_branch}).
    [C_residual] is sound only while the named clock table holds exactly
    one row; the engine checks per evaluation. *)
type compiled_branch =
  | C_spj of compiled list
  | C_residual of { c_plan : compiled; c_clock : string }
  | C_agg of agg_compiled

(** Compiled delta evaluation of a delta-eligible query (see
    {!Optimizer.derive_delta}): [delta_deps] are the base tables — each
    with the version counters to snapshot ({!Optimizer.dep_kind}) —
    that validate the engine's emptiness proof and carried state, and
    [delta_branches] the compiled strategy per select. *)
type delta_compiled = {
  delta_deps : (string * Optimizer.dep_kind) list;
  delta_branches : compiled_branch list;
}

(** Derive and compile the delta variants of a query; [None] if the
    query is not delta-eligible. *)
val prepare_delta :
  ?opts:opts ->
  ?vectorized:bool ->
  Catalog.t ->
  is_log:(string -> bool) ->
  clock_rel:string ->
  Ast.query ->
  delta_compiled option

(** Execute a compiled plan.
    @raise Errors.Sql_error on runtime failures. *)
val run_compiled : compiled -> result

(** Execute a query against the catalog ([prepare] + [run_compiled]).
    @raise Errors.Sql_error on binding or runtime failures. *)
val run : ?opts:opts -> Catalog.t -> Ast.query -> result

(** Execute through the un-optimized reference path. *)
val run_unoptimized : ?opts:opts -> Catalog.t -> Ast.query -> result

(** Parse and execute. *)
val run_sql : ?opts:opts -> Catalog.t -> string -> result

(** Does the query return no rows? (Policies are satisfied iff so.) *)
val is_empty : ?opts:opts -> Catalog.t -> Ast.query -> bool

(** Cumulative count of rows examined by join operators, for tests and
    benchmarks. *)
val rows_examined : int ref

(** Cumulative count of index probes executed by compiled access paths. *)
val index_probes : int ref
