(** Plan rewrites: constant folding, predicate pushdown into scans,
    equi-join-key extraction, access-path selection against the catalog's
    declared indexes, and projection pruning across joins.

    Semantics-preserving: output rows, lineage, and source tids are
    identical to compiling the binder's naive plan directly (checked by
    the differential property test). The catalog is consulted for index
    metadata only; compiled plans must still be invalidated (via
    {!Catalog.generation}) when indexes change. *)

val optimize : Catalog.t -> Plan.query -> Plan.query

(** How sensitive a policy's carried delta state is to mutations of one
    dependency table: which of the table's version counters the
    incremental engine must fold into its snapshot. Totally ordered by
    sensitivity — [Dep_plain] (any mutation, {!Table.ver_mut}),
    [Dep_log] (result-growing non-appends, {!Table.ver_unsafe}),
    [Dep_log_exact] (adds predicate deletion, {!Table.ver_del} — carried
    SUM/COUNT/AVG accumulators survive witness-driven compaction, which
    retains every contributing row, but not arbitrary DML),
    [Dep_log_frozen] (adds compaction, {!Table.ver_compact} — MIN/MAX
    state treats any removal as invalidating). *)
type dep_kind = Dep_plain | Dep_log | Dep_log_exact | Dep_log_frozen

(** Delta evaluation of an aggregated select: telescoped variant streams
    emit one raw row [group-key values @ aggregate arguments] per joined
    tuple binding at least one delta row; the engine folds that stream
    into carried per-group accumulators ({!Delta_store} in the
    incremental library) and re-checks HAVING and the projections only
    for the touched groups. *)
type agg_delta = {
  ad_variants : Plan.query list;
      (** one per log slot: that slot {!Plan.Delta}, earlier log slots
          [Heap], later log slots {!Plan.Below} — each delta-bound
          joined tuple appears in exactly one variant *)
  ad_full : Plan.query;
      (** the same stream over the full state (all-[Heap]), for
          rebuilding carried accumulators when the base is invalid *)
  ad_nkeys : int;  (** leading group-key values per stream row *)
  ad_specs : (Ast.agg * bool) array;
      (** (aggregate function, DISTINCT?) per trailing stream column,
          in {!Plan.finish} aggregate order *)
  ad_width : int;  (** full row-layout width, for representative rows *)
  ad_rep_slots : int option list;
      (** per group-by position: [Some i] when the key expression is the
          bare field [i], recovering the representative cell *)
  ad_finish : Plan.finish;
      (** the policy's own finish: HAVING/projections re-evaluate per
          touched group over (representative row, aggregate values) *)
}

(** One delta-evaluation strategy per select of a policy. [B_spj] is the
    monotone per-log-slot variant union; [B_residual] is an exact
    recompute with the clock relation eliminated and read at execution
    time (sound only while the clock holds exactly one row — the engine
    guards per evaluation); [B_agg] carries per-group aggregate
    state. *)
type delta_branch =
  | B_spj of Plan.query list
  | B_residual of { plan : Plan.query; clock_table : string }
  | B_agg of agg_delta

(** Result of {!derive_delta}: the base tables the query reads, each with
    the {!dep_kind} the engine snapshots to validate carried state, and
    one classified branch per select (a UNION policy yields one branch
    per side, with dependencies merged at each table's most sensitive
    kind). *)
type delta_plans = {
  deps : (string * dep_kind) list;
  branches : delta_branch list;
}

(** Delta-plan derivation for incremental policy evaluation. Returns
    [None] unless every select of the query classifies: base-table scans
    only (no subqueries), no LIMIT / DISTINCT ON anywhere, at most one
    clock slot per select (whose presence routes it to [B_residual],
    where aggregation, ORDER BY and window predicates are all
    supported), and clock-free selects split into [B_spj]
    (non-aggregated, no ORDER BY) and [B_agg] (aggregated, with shape
    restrictions documented in the implementation). Projections may be
    arbitrary (a unified policy projects member messages from its
    constants table); branch results union as sets, so callers must
    read them with set semantics. *)
val derive_delta :
  Catalog.t ->
  is_log:(string -> bool) ->
  clock_rel:string ->
  Ast.query ->
  delta_plans option

(** Batch-eligibility analysis for the vectorized executor: route each
    subtree of an optimized plan to the batch pipeline or back to the
    row path. A [Select] routes to {!Plan.Route_batch} unless lineage is
    on (provenance merging stays row-at-a-time), the select is
    aggregated while source tids are tracked, or a clause the batch
    operators evaluate positionally contains a group-context expression.
    UNION sides route independently; subquery slots inside a batched
    select compile through the row path and enter through the row→batch
    adapter regardless of the route. *)
val batch_route :
  lineage:bool -> track_src:bool -> Plan.query -> Plan.route

(** {1 Kernel-shape analysis}

    Compile-time skeletons for the typed batch kernels: routing is
    static, but which kernel runs is re-decided per execution from the
    column layouts the batch binds against (a typed column can demote to
    Mixed between executions of a prepared plan). These classify the
    field/constant shape once so per-execution dispatch is a view
    inspection, with Mixed and opaque shapes falling back to the boxed
    Value kernels. *)

type cmp_shape =
  | Cmp_field_const of Ast.binop * int * Value.t
      (** [field OP literal], constant side normalized to the right *)
  | Cmp_field_field of Ast.binop * int * int  (** [field OP field] *)
  | Cmp_opaque  (** anything else: evaluate through the scalar closure *)

val cmp_shape : Plan.pexpr -> cmp_shape

(** The column index when the expression is a bare field reference —
    a join/group key eligible for the unboxed hash kernels. *)
val key_field : Plan.pexpr -> int option
