(** Batch-at-a-time (vectorized) compiler.

    Lowers batch-routed subtrees ({!Optimizer.batch_route}) to columnar
    operators — zero-copy scans over a table's columnar mirror,
    selection-vector predicate passes, Value-keyed hash joins, columnar
    aggregate accumulation — while reusing the row compiler's finish
    closures, so verdicts, output order, messages and source tids are
    bit-identical to {!Compile.compile}. Subtrees the router keeps on
    the row path (lineage, aggregated source-tracking, group-context
    expressions in batch clauses) fall back to the row compiler
    wholesale. *)

(** Compile a bound plan against the catalog.
    @raise Errors.Sql_error if a scanned table has been dropped. *)
val compile : Catalog.t -> Compile.opts -> Plan.query -> Compile.t

(** {1 Batch statistics}

    Cumulative counters for engine stats, [:stats] and the server's
    [STATS] verb; reset with {!reset_stats}. *)

(** Batches materialized at runtime (scans and join outputs). *)
val batches_built : int ref

(** Total rows across those batches (live selection sizes). *)
val batch_rows : int ref

(** Subtree compilations that fell back to the row path while the
    vectorized executor was requested. *)
val row_fallbacks : int ref

(** Rows-per-batch histogram buckets: [< 16], [< 256], [< 4096],
    [< 65536], [>= 65536]. *)
val hist_snapshot : unit -> int array

val reset_stats : unit -> unit
