(** Physical compiler: turns a bound {!Plan.query} into closure-compiled
    operators.

    The compiled plan captures table handles and fully resolved field
    offsets; executing it does no name resolution, conjunct decomposition
    or join-key derivation. It remains valid until the catalog changes
    shape — callers key caches on {!Catalog.generation}. *)

type opts = { lineage : bool; track_src : bool }

val default_opts : opts

(** Annotated row: values, lineage, and (FROM-slot index, tid) source
    pairs. *)
type arow = { vals : Value.t array; lin : Lineage.t; src : (int * int) list }

(** Rows examined by join steps since the counter was last reset; a
    statistics hook for tests and benchmarks. *)
val rows_examined : int ref

(** Index probes executed (one per [Index_eq]/[Index_range] scan
    execution); a statistics hook for tests and benchmarks. *)
val index_probes : int ref

(** A compiled scalar closure over (row values, computed aggregates). *)
type cexpr = Value.t array -> Value.t array -> Value.t

(** Compile a bound expression. Pure compile step: errors (unknown
    function, bad arity, type errors, division by zero) are raised when
    the closure runs, matching per-row evaluation. *)
val compile_expr : Plan.pexpr -> cexpr

type t = { cols : string array; exec : unit -> arow list }

(** {1 Finish pipeline, exposed for the batch compiler}

    {!Compile_batch} replaces the join pipeline with columnar operators
    but produces the same [(representative row, computed aggregates)]
    pairs and reuses the closures below, so grouping, projection,
    DISTINCT, ORDER BY and LIMIT semantics are shared code rather than a
    reimplementation. *)

(** Group + aggregate + HAVING over materialized rows: one pair per
    output candidate; non-aggregate queries pass rows through with
    [[||]] aggregates. *)
val compile_produce : Plan.finish -> arow list -> (arow * Value.t array) list

(** Projection, DISTINCT, ORDER BY and LIMIT over produced pairs. *)
val compile_finish_tail :
  Plan.finish -> (arow * Value.t array) list -> arow list

(** UNION merge: [~all:true] concatenates; otherwise duplicates are
    merged by value in first-encounter order, absorbing provenance. *)
val union_rows : all:bool -> arow list -> arow list -> arow list

(** Add to {!rows_examined} (join-step statistics; the batch join calls
    this with the same counts as the row join). *)
val note_rows : int -> unit

(** Compile a bound plan against the catalog.
    @raise Errors.Sql_error if a scanned table has been dropped. *)
val compile : Catalog.t -> opts -> Plan.query -> t
