(** Heap tables with maintained secondary indexes.

    Rows live in insertion order in a growable vector; every row gets a
    monotonically increasing tuple id. Tables support appends (with type
    checking against the schema), predicate/tid-set deletion (DML and log
    compaction) and savepoints.

    {b Invariant: rows are sorted by tid.} Tuple ids are handed out by a
    monotone counter and rows are only ever appended, so the heap vector
    is tid-ascending at all times. {!find_by_tid} (binary search) and the
    index access paths (which fetch tid-sorted probe results to reproduce
    heap scan order) both rely on this. Any future bulk path that
    constructs rows directly must preserve it; {!insert} asserts
    monotonicity when {!debug_checks} is set.

    A savepoint captures the current row count; since mutation between a
    savepoint and its resolution is append-only in the DataLawyer engine
    (tentative log increments), rollback is a truncation. Deletions and
    updates are rejected while a savepoint is outstanding.

    Columns may carry declared secondary indexes ({!Index}): hash for
    equality, sorted for ranges. Every mutation path — [insert],
    [bulk_load], [delete_where], [retain_tids], [update_where],
    [rollback_to], [clear] — keeps them exactly consistent with the
    heap, at a cost proportional to the rows it touches rather than to
    the size of the index buckets involved (per index, on top of one key
    probe per row):

    - [insert], [bulk_load]: O(1) amortized per row;
    - [rollback_to]: O(1) per discarded row, allocation-free;
    - [delete_where], [retain_tids]: one {!Index.remove_many} per index,
      compacting each touched bucket once;
    - [update_where]: O(rows) rebuild of each index whose key changed
      for some updated row; nothing for the others;
    - [clear]: O(keys). *)

type t

(** When set, {!insert} asserts the tid-monotonicity invariant on every
    append. Enabled by the test suite; off by default. *)
val debug_checks : bool ref

val create : name:string -> schema:Schema.t -> t
val name : t -> string
val schema : t -> Schema.t
val row_count : t -> int

(** Insert a row and return its tuple id.
    @raise Errors.Sql_error on arity or cell-type mismatch. *)
val insert : t -> Value.t array -> int

val iter : (Row.t -> unit) -> t -> unit
val fold : ('acc -> Row.t -> 'acc) -> 'acc -> t -> 'acc
val rows : t -> Row.t list

(** Rows in insertion order, produced lazily (snapshot serialization
    iterates large log relations without materializing a list). *)
val to_seq : t -> Row.t Seq.t

(** Append many rows (recovery bulk load); each row is type-checked like
    {!insert} and all indexes are maintained.
    @raise Errors.Sql_error inside a savepoint. *)
val bulk_load : t -> Value.t array list -> unit

(** Binary search by tuple id (rows are sorted by tid — see the module
    invariant above). *)
val find_by_tid : t -> int -> Row.t option

(** {1 Secondary indexes} *)

(** Declared indexes, in creation order. *)
val indexes : t -> Index.t list

(** Find an index by (case-insensitive) name. *)
val find_index : t -> string -> Index.t option

(** Indexes declared on the given column position. *)
val index_on : t -> column:int -> Index.t list

(** Declare an index on a column (by name) and build it from the current
    rows. Returns the new index.
    @raise Errors.Sql_error if the name is taken or the column unknown. *)
val create_index : t -> name:string -> column:string -> kind:Index.kind -> Index.t

(** Remove an index by name. @raise Errors.Sql_error if absent. *)
val drop_index : t -> string -> unit

(** Rows whose indexed cell is {!Value.equal} to the probe value, in tid
    (= heap scan) order. NULL-probe gating is the caller's concern. *)
val index_lookup : t -> Index.t -> Value.t -> Row.t list

(** Rows whose indexed cell lies within the bounds (see {!Index.range}),
    in tid order. @raise Errors.Sql_error on a hash index. *)
val index_range :
  t -> Index.t -> ?lo:Index.bound -> ?hi:Index.bound -> unit -> Row.t list

(** Tid-only variant of {!index_lookup}: the same tids in the same
    order (ascending, deduplicated), without fetching rows or sorting
    (index buckets are kept ascending). The batch
    executor maps these to columnar-mirror positions instead of
    materializing rows. *)
val index_lookup_tids : t -> Index.t -> Value.t -> int array

(** {1 Columnar mirror}

    Opt-in decomposed storage for the vectorized executor ({!Column}):
    per-column value vectors plus a tid vector, kept exactly consistent
    with the heap by the same mutation hooks that maintain indexes.
    Batch scans borrow its backing arrays without copying. *)

(** Build (or return) the table's columnar mirror. Subsequent mutations
    keep it synchronized. *)
val enable_columnar : t -> Column.t

(** The columnar mirror, when {!enable_columnar} has been called. *)
val columnar : t -> Column.t option

(** {1 Deletion and update} *)

(** Delete all rows whose tid is {e not} in the given set; returns the
    number removed. Used by log compaction's delete phase. One pass over
    the heap; each index then compacts every bucket it lost a tid from
    once (and the columnar mirror is rebuilt when anything was
    removed).
    @raise Errors.Sql_error inside a savepoint. *)
val retain_tids : t -> (int, unit) Hashtbl.t -> int

(** Delete rows matching the predicate (called once per row); returns
    the number removed. Index upkeep as for {!retain_tids}.
    @raise Errors.Sql_error inside a savepoint. *)
val delete_where : t -> (Row.t -> bool) -> int

(** Remove every row (index definitions survive, their entries drop).
    @raise Errors.Sql_error inside a savepoint. *)
val clear : t -> unit

(** In-place update of matching rows; the callback receives the old cells
    and returns the new ones (type-checked). Returns the match count.
    Each index whose key changed for some updated row is rebuilt from
    the heap once, also when the callback or the type check raises
    part-way (rows rewritten before the failure stay rewritten).
    @raise Errors.Sql_error inside a savepoint. *)
val update_where : t -> (Row.t -> bool) -> (Value.t array -> Value.t array) -> int

type savepoint

(** Open a savepoint; until it is released or rolled back, only appends
    are allowed. *)
val savepoint : t -> savepoint

(** Truncate back to the savepoint, discarding rows appended since.
    Also restores the tid counter to its savepoint value, so the tids a
    table hands out are independent of discarded tentative appends.
    Rows leave the indexes newest first, each popping its bucket's end:
    O(discarded rows), with no allocation on the index side. *)
val rollback_to : t -> savepoint -> unit

(** Keep the rows appended since the savepoint and close it. *)
val release : t -> savepoint -> unit

(** Iterate the rows appended since the savepoint without building a
    list. *)
val iter_since : (Row.t -> unit) -> t -> savepoint -> unit

(** Fold over the rows appended since the savepoint without building a
    list. *)
val fold_since : ('acc -> Row.t -> 'acc) -> 'acc -> t -> savepoint -> 'acc

(** {1 Delta watermark}

    Support for the engine's incremental policy evaluation: after it has
    proved every policy empty over the current state, the engine marks
    each log relation's watermark; rows appended later (which always
    carry larger tids — see the module invariant) form the delta the
    next evaluation joins against the indexed state. The version
    counters let the engine detect mutations that invalidate that
    proof. *)

(** Current watermark tid (0 until {!mark_delta_base} is first called). *)
val delta_base : t -> int

(** Set the watermark to the next tid to be handed out: every row
    currently in the table is below it, every future append above. *)
val mark_delta_base : t -> unit

(** Bumped by every mutation ([insert], [bulk_load], [delete_where],
    [retain_tids], [update_where], [rollback_to], [clear]). *)
val ver_mut : t -> int

(** Bumped only by mutations that can grow a monotone query's result
    without appending fresh tids: [update_where], [clear] and
    [bulk_load]. Pure removals ([delete_where], [retain_tids],
    [rollback_to]) and appends (watermarked by tid) leave it alone. *)
val ver_unsafe : t -> int

(** Bumped only by predicate deletion ([delete_where]): arbitrary DML
    removals cannot grow a monotone result but do break carried
    aggregate accumulators, which have no way to subtract the removed
    rows. *)
val ver_del : t -> int

(** Bumped only by tid-set deletion ([retain_tids]): witness-driven log
    compaction. Witnesses retain every tuple contributing to an active
    policy, so running SUM/COUNT/AVG state survives compaction;
    MIN/MAX state, which any removal can break, treats it like a
    delete. [rollback_to] bumps neither removal counter — discarded
    tentative rows are never folded into carried state. *)
val ver_compact : t -> int

(** Fold over the delta — the rows with tid >= {!delta_base}, in tid
    order — without touching the rest of the heap (binary lower bound,
    then a tail walk). *)
val fold_delta : ('acc -> Row.t -> 'acc) -> 'acc -> t -> 'acc

(** Fold over the complement of the delta — the rows with
    tid < {!delta_base}, in tid order. Telescoped delta variants of
    aggregate policies use this to enumerate each joined increment row
    exactly once across variants. *)
val fold_below : ('acc -> Row.t -> 'acc) -> 'acc -> t -> 'acc

val pp : Format.formatter -> t -> unit
