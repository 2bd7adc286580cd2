(** Maintained secondary indexes: one column's value → tuple ids.

    [Hash] indexes serve equality lookups; [Sorted] indexes additionally
    serve range scans. Entry semantics follow {!Value.equal} ([Null] is
    stored under its own key; integral floats collapse onto ints; NaN,
    as under {!Value.compare}, equals itself); SQL's NULL rules are the
    caller's concern — the compiled access path gates NULL probes, and
    {!range} always skips the [Null] key.

    Indexes store tids, never rows: the owning {!Table} maintains them
    across mutation and resolves tids back to rows. Each key's tids sit
    in an ascending growable array, each tid at most once.

    {b Maintenance cost.} A key probe is one hash (Hash) or one
    O(log keys) map descent (Sorted). On top of it: {!add} of a tid
    newer than every tid under its key (every table insert) is O(1)
    amortized; {!remove} of the newest tid under its key (every
    savepoint-rollback step) is O(1) and allocates nothing; any other
    {!remove} is O(log bucket) to find plus O(bucket) to shift;
    {!remove_many} costs O(k) for k tids fed newest first (the table's
    order; O(k log k) in any other order) plus one in-place
    pass over each touched bucket, from the oldest doomed tid on. So
    neither a rollback nor a bulk delete costs removals × bucket size. *)

type kind = Hash | Sorted

type t

val create : name:string -> column:int -> column_name:string -> kind -> t
val name : t -> string

(** Column position in the owning table's schema. *)
val column : t -> int

val column_name : t -> string
val kind : t -> kind

(** Number of (value, tid) entries — equals the owning table's row count
    when the index is consistent. *)
val entries : t -> int

val kind_to_string : kind -> string

(** Register [tid] under [v]. Tids newer than the bucket's newest are
    appended in O(1) amortized; an older tid is shifted into place. *)
val add : t -> Value.t -> int -> unit

(** Remove [tid] from [v]'s bucket; no-op (leaving {!entries} alone) if
    the value or the tid is absent. Removing the bucket's newest tid —
    what a savepoint rollback does, newest row first — is O(1). *)
val remove : t -> Value.t -> int -> unit

(** [remove_many t iter] removes every [(v, tid)] pair that [iter]
    feeds its callback, in any order; absent pairs are ignored. The
    tids are gathered per bucket and each touched bucket is compacted
    once, so the cost is the number of pairs plus the touched buckets'
    suffixes, not pairs × bucket size. *)
val remove_many : t -> ((Value.t -> int -> unit) -> unit) -> unit

(** Drop every entry (the definition survives; used by [Table.clear]). *)
val clear : t -> unit

(** Tids whose cell is {!Value.equal} to [v], ascending, as a fresh
    array. *)
val lookup : t -> Value.t -> int array

type bound = Value.t * bool  (** value, inclusive? *)

(** Tids whose non-[Null] cell lies within the bounds under
    {!Value.compare}, without duplicates; ascending within each key but
    not across keys.
    @raise Errors.Sql_error on a [Hash] index. *)
val range : t -> ?lo:bound -> ?hi:bound -> unit -> int array

val pp : Format.formatter -> t -> unit
