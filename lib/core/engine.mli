(** The DataLawyer engine (§4).

    The engine wraps a {!Relational.Database}: users submit queries
    through {!submit}, which (per Eq. 1) tentatively appends the
    usage-log increments, checks every policy, and either rejects the
    query — reverting the log — or persists the (compacted) log and
    executes the query. *)

open Relational

(** How the policy set is evaluated per query. *)
type strategy =
  | Union_all  (** one big UNION of all policies (Algorithm 1 / NoOpt) *)
  | Serial  (** one call per policy *)
  | Interleaved  (** Algorithm 3: partial policies interleaved with log
                     generation, pruning early *)

type config = {
  time_independent : bool;  (** §4.1.1 rewriting *)
  log_compaction : bool;  (** §4.1.2 absolute-witness compaction *)
  unification : bool;  (** §4.2.2 *)
  preemptive : bool;  (** §4.3 preemptive log compaction *)
  improved_partial : bool;  (** §4.3 improved partial policies *)
  strategy : strategy;
  delta : bool;
      (** incremental (delta-driven) policy evaluation: after each
          accepted submission the engine records that every delta-eligible
          policy (see {!Relational.Optimizer.derive_delta}) was proved
          empty over the committed log, and later submissions re-check it
          by scanning only the rows above the log relations' watermarks.
          Policies whose plans are not eligible — or whose recorded base
          was invalidated by DDL, configuration or policy changes, or
          non-monotone table mutations — transparently fall back to full
          re-evaluation, so decisions, messages and log contents are
          identical either way. Defaults to {!default_delta}. *)
  relevance : bool;
      (** the policy relevance index: per active policy, the log slots
          its query binds and the equality filters gating them
          ({!Relevance}). On every submission the engine skips — without
          evaluating — each policy whose proved-empty base still
          validates and whose slots no row of the tentative increment
          can bind. Decisions, messages and log contents are identical
          either way; with thousands of template-instantiated policies,
          the per-submission work shrinks to the handful of policies the
          touched schema elements select. *)
  vectorized : bool;
      (** the vectorized (batch-at-a-time) executor: batch-eligible
          policy, partial-policy and witness plans compile through
          {!Relational.Compile_batch} — zero-copy columnar scans of log
          relations, selection-vector filters, Value-keyed hash joins,
          columnar aggregation — with per-subtree fallback to the row
          path where routing demands it. Verdicts, messages, output
          order and committed tids are bit-identical either way; only
          the operator implementation changes. Defaults to
          {!default_vector}. *)
}

(** Always [1]: evaluation is serial. Remains only because the
    perfbench harness records it; nothing else may use it. *)
val default_domains : int

(** The default for {!config}[.delta]: on, unless the environment sets
    [DL_DELTA=0]. *)
val default_delta : bool

(** The default for {!config}[.unification]: on, unless the environment
    sets [DL_UNIFY=0] (CI pins the unrolled path with it). *)
val default_unify : bool

(** The default for {!config}[.vectorized]: on, unless the environment
    sets [DL_VECTOR=0] (CI runs the suite both ways). *)
val default_vector : bool

(** The NoOpt baseline of Algorithm 1: generate only the logs the
    policies mention, evaluate their union, never compact. *)
val noopt_config : config

(** Every optimization enabled (§4.4). *)
val default_config : config

(** The offline phase's output. *)
type plan = {
  active : Policy.t list;  (** post unification / TI rewriting *)
  inter : Policy.t list;  (** policies in the interleaved loop *)
  rest : Policy.t list;  (** evaluated fully, one by one *)
  required : string list;  (** log relations any active policy references *)
  store_rels : string list;
      (** log relations referenced by a time-dependent policy: only these
          ever need persisting *)
  unified_groups : Unify.group list;
  relevance : Relevance.t;  (** the relevance index over [active] *)
}

type t

type outcome =
  | Accepted of Executor.result * Stats.t
  | Rejected of string list * Stats.t  (** violation messages *)

val stats_of : outcome -> Stats.t

(** Wrap a database. Installs the clock and the given log relations
    (default: {!Usage_log.standard}) if absent.

    When [persist_dir] is given, the engine opens (or creates) a durable
    usage-log store there: every accepted submission's log increments and
    clock advance are journaled as one atomic WAL commit record (a
    rejected submission leaves the WAL untouched), witness compaction
    triggers checkpoints, and on open the latest valid snapshot plus the
    WAL tail are recovered — restoring the [store_rels] relations, the
    clock and the registered-policy set. The same [generators] must be
    registered as when the state was written.
    [persist_fsync] picks the WAL durability/latency trade-off (default
    [Interval 32]).
    @raise Persistence.Recovery.Recovery_error on corrupted state. *)
val create :
  ?config:config ->
  ?generators:Usage_log.generator list ->
  ?persist_dir:string ->
  ?persist_fsync:Persistence.Store.fsync_policy ->
  Database.t ->
  t

val database : t -> Database.t

(** Replace the configuration; invalidates the offline plan. *)
val set_config : t -> config -> unit

(** Register an additional log-generating function (§6 extensibility). *)
val register_generator : t -> Usage_log.generator -> unit

(** Register a policy from SQL text; its history starts now.
    @raise Errors.Sql_error on malformed SQL or duplicate names. *)
val add_policy : t -> name:string -> string -> Policy.t

val remove_policy : t -> string -> unit

(** Registered policies, as written (before unification/rewriting). *)
val policies : t -> Policy.t list

(** The current offline-phase plan (recomputed lazily). *)
val plan : t -> plan

(** Row count of a log relation. *)
val log_size : t -> string -> int

(** (hits, misses) of the prepared-plan cache the policy, partial-policy
    and witness queries execute through. *)
val plan_cache_stats : t -> int * int

(** Drop every cached compiled plan, forcing cold compiles on the next
    submission (benchmarking hook; statistics survive). *)
val clear_plan_cache : t -> unit

(** Always [(1, 0, 0)]: one domain, no parallel batches, no tasks.
    Remains only because the perfbench harness reads it; nothing else
    may use it. *)
val parallel_stats : t -> int * int * int

(** Incremental-evaluation counters, under the current configuration. *)
type delta_stats = {
  eligible_plans : int;
      (** active policies whose queries derive delta plans; 0 when
          {!config}[.delta] is off (everything evaluates in full) *)
  fallback_plans : int;  (** active policies that always evaluate in full *)
  delta_bases : int;  (** policies with a currently recorded base *)
  delta_evals : int;  (** policy evaluations served by delta plans *)
  full_evals : int;
      (** evaluations of a delta-eligible policy that fell back to a full
          re-run (no base yet, the base was invalidated, or a residual
          branch's one-row clock guard failed) *)
  agg_groups : int;
      (** carried aggregate groups, summed over every policy's aggregate
          branches *)
  agg_rebuilds : int;
      (** full-stream rebuilds of carried aggregate state (base invalid
          at establishment) *)
}

(** Snapshot of the incremental-evaluation state: plan eligibility over
    the current active policy set plus the engine-lifetime delta/full
    evaluation counters. Forces the offline plan if stale. *)
val delta_stats : t -> delta_stats

(** Relevance-index counters, under the current configuration. *)
type relevance_stats = {
  rel_indexed : int;  (** active policies in the index *)
  rel_eligible : int;  (** of those, index-eligible *)
  rel_checks : int;  (** skip decisions consulted *)
  rel_skips : int;  (** policies skipped without evaluation *)
}

(** Index shape over the current active set plus the engine-lifetime
    check/skip counters. Forces the offline plan if stale. *)
val relevance_stats : t -> relevance_stats

(** Always [(0, 0)]: scans are never shared between plans. Remains only
    because the perfbench harness reads it; nothing else may use it. *)
val shared_scan_stats : t -> int * int

type vector_stats = {
  vec_enabled : bool;  (** this engine's configured route *)
  vec_batches : int;  (** batches materialized (scans + join outputs) *)
  vec_rows : int;  (** total rows across those batches *)
  vec_fallbacks : int;  (** subtree compilations routed back to rows *)
  vec_hist : int array;
      (** rows-per-batch histogram: < 16, < 256, < 4096, < 65536, rest *)
  vec_typed_cols : int;  (** mirror columns on a typed unboxed layout *)
  vec_mixed_cols : int;  (** mirror columns demoted to boxed Mixed *)
  vec_dict_entries : int;  (** interned strings across TEXT dictionaries *)
}

(** Vectorized-executor counters. The counters are process-wide (the
    compilers are shared, like {!Relational.Executor.rows_examined});
    [vec_enabled] reflects this engine's configuration, and the layout
    census (typed / Mixed columns, dictionary entries) walks this
    engine's columnar mirrors. *)
val vector_stats : t -> vector_stats

(** Unification shape of the current offline plan. *)
type unify_stats = {
  unify_registered : int;  (** policies as registered *)
  unify_active : int;  (** policies after unification / rewriting *)
  unify_groups : int;  (** unified groups *)
  unify_members : int;  (** registered policies absorbed into groups *)
}

(** Forces the offline plan if stale. *)
val unify_stats : t -> unify_stats

(** Check-and-execute one query (the §4.4 online phase). [extra] is
    passed to custom log-generating functions. *)
val submit :
  t -> uid:int -> ?extra:(string * Value.t) list -> string -> outcome

val submit_ast :
  t -> uid:int -> ?extra:(string * Value.t) list -> Ast.query -> outcome

(** One member of an admission batch. *)
type batch_submission = {
  batch_uid : int;
  batch_extra : (string * Value.t) list;
  batch_query : Ast.query;
}

(** Admit a batch of concurrent submissions, returning one result per
    member in order. Decisions, log contents and clock are always
    identical to submitting the members one at a time in list order:
    when every active policy is a monotone SPJ query that never reads
    the clock (exactly {!Relational.Optimizer.derive_delta}'s
    eligibility) and no member query reads a log relation or the clock,
    the batch is decided on a fast path — every member's log increments
    are appended tentatively (each at its own clock tick) and the policy
    set is evaluated {e once} over the combined state, so evaluation,
    witness compaction, WAL record and fsync all amortize across the
    batch; any policy firing, or any ineligibility, falls back to the
    serial path. A member whose evaluation or execution raised yields
    [Error] (the engine state is rolled back for that member exactly as
    {!submit} would); its batch-mates' verdicts are unaffected.

    Shared policy-machinery time of a fast-path batch is not split
    across members: each member's stats carry only its own query
    execution. *)
val submit_batch : t -> batch_submission list -> (outcome, exn) result list

(** Admission-batch counters: batches decided on the fast path, fast
    batches replayed serially after a violation, batches that went
    straight to the serial path (ineligible or singleton), and total
    submissions across them. *)
type batch_stats = {
  fast_batches : int;
  retried_batches : int;
  serial_batches : int;
  batched_submissions : int;
}

val batch_stats : t -> batch_stats

(** Violated policies of the most recent rejected submission (for
    {!Advisor} diagnosis); empty after an accepted one. *)
val last_violations : t -> Policy.t list

(** The persistence store, when the engine was created with
    [persist_dir] (introspection: generation, WAL length, disk size). *)
val persist_store : t -> Persistence.Store.t option

(** Force a checkpoint of the current persistence scope; no-op without
    persistence. *)
val persist_checkpoint : t -> unit

(** Flush and close the persistence store, if any. The engine remains
    usable in memory afterwards. *)
val close : t -> unit
