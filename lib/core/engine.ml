(** The DataLawyer engine (§4).

    The engine wraps a {!Relational.Database}: users submit queries
    through {!submit}, which (per Eq. 1) tentatively appends the usage-log
    increments, checks every policy, and either rejects the query —
    reverting the log — or persists the (compacted) log and executes the
    query.

    All optimizations can be toggled independently through {!config}:

    - [`Union] / [`Serial] / [`Interleaved] policy-evaluation strategies
      (NoOpt's Algorithm 1 uses [`Union]; Algorithm 3 is [`Interleaved]);
    - time-independent rewriting (§4.1.1);
    - log compaction via absolute witnesses (§4.1.2);
    - policy unification (§4.2.2);
    - preemptive log compaction and improved partial policies (§4.3). *)

open Relational

type strategy = Union_all | Serial | Interleaved

type config = {
  time_independent : bool;
  log_compaction : bool;
  unification : bool;
  preemptive : bool;
  improved_partial : bool;
  strategy : strategy;
  delta : bool;
  relevance : bool;
  vectorized : bool;
}

(* Read only by the perfbench harness: evaluation is serial. *)
let default_domains = 1

(* Incremental policy evaluation defaults on; DL_DELTA=0 pins the
   pre-existing full-re-evaluation path (CI runs the suite both ways). *)
let default_delta =
  match Sys.getenv_opt "DL_DELTA" with
  | Some s -> String.trim s <> "0"
  | None -> true

(* Policy unification defaults on; DL_UNIFY=0 pins the unrolled
   evaluation path (CI runs the suite both ways). *)
let default_unify =
  match Sys.getenv_opt "DL_UNIFY" with
  | Some s -> String.trim s <> "0"
  | None -> true

(* The vectorized (batch-at-a-time) executor defaults on; DL_VECTOR=0
   pins the row-at-a-time path (CI runs the suite both ways — results
   are bit-identical, only the operator implementation differs). *)
let default_vector =
  match Sys.getenv_opt "DL_VECTOR" with
  | Some s -> String.trim s <> "0"
  | None -> true

(* The NoOpt baseline (Algorithm 1): generate the logs the policies
   mention, evaluate the union of all policies, never compact. *)
let noopt_config =
  {
    time_independent = false;
    log_compaction = false;
    unification = false;
    preemptive = false;
    improved_partial = false;
    strategy = Union_all;
    delta = default_delta;
    relevance = false;
    vectorized = default_vector;
  }

(* DataLawyer with every optimization enabled (§4.4). *)
let default_config =
  {
    time_independent = true;
    log_compaction = true;
    unification = default_unify;
    preemptive = true;
    improved_partial = true;
    strategy = Interleaved;
    delta = default_delta;
    relevance = true;
    vectorized = default_vector;
  }

type plan = {
  active : Policy.t list;  (** offline-phase output: post unification / TI *)
  inter : Policy.t list;  (** interleavable subset (Πmon of §4.4) *)
  rest : Policy.t list;  (** evaluated fully, one by one *)
  required : string list;  (** log relations any active policy references *)
  store_rels : string list;
      (** log relations referenced by a time-dependent policy: only these
          ever need persisting *)
  unified_groups : Unify.group list;
  relevance : Relevance.t;
      (** per-active-policy slot/filter metadata for the relevance index,
          built over the same post-unification policy set *)
}

type t = {
  db : Database.t;
  mutable config : config;
  mutable generators : Usage_log.generator list;  (** sorted by rank *)
  gen_index : (string, Usage_log.generator) Hashtbl.t;
      (** generator lookup by lowercased relation name; rebuilt at
          registration so the per-generation hot path never scans the
          list *)
  mutable registered : Policy.t list;
  mutable plan : plan option;
  mutable last_violations : Policy.t list;
      (** violated policies of the most recent rejected submission, for
          {!Advisor}-style diagnosis *)
  mutable persist : Persistence.Store.t option;
  mutable persist_scope : string list;
      (** the [store_rels] the store's snapshot scope was last computed
          for; recomputed (with a checkpoint) whenever the plan is
          invalidated and yields a different scope *)
  prepared : Prepared.t;
      (** compiled-plan cache for policy, partial-policy and witness
          queries; invalidated through the same catalog generation
          counter as the evaluation plan (see {!invalidate}) *)
  mutable adm_fast : int;  (** admission batches decided on the fast path *)
  mutable adm_retried : int;
      (** fast-path batches that saw a violation and replayed serially *)
  mutable adm_ineligible : int;
      (** admission batches that went straight to the serial path *)
  mutable adm_submissions : int;  (** submissions across all admission batches *)
  mutable rel_checks : int;  (** relevance-index consultations *)
  mutable rel_skips : int;  (** policies skipped as provably unaffected *)
  delta_store : Incremental.Delta_store.t;
      (** per-policy emptiness bases for incremental evaluation *)
  relevance_store : Incremental.Delta_store.t;
      (** the relevance index's own emptiness bases, kept apart from the
          delta bases because the two proofs snapshot different
          dependency lists and are counted separately *)
}

type outcome =
  | Accepted of Executor.result * Stats.t
  | Rejected of string list * Stats.t

let stats_of = function Accepted (_, s) -> s | Rejected (_, s) -> s

let lc = Analysis.lc

(* Checkpoint once the WAL holds this many records, bounding replay time
   on recovery even for workloads that never trigger compaction. *)
let wal_checkpoint_limit = 10_000

let is_log' db rel = Catalog.is_log (Database.catalog db) rel

(* Every policy/witness evaluation probes the log relations by [uid]
   equality and [ts] windows (preemptive checks pin [ts = now]); declare
   the matching indexes up front so the optimizer's access-path selection
   makes those probes sublinear in log size. Index names are
   deterministic ([dl_ix_<rel>_<col>]) and creation is idempotent, so
   re-registration and recovery are safe. Recovery itself needs no
   special casing: [apply_recovered] clears and bulk-loads the tables,
   and both paths maintain declared indexes. *)
let auto_index_log_relation db (g : Usage_log.generator) =
  let cat = Database.catalog db in
  match Catalog.find_opt cat g.Usage_log.relation with
  | None -> ()
  | Some table ->
    let declare col kind =
      match Schema.find_index (Table.schema table) col with
      | None -> ()
      | Some _ ->
        let name =
          Printf.sprintf "dl_ix_%s_%s" (lc g.Usage_log.relation) (lc col)
        in
        if not (Catalog.mem_index cat name) then
          ignore
            (Catalog.create_index cat ~name ~table:g.Usage_log.relation
               ~column:col ~kind)
    in
    declare "ts" Index.Sorted;
    declare "uid" Index.Hash;
    (* The vectorized executor scans log relations zero-copy through a
       columnar mirror; building it here (and keeping it maintained by
       the table's mutation hooks) means batch scans never transpose the
       heap. Cheap to maintain — one vector push per column per append —
       and harmless when the row path is pinned. *)
    ignore (Table.enable_columnar table)

(* Install the state recovered from the persistence directory: log
   relation contents, the clock, and the registered-policy set. The same
   generators must be registered as when the state was written — a
   recovered relation without its table is an error, not a skip. *)
let apply_recovered (db : Database.t) (r : Persistence.Recovery.recovered) :
    Policy.t list =
  let st = r.Persistence.Recovery.state in
  List.iter
    (fun (rel, (rs : Persistence.Snapshot.rel)) ->
      match Catalog.find_opt (Database.catalog db) rel with
      | None ->
        Persistence.Recovery.error
          "recovered log relation %s has no registered generator" rel
      | Some table ->
        if not (is_log' db rel) then
          Persistence.Recovery.error "recovered relation %s is not a log relation" rel;
        if rs.Persistence.Snapshot.schema <> [] then begin
          let norm = List.map (fun (n, ty) -> (lc n, ty)) in
          let installed =
            List.map
              (fun (c : Schema.column) -> (c.Schema.name, c.Schema.ty))
              (Schema.columns (Table.schema table))
          in
          if norm installed <> norm rs.Persistence.Snapshot.schema then
            Persistence.Recovery.error
              "recovered relation %s: snapshot schema does not match the \
               installed one"
              rel
        end;
        Table.clear table;
        Table.bulk_load table rs.Persistence.Snapshot.rows)
    st.Persistence.Snapshot.relations;
  Usage_log.set_clock db st.Persistence.Snapshot.clock;
  List.map
    (fun (p : Persistence.Record.policy_rec) ->
      Policy.create (Database.catalog db) ~is_log:(is_log' db)
        ~name:p.Persistence.Record.name
        ~active_from:p.Persistence.Record.active_from p.Persistence.Record.source)
    st.Persistence.Snapshot.policies

let create ?(config = default_config) ?(generators = Usage_log.standard)
    ?persist_dir ?(persist_fsync = Persistence.Store.Interval 32)
    (db : Database.t) : t =
  if not (Catalog.mem (Database.catalog db) Usage_log.clock_relation) then
    Usage_log.install_clock db;
  let generators =
    List.sort (fun a b -> compare a.Usage_log.rank b.Usage_log.rank) generators
  in
  List.iter
    (fun g ->
      if not (Catalog.mem (Database.catalog db) g.Usage_log.relation) then
        Usage_log.install_relation db g;
      auto_index_log_relation db g)
    generators;
  let gen_index = Hashtbl.create 8 in
  List.iter (fun g -> Hashtbl.replace gen_index (lc g.Usage_log.relation) g) generators;
  let t =
    {
      db;
      config;
      generators;
      gen_index;
      registered = [];
      plan = None;
      last_violations = [];
      persist = None;
      persist_scope = [];
      prepared = Prepared.create (Database.catalog db);
      adm_fast = 0;
      adm_retried = 0;
      adm_ineligible = 0;
      adm_submissions = 0;
      rel_checks = 0;
      rel_skips = 0;
      delta_store = Incremental.Delta_store.create ();
      relevance_store = Incremental.Delta_store.create ();
    }
  in
  Prepared.set_vectorized t.prepared config.vectorized;
  (match persist_dir with
  | None -> ()
  | Some dir ->
    let store, recovered = Persistence.Store.open_dir ~fsync:persist_fsync dir in
    (match recovered with
    | None -> ()
    | Some r -> t.registered <- apply_recovered db r);
    t.persist <- Some store);
  t

let database t = t.db

let is_log t rel = Catalog.is_log (Database.catalog t.db) rel

(* The single invalidation point: dropping the evaluation plan and
   bumping the catalog generation together, so the prepared-plan cache
   (and anything else keyed on the generation, like PR 1's
   persistence-scope recompute in {!plan}) can never observe one without
   the other. *)
let invalidate t =
  t.plan <- None;
  Catalog.touch (Database.catalog t.db);
  (* Bases are keyed on the generation we just bumped, so they are all
     dead; dropping them keeps the stores from accreting entries for
     renamed or retired policies. *)
  Incremental.Delta_store.reset t.delta_store;
  Incremental.Delta_store.reset t.relevance_store

let set_config t config =
  t.config <- config;
  Prepared.set_vectorized t.prepared config.vectorized;
  invalidate t

let register_generator t (g : Usage_log.generator) =
  if not (Catalog.mem (Database.catalog t.db) g.Usage_log.relation) then
    Usage_log.install_relation t.db g;
  auto_index_log_relation t.db g;
  t.generators <-
    List.sort (fun a b -> compare a.Usage_log.rank b.Usage_log.rank)
      (g :: t.generators);
  Hashtbl.replace t.gen_index (lc g.Usage_log.relation) g;
  invalidate t

let add_policy t ~name sql : Policy.t =
  if List.exists (fun p -> p.Policy.name = name) t.registered then
    Errors.catalog_error "policy %s already registered" name;
  let p =
    Policy.create (Database.catalog t.db) ~is_log:(is_log t) ~name
      ~active_from:(Usage_log.current_time t.db) sql
  in
  t.registered <- t.registered @ [ p ];
  invalidate t;
  (match t.persist with
  | Some store ->
    Persistence.Store.log_add_policy store
      {
        Persistence.Record.name;
        source = sql;
        active_from = p.Policy.active_from;
      }
  | None -> ());
  p

let remove_policy t name =
  let before = List.length t.registered in
  t.registered <- List.filter (fun p -> p.Policy.name <> name) t.registered;
  invalidate t;
  match t.persist with
  | Some store when List.length t.registered < before ->
    Persistence.Store.log_remove_policy store name
  | Some _ | None -> ()

let policies t = t.registered

(* Offline phase (§4.4) --------------------------------------------------- *)

let compute_plan t : plan =
  let is_log = is_log t in
  let ps = t.registered in
  let ps, unified_groups =
    if t.config.unification then
      let o = Unify.run (Database.catalog t.db) ~is_log ps in
      (o.Unify.policies, o.Unify.groups)
    else (ps, [])
  in
  let ps =
    if t.config.time_independent then List.map (Time_independent.apply ~is_log) ps
    else ps
  in
  let inter, rest =
    match t.config.strategy with
    | Interleaved ->
      List.partition
        (fun p -> p.Policy.interleavable || p.Policy.core_prunable)
        ps
    | Union_all | Serial -> ([], ps)
  in
  let union_rels pols =
    List.sort_uniq String.compare (List.concat_map (fun p -> p.Policy.log_rels) pols)
  in
  {
    active = ps;
    inter;
    rest;
    required = union_rels ps;
    store_rels = union_rels (List.filter (fun p -> not p.Policy.ti_rewritten) ps);
    unified_groups;
    relevance =
      Relevance.build (Database.catalog t.db) ~is_log
        ~clock_rel:Usage_log.clock_relation ~time_col:Usage_log.time_column ps;
  }

(* Full persisted state at this instant, for checkpointing: the clock,
   the policy set as registered, and every scope relation's contents. *)
let persist_state t ~(scope : string list) : Persistence.Snapshot.state =
  let rel_state rel =
    let table = Database.table t.db rel in
    let schema =
      List.map
        (fun (c : Schema.column) -> (c.Schema.name, c.Schema.ty))
        (Schema.columns (Table.schema table))
    in
    let rows = Table.to_seq table |> Seq.map Row.cells |> List.of_seq in
    (rel, { Persistence.Snapshot.schema; rows })
  in
  {
    Persistence.Snapshot.clock = Usage_log.current_time t.db;
    policies =
      List.map
        (fun (p : Policy.t) ->
          {
            Persistence.Record.name = p.Policy.name;
            source = p.Policy.source;
            active_from = p.Policy.active_from;
          })
        t.registered;
    relations = List.map rel_state (List.sort_uniq String.compare scope);
  }

let checkpoint_to t store ~scope =
  Persistence.Store.checkpoint store (persist_state t ~scope);
  t.persist_scope <- scope

let plan t =
  match t.plan with
  | Some p -> p
  | None ->
    let p = compute_plan t in
    t.plan <- Some p;
    (* Recompute the persistence scope on every plan invalidation: a
       config or policy change can move a log relation in or out of
       [store_rels] (e.g. a policy ceasing to be TI-rewritten), and a
       stale scope would let its tuples skip persistence. A checkpoint
       realigns the on-disk state with the new scope atomically. *)
    (match t.persist with
    | Some store when p.store_rels <> t.persist_scope ->
      checkpoint_to t store ~scope:p.store_rels
    | Some _ | None -> ());
    p

let log_size t rel = Table.row_count (Database.table t.db rel)

let plan_cache_stats t = Prepared.stats t.prepared

let clear_plan_cache t = Prepared.clear t.prepared

(* Read only by the perfbench harness: (domains, parallel batches,
   tasks) of the serial engine. *)
let parallel_stats (_ : t) = (1, 0, 0)

(* Online phase ------------------------------------------------------------ *)

(* Mutable per-submission record of generated log increments. *)
type submission = {
  ctx : Usage_log.query_ctx;
  stats : Stats.t;
  generated : (string, Table.savepoint) Hashtbl.t;
  increment_floor : (string, int) Hashtbl.t;
      (** first tid of the tentative increment, per relation *)
}

let generator_for t rel =
  match Hashtbl.find_opt t.gen_index rel with
  | Some g -> g
  | None -> Errors.catalog_error "no log-generating function for %s" rel

(* Run the log-generating function for [rel] under [ctx] and tentatively
   append the increment. The savepoint is opened at the relation's first
   touch, so a batched submission record accumulates every member's rows
   under one savepoint per relation; [increment_floor] tracks the lowest
   tentative tid across members. *)
let gen_rel_for t (sub : submission) (ctx : Usage_log.query_ctx) rel =
  let g = generator_for t rel in
  let table = Database.table t.db g.Usage_log.relation in
  Stats.timed
    (fun d -> sub.stats.Stats.log_track <- sub.stats.Stats.log_track +. d)
    (fun () ->
      let rows = g.Usage_log.generate ctx in
      (* The log is a set: dedupe the increment. *)
      let rows = Usage_log.dedupe_by Fun.id rows in
      if not (Hashtbl.mem sub.generated rel) then
        Hashtbl.add sub.generated rel (Table.savepoint table);
      let ts = Value.Int ctx.Usage_log.time in
      let first = ref None in
      List.iter
        (fun cells ->
          let tid = Table.insert table (Array.append [| ts |] cells) in
          if !first = None then first := Some tid)
        rows;
      let floor = Option.value !first ~default:max_int in
      match Hashtbl.find_opt sub.increment_floor rel with
      | None -> Hashtbl.add sub.increment_floor rel floor
      | Some f when floor < f -> Hashtbl.replace sub.increment_floor rel floor
      | Some _ -> ())

(* Run the log-generating function for [rel] (once per submission) under
   the submission's own context. *)
let gen_rel t (sub : submission) rel =
  if not (Hashtbl.mem sub.generated rel) then gen_rel_for t sub sub.ctx rel

(* Evaluate a policy query; returns the violation message if non-empty. *)
let eval_query t (sub : submission) ?(track_src = false) (q : Ast.query) :
    Executor.result option =
  let stats = sub.stats in
  Stats.timed
    (fun d -> stats.Stats.policy_eval <- stats.Stats.policy_eval +. d)
    (fun () ->
      stats.Stats.policy_calls <- stats.Stats.policy_calls + 1;
      let opts = { Executor.lineage = false; track_src } in
      let r = Prepared.run t.prepared ~opts q in
      match r.Executor.out_rows with [] -> None | _ -> Some r)

(* Every distinct string a violation result projects. A plain policy
   projects its one literal message; a unified policy projects exactly
   the messages of its firing members (the lifted message column), so a
   single evaluation must be allowed to report several. Rows that don't
   carry a single string (a policy someone wrote to project data) fall
   back to the registered message. *)
let messages_of_result (p : Policy.t) (r : Executor.result) : string list =
  match
    List.filter_map
      (fun (row : Executor.row_out) ->
        match row.Executor.values with
        | [| Value.Str m |] -> Some m
        | _ -> None)
      r.Executor.out_rows
  with
  | [] -> [ p.Policy.message ]
  | ms -> List.sort_uniq String.compare ms

(* Incremental evaluation --------------------------------------------------- *)

(* The compiled delta variants of a policy's query, via the prepared
   cache; [None] when delta evaluation is off or the query is
   not delta-eligible (see {!Optimizer.derive_delta}). *)
let delta_entry t (p : Policy.t) : Executor.delta_compiled option =
  if not t.config.delta then None
  else
    Prepared.prepare_delta t.prepared ~is_log:(is_log t)
      ~clock_rel:Usage_log.clock_relation p.Policy.query

(* Try to decide a policy from its delta plans alone. [Some res] is a
   verdict: the policy's result over the full tentative state is empty
   iff [res = None], and a non-empty [res] carries the union of every
   branch's rows, deduplicated by value — equal, as a set, to the rows
   full evaluation would produce, so message extraction downstream sees
   the same set either way. (All branches must run: a unified policy's
   firing members can be split across branches, and stopping at the
   first non-empty one would truncate the message set.) [None] means no
   shortcut — delta off, plan ineligible, the base invalidated, or a
   residual branch's clock guard failed — and the caller must evaluate
   in full.

   Soundness, per branch kind:
   - SPJ: a valid base says the query was empty over the state below the
     log relations' delta watermarks, the catalog generation is
     unchanged, and every dependency's version snapshot matches — so
     plain relations are untouched and log relations have only gained
     rows above the watermark or lost rows (both monotone-safe). Any
     result row must then bind at least one log slot to a delta tuple,
     and the per-slot variants enumerate exactly those bindings.
   - Residual: an exact recompute of the clock-eliminated plan; needs no
     base at all, only the guard that the clock relation holds exactly
     one row (dropping the clock slot assumed a 1-row cross join).
   - Aggregate: the telescoped streams emit precisely the joined tuples
     binding at least one delta row; folding them into scratch clones of
     the carried accumulators yields each touched group's exact state
     (carried = rows below the watermarks, by establishment). Untouched
     groups' state is unchanged from the proved-empty base, so HAVING —
     a function of group state alone — still rejects them. *)
let delta_try t (sub : submission) (p : Policy.t) :
    Executor.result option option =
  match delta_entry t p with
  | None -> None
  | Some entry ->
    let cat = Database.catalog t.db in
    let gen = Catalog.generation cat in
    let vers = Incremental.Delta_store.snapshot cat entry.Executor.delta_deps in
    let clock_ok =
      List.for_all
        (function
          | Executor.C_residual { c_clock; _ } -> (
            match Catalog.find_opt cat c_clock with
            | Some tb -> Table.row_count tb = 1
            | None -> false)
          | Executor.C_spj _ | Executor.C_agg _ -> true)
        entry.Executor.delta_branches
    in
    let base_needed =
      List.exists
        (function
          | Executor.C_residual _ -> false
          | Executor.C_spj _ | Executor.C_agg _ -> true)
        entry.Executor.delta_branches
    in
    if
      (not clock_ok)
      || base_needed
         && not
              (Incremental.Delta_store.valid t.delta_store p.Policy.name ~gen
                 ~vers)
    then begin
      Incremental.Delta_store.note_full_eval t.delta_store;
      None
    end
    else begin
      Incremental.Delta_store.note_delta_eval t.delta_store;
      let stats = sub.stats in
      Stats.timed
        (fun d -> stats.Stats.policy_eval <- stats.Stats.policy_eval +. d)
        (fun () ->
          stats.Stats.policy_calls <- stats.Stats.policy_calls + 1;
          let columns = ref [] in
          let run_branch bi (b : Executor.compiled_branch) :
              Executor.row_out list =
            match b with
            | Executor.C_spj variants ->
              List.concat_map
                (fun c ->
                  let r = Executor.run_compiled c in
                  if !columns = [] then columns := r.Executor.columns;
                  r.Executor.out_rows)
                variants
            | Executor.C_residual { c_plan; _ } ->
              let r = Executor.run_compiled c_plan in
              if !columns = [] then columns := r.Executor.columns;
              r.Executor.out_rows
            | Executor.C_agg a ->
              if !columns = [] then columns := a.Executor.c_columns;
              let srows =
                List.concat_map
                  (fun c ->
                    List.map
                      (fun (r : Executor.row_out) -> r.Executor.values)
                      (Executor.run_compiled c).Executor.out_rows)
                  a.Executor.c_variants
              in
              let state =
                Incremental.Delta_store.agg_state t.delta_store
                  ~policy:p.Policy.name ~branch:bi
              in
              let touched =
                Incremental.Delta_store.agg_scratch state
                  ~specs:a.Executor.c_specs ~nkeys:a.Executor.c_nkeys srows
              in
              List.filter_map
                (fun (key, aggvals) ->
                  (* Representative row: group-key cells recovered from
                     the key values; positions no bare-field key covers
                     stay Null and are never read (classification
                     restricted HAVING/projections to covered cells). *)
                  let rep = Array.make a.Executor.c_width Value.Null in
                  List.iteri
                    (fun ki slot ->
                      match slot with
                      | Some fi -> rep.(fi) <- key.(ki)
                      | None -> ())
                    a.Executor.c_rep_slots;
                  let keep =
                    match a.Executor.c_having with
                    | None -> true
                    | Some h -> Value.to_bool (h rep aggvals)
                  in
                  if keep then
                    Some
                      {
                        Executor.values =
                          Array.of_list
                            (List.map (fun cp -> cp rep aggvals)
                               a.Executor.c_projs);
                        lineage = [];
                        src_tids = [];
                      }
                  else None)
                touched
          in
          let rows =
            List.concat (List.mapi run_branch entry.Executor.delta_branches)
          in
          match rows with
          | [] -> Some None
          | _ ->
            let rows =
              Usage_log.dedupe_by (fun (r : Executor.row_out) -> r.Executor.values) rows
            in
            Some (Some { Executor.columns = !columns; out_rows = rows }))
    end

(* After an accepted submission: acceptance proved every active policy
   empty over the tentative state, of which the just-committed state is a
   subset (monotonicity), so every policy is empty over the committed
   state. Fold carried aggregate state forward, advance all log
   watermarks to the committed frontier, and record a base for each
   delta-eligible policy — and a relevance base for each index-eligible
   one — in the same breath: the alignment of watermark and snapshot is
   what {!delta_try}'s and {!irrelevant}'s soundness arguments rest on.

   The aggregate fold must run BEFORE the watermarks move: the telescoped
   delta streams read [Plan.Delta] at execution time, so only now — with
   the increment committed but the watermarks still at the previous
   frontier — do they denote exactly the rows this submission added.
   (This also covers policies the relevance index or batching skipped at
   evaluation time: the fold depends only on the committed rows, not on
   which evaluation path decided the policy.) When a policy's base is no
   longer valid — a plain dependency mutated, arbitrary DML deleted log
   rows, or compaction invalidated a MIN/MAX-bearing branch — the carried
   groups are rebuilt from the branch's full all-below stream instead. *)
let establish_bases t (pl : plan) =
  let cat = Database.catalog t.db in
  let gen = Catalog.generation cat in
  let failed = Hashtbl.create 4 in
  if t.config.delta then
    List.iter
      (fun (p : Policy.t) ->
        match delta_entry t p with
        | None -> ()
        | Some entry
          when List.exists
                 (function Executor.C_agg _ -> true | _ -> false)
                 entry.Executor.delta_branches -> (
          let vers =
            Incremental.Delta_store.snapshot cat entry.Executor.delta_deps
          in
          let base_ok =
            Incremental.Delta_store.valid t.delta_store p.Policy.name ~gen
              ~vers
          in
          let stream cs =
            List.concat_map
              (fun c ->
                List.map
                  (fun (r : Executor.row_out) -> r.Executor.values)
                  (Executor.run_compiled c).Executor.out_rows)
              cs
          in
          try
            List.iteri
              (fun bi b ->
                match b with
                | Executor.C_spj _ | Executor.C_residual _ -> ()
                | Executor.C_agg a ->
                  let state =
                    Incremental.Delta_store.agg_state t.delta_store
                      ~policy:p.Policy.name ~branch:bi
                  in
                  if base_ok then
                    Incremental.Delta_store.agg_absorb state
                      ~specs:a.Executor.c_specs ~nkeys:a.Executor.c_nkeys
                      (stream a.Executor.c_variants)
                  else begin
                    Incremental.Delta_store.agg_clear state;
                    Incremental.Delta_store.note_agg_rebuild t.delta_store;
                    Incremental.Delta_store.agg_absorb state
                      ~specs:a.Executor.c_specs ~nkeys:a.Executor.c_nkeys
                      (stream [ a.Executor.c_full ])
                  end)
              entry.Executor.delta_branches
          with Errors.Sql_error _ ->
            (* The fold died mid-branch (e.g. SUM over a value a later
               mutation made non-numeric); the carried state is no longer
               trustworthy. Drop it and withhold this policy's base so
               evaluation falls back to full runs until a clean rebuild
               succeeds at a later establishment. *)
            List.iteri
              (fun bi b ->
                match b with
                | Executor.C_agg _ ->
                  Incremental.Delta_store.agg_clear
                    (Incremental.Delta_store.agg_state t.delta_store
                       ~policy:p.Policy.name ~branch:bi)
                | Executor.C_spj _ | Executor.C_residual _ -> ())
              entry.Executor.delta_branches;
            Hashtbl.replace failed p.Policy.name ())
        | Some _ -> ())
      pl.active;
  List.iter
    (fun (g : Usage_log.generator) ->
      match Catalog.find_opt cat g.Usage_log.relation with
      | Some table -> Table.mark_delta_base table
      | None -> ())
    t.generators;
  if t.config.delta then
    List.iter
      (fun (p : Policy.t) ->
        if not (Hashtbl.mem failed p.Policy.name) then
          match delta_entry t p with
          | None -> ()
          | Some entry ->
            let vers =
              Incremental.Delta_store.snapshot cat entry.Executor.delta_deps
            in
            Incremental.Delta_store.establish t.delta_store p.Policy.name ~gen
              ~vers)
      pl.active;
  if t.config.relevance then
    List.iter
      (fun (p : Policy.t) ->
        match Relevance.info pl.relevance p.Policy.name with
        | Some info when info.Relevance.eligible ->
          let vers =
            Incremental.Delta_store.snapshot cat info.Relevance.deps
          in
          Incremental.Delta_store.establish t.relevance_store p.Policy.name
            ~gen ~vers
        | Some _ | None -> ())
      pl.active

(* The relevance index's skip decision (see {!Relevance} for the full
   soundness argument): the policy is index-eligible, its base — proof
   that it was empty over the last committed state — still validates
   against the catalog generation and every dependency's version
   counter (waived for TI-pinned policies, whose verdict is decided at
   the current tick alone), its enumerated filter sources are
   untouched, and no row of the tentative increment can bind any of its
   log slots. All of that together pins the result to the base's:
   empty, so evaluation is skipped. *)
let irrelevant ?available t (pl : plan) (p : Policy.t) : bool =
  t.config.relevance
  &&
  match Relevance.info pl.relevance p.Policy.name with
  | None -> false
  | Some info ->
    info.Relevance.eligible
    && begin
      t.rel_checks <- t.rel_checks + 1;
      let cat = Database.catalog t.db in
      (* A TI-pinned policy's verdict is emptiness at the current tick —
         blocked slots decide it with no base (its clock dependency
         would invalidate one every submission anyway). *)
      let based =
        info.Relevance.ti_pinned
        ||
        let gen = Catalog.generation cat in
        let vers = Incremental.Delta_store.snapshot cat info.Relevance.deps in
        Incremental.Delta_store.valid t.relevance_store p.Policy.name ~gen
          ~vers
      in
      let skip = based && Relevance.blocked ?available cat info in
      if skip then t.rel_skips <- t.rel_skips + 1;
      skip
    end

type delta_stats = {
  eligible_plans : int;
  fallback_plans : int;
  delta_bases : int;
  delta_evals : int;
  full_evals : int;
  agg_groups : int;
  agg_rebuilds : int;
}

let delta_stats t : delta_stats =
  let pl = plan t in
  let eligible, fallback =
    List.fold_left
      (fun (e, f) p ->
        if Option.is_some (delta_entry t p) then (e + 1, f) else (e, f + 1))
      (0, 0) pl.active
  in
  let s = Incremental.Delta_store.stats t.delta_store in
  {
    eligible_plans = eligible;
    fallback_plans = fallback;
    delta_bases = s.Incremental.Delta_store.bases;
    delta_evals = s.Incremental.Delta_store.delta_evals;
    full_evals = s.Incremental.Delta_store.full_evals;
    agg_groups = s.Incremental.Delta_store.agg_groups;
    agg_rebuilds = s.Incremental.Delta_store.agg_rebuilds;
  }

type relevance_stats = {
  rel_indexed : int;  (** active policies in the index *)
  rel_eligible : int;  (** of those, index-eligible *)
  rel_checks : int;  (** skip decisions consulted *)
  rel_skips : int;  (** policies skipped without evaluation *)
}

let relevance_stats t : relevance_stats =
  let idx = (plan t).relevance in
  {
    rel_indexed = Relevance.size idx;
    rel_eligible = Relevance.eligible_count idx;
    rel_checks = t.rel_checks;
    rel_skips = t.rel_skips;
  }

(* Read only by the perfbench harness: scans are never shared. *)
let shared_scan_stats (_ : t) = (0, 0)

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

(* Process-wide (the compilers' counters are shared across engines, like
   [Executor.rows_examined]); [vec_enabled] is this engine's config, and
   the layout census walks this engine's columnar mirrors. *)
let vector_stats t : vector_stats =
  let typed, mixed, dict_entries =
    let cat = Database.catalog t.db in
    List.fold_left
      (fun (ty, mx, de) name ->
        match Table.columnar (Catalog.find cat name) with
        | None -> (ty, mx, de)
        | Some store ->
          let t', m', d' = Column.layout_stats store in
          (ty + t', mx + m', de + d'))
      (0, 0, 0) (Catalog.table_names cat)
  in
  {
    vec_enabled = t.config.vectorized;
    vec_batches = !Compile_batch.batches_built;
    vec_rows = !Compile_batch.batch_rows;
    vec_fallbacks = !Compile_batch.row_fallbacks;
    vec_hist = Compile_batch.hist_snapshot ();
    vec_typed_cols = typed;
    vec_mixed_cols = mixed;
    vec_dict_entries = dict_entries;
  }

type unify_stats = {
  unify_registered : int;  (** policies as registered *)
  unify_active : int;  (** policies after unification / rewriting *)
  unify_groups : int;  (** unified groups *)
  unify_members : int;  (** registered policies absorbed into groups *)
}

let unify_stats t : unify_stats =
  let pl = plan t in
  {
    unify_registered = List.length t.registered;
    unify_active = List.length pl.active;
    unify_groups = List.length pl.unified_groups;
    unify_members =
      List.fold_left
        (fun n (g : Unify.group) -> n + List.length g.Unify.members)
        0 pl.unified_groups;
  }

(* §4.3 improved partial policies: a non-empty partial result whose rows
   draw only on committed (pre-increment) log tuples proves the policy
   still holds, provided the policy's log relations are all ts-joined and
   the partial query retains at least one log relation. *)
let independent_of_increment t (sub : submission) (p : Policy.t)
    (partial_q : Ast.query) : bool =
  let is_log = is_log t in
  let ts_joined =
    match p.Policy.query with
    | Ast.Select s -> (
      let log_aliases =
        List.filter (fun (_, rel) -> is_log rel) (Analysis.table_occurrences s)
      in
      match log_aliases with
      | [] -> false
      | (a0, _) :: rest ->
        let classes =
          Analysis.Eq_classes.of_conjuncts (Ast.conjuncts_opt s.Ast.where)
        in
        List.for_all
          (fun (a, _) -> Analysis.Eq_classes.same classes (a0, "ts") (a, "ts"))
          rest)
    | Ast.Union _ -> false
  in
  let slot_rels = Partial.from_slot_relations partial_q in
  let has_log_slot =
    List.exists (function Some r -> is_log r | None -> false) slot_rels
  in
  if not (ts_joined && has_log_slot) then false
  else
    match eval_query t sub ~track_src:true partial_q with
    | None -> true (* raced to empty: certainly independent *)
    | Some r ->
      let slot_rel = Array.of_list slot_rels in
      List.for_all
        (fun (row : Executor.row_out) ->
          List.for_all
            (fun (slot, tid) ->
              match slot_rel.(slot) with
              | Some rel when is_log rel -> (
                match Hashtbl.find_opt sub.increment_floor rel with
                | Some floor -> tid < floor
                | None -> true)
              | _ -> true)
            row.Executor.src_tids)
        r.Executor.out_rows

(* Full evaluation of a policy batch, one policy after another; the
   violation list keeps registration-rank order. *)
let eval_full t (sub : submission) (pl : plan) (ps : Policy.t list) :
    (Policy.t * string) list =
  let eval p =
    if irrelevant t pl p then [] (* increment can't touch it: holds *)
    else
      match delta_try t sub p with
      | Some None -> [] (* delta plans all empty: policy holds *)
      | Some (Some r) ->
        List.map (fun m -> (p, m)) (messages_of_result p r)
      | None -> (
        match eval_query t sub p.Policy.query with
        | Some r -> List.map (fun m -> (p, m)) (messages_of_result p r)
        | None -> [])
  in
  List.concat_map eval ps

(* Interleaved policy evaluation (Algorithm 3). Returns violations. *)
let run_interleaved t (sub : submission) (pl : plan) :
    (Policy.t * string) list =
  let is_log = is_log t in
  let needed =
    List.sort_uniq String.compare
      (List.concat_map (fun p -> p.Policy.log_rels) pl.inter)
  in
  let gens = List.filter (fun g -> List.mem (lc g.Usage_log.relation) needed) t.generators in
  let remaining = ref pl.inter in
  let available = ref [] in
  List.iter
    (fun g ->
      let rel = lc g.Usage_log.relation in
      (* Retained relations are generated even after every policy has
         been pruned: their increment must reach the committed log
         whether or not checking still needs it — and pruning speed
         (which the relevance index changes) must never leak into the
         log's contents. *)
      if !remaining <> [] || List.mem rel pl.store_rels then begin
        gen_rel t sub rel;
        available := rel :: !available
      end;
      if !remaining <> [] then begin
        (* One partial-policy check per remaining policy, over the logs
           generated so far (the increment for [rel] is already
           appended). *)
        let keep p =
          (* The relevance index first: the slots restricted to the
             relations generated so far, whose deltas are final. A
             skipped policy is proved to hold outright — no partial
             check now, no full evaluation later. *)
          if irrelevant ~available:!available t pl p then false
          else
          (* Interleavable policies evaluate the genuine πS; policies
             admitted via core-prunability evaluate the monotone
             HAVING-stripped core instead (empty core ⇒ π empty). *)
          let full p =
            let pq =
              Partial.of_query ~is_log ~available:!available p.Policy.query
            in
            let pq =
              if p.Policy.interleavable then pq else Partial.strip_having pq
            in
            match eval_query t sub pq with
            | None -> false (* partial policy empty: π satisfied *)
            | Some _ when
                p.Policy.interleavable && t.config.improved_partial
                && independent_of_increment t sub p pq ->
              false
            | Some _ -> true
          in
          (* Once every log relation of an interleavable policy is
             available, πS is the policy itself, so a delta-proved-empty
             verdict prunes it exactly as an empty πS would. Only the
             empty verdict short-circuits: a non-empty delta result must
             still flow through the original evaluation, where the
             improved-partial independence check may yet dismiss it. *)
          let covered =
            List.for_all (fun r -> List.mem r !available) p.Policy.log_rels
          in
          if covered && p.Policy.interleavable then
            match delta_try t sub p with
            | Some None -> false
            | Some (Some _) | None -> full p
          else full p
        in
        remaining := List.filter keep !remaining
      end)
    gens;
  (* Policies still standing are evaluated in full: interleavable ones are
     genuine violations (S covers their relations), core-pruned ones may
     still be saved by their HAVING. *)
  eval_full t sub pl !remaining

(* Serial / union evaluation over a policy list. *)
let run_serial t (sub : submission) (pl : plan) (ps : Policy.t list) :
    (Policy.t * string) list =
  List.iter (fun p -> List.iter (gen_rel t sub) p.Policy.log_rels) ps;
  eval_full t sub pl ps

let run_union t (sub : submission) (pl : plan) (ps : Policy.t list) :
    (Policy.t * string) list =
  match ps with
  | [] -> []
  | first :: _ ->
    List.iter (fun p -> List.iter (gen_rel t sub) p.Policy.log_rels) ps;
    let violated_rows : Executor.row_out list option =
      (* Delta-decided policies peel off the UNION: each one's verdict
         comes from its delta plans alone, contributing its violation
         rows (all-constant projections, so exactly the rows full
         evaluation would add); the rest evaluate through the original
         UNION chain. Both row sets feed the same message extraction
         below, keeping the outcome identical to all-full evaluation. *)
      let delta_rows = ref [] in
      let fallback =
        List.filter
          (fun p ->
            if irrelevant t pl p then false
            else
              match delta_try t sub p with
              | Some None -> false
              | Some (Some r) ->
                delta_rows := !delta_rows @ r.Executor.out_rows;
                false
              | None -> true)
          ps
      in
      let union_rows =
        match fallback with
        | [] -> []
        | f :: rest ->
          let union_q =
            List.fold_left
              (fun acc p ->
                Ast.Union { all = false; left = acc; right = p.Policy.query })
              f.Policy.query rest
          in
          (match eval_query t sub union_q with
          | None -> []
          | Some r -> r.Executor.out_rows)
      in
      (match union_rows @ !delta_rows with [] -> None | rows -> Some rows)
    in
    (match violated_rows with
    | None -> []
    | Some rows ->
      let messages =
        List.filter_map
          (fun (row : Executor.row_out) ->
            match row.Executor.values with
            | [| Value.Str m |] -> Some m
            | _ -> None)
          rows
        |> List.sort_uniq String.compare
      in
      let hits =
        List.filter_map
          (fun p ->
            if List.mem p.Policy.message messages then
              Some (p, p.Policy.message)
            else None)
          ps
      in
      (* Messages no registered message claims — a unified policy's
         lifted member messages — are attributed to [first] so none are
         dropped from the rejection, whether or not other policies also
         fired. *)
      let claimed = List.map snd hits in
      let extras =
        List.filter (fun m -> not (List.mem m claimed)) messages
      in
      hits @ List.map (fun m -> (first, m)) extras)

(* Log compaction (Algorithm 2 + §4.3 preemptive check) ------------------- *)

type mark = Mark_all | Mark_tids of (int, unit) Hashtbl.t

(* Execute one witness query, adding the retained slot-0 tids to [acc]. *)
let run_witness t (w : Ast.select) (acc : (int, unit) Hashtbl.t) =
  let opts = { Executor.lineage = false; track_src = true } in
  let r = Prepared.run t.prepared ~opts (Ast.Select w) in
  List.iter
    (fun (row : Executor.row_out) ->
      List.iter
        (fun (slot, tid) -> if slot = 0 then Hashtbl.replace acc tid ())
        row.Executor.src_tids)
    r.Executor.out_rows

(* §4.3 preemptive log compaction: before generating relation [rel] just
   for storage, test whether its witnesses could possibly retain any tuple
   of the would-be increment, using only the already-generated logs. The
   witness's neighborhood relations all ts-equijoin the target, and the
   increment lives at the current timestamp, so the probe pins every
   surviving log relation to [ts = now]. Witness queries are monotone, so
   an empty probe implies an empty increment witness. *)
let preemptively_empty t (sub : submission) ~(now : int) (rel : string)
    (policies : Policy.t list) : bool =
  let is_log = is_log t in
  let available = Hashtbl.fold (fun r _ acc -> r :: acc) sub.generated [] in
  List.for_all
    (fun p ->
      match List.assoc_opt rel (Witness.for_policy ~is_log ~now p) with
      | None -> true
      | Some Witness.Keep_all -> false
      | Some (Witness.Queries qs) ->
        List.for_all
          (fun (w : Ast.select) ->
            (* Boolean probe of the witness restricted to generated logs. *)
            let probe =
              { w with Ast.items = [ Ast.Sel_expr (Ast.Lit (Value.Int 1), None) ];
                       distinct = Ast.All }
            in
            let pq = Partial.of_select ~is_log ~available probe in
            if pq.Ast.from = [] then false (* nothing left to test: generate *)
            else begin
              let pins =
                List.filter_map
                  (fun (alias, r) ->
                    if is_log r then
                      Some
                        (Ast.Binop
                           ( Ast.Eq,
                             Ast.Col (Some alias, "ts"),
                             Ast.Lit (Value.Int now) ))
                    else None)
                  (Analysis.table_occurrences pq)
              in
              let pq =
                { pq with Ast.where = Ast.conjoin (Ast.conjuncts_opt pq.Ast.where @ pins) }
              in
              Prepared.is_empty t.prepared (Ast.Select pq)
            end)
          qs)
    (List.filter (fun p -> List.mem rel p.Policy.log_rels) policies)

(* The commit path: compaction + persistence of the log increments. *)
let commit_logs t (sub : submission) (pl : plan) ~(now : int) =
  let stats = sub.stats in
  let is_log = is_log t in
  (* Per-relation rows actually retained this commit (the WAL record),
     and whether compaction deleted rows of the committed prefix — in
     which case the WAL's append-only story no longer describes the
     relation and a checkpoint must supersede it. *)
  let persisted : (string * Value.t array list) list ref = ref [] in
  let note_increment rel rows = if rows <> [] then persisted := (rel, rows) :: !persisted in
  let compacted = ref false in
  if not t.config.log_compaction then begin
    (* Persist increments of time-dependent relations; discard the rest. *)
    Stats.timed
      (fun d -> stats.Stats.compact_insert <- stats.Stats.compact_insert +. d)
      (fun () ->
        Hashtbl.iter
          (fun rel sp ->
            let table = Database.table t.db rel in
            if List.mem rel pl.store_rels then begin
              (* Fold straight to the cells list: no intermediate
                 [Row.t list] on the per-commit hot path. *)
              let n = ref 0 in
              let cells =
                Table.fold_since
                  (fun acc row ->
                    incr n;
                    Row.cells row :: acc)
                  [] table sp
              in
              stats.Stats.rows_logged <- stats.Stats.rows_logged + !n;
              note_increment rel (List.rev cells);
              Table.release table sp
            end
            else Table.rollback_to table sp)
          sub.generated)
  end
  else begin
    (* Time-dependent policies that still need the log. *)
    let td_policies =
      List.filter
        (fun p -> (not p.Policy.ti_rewritten) && p.Policy.log_rels <> [])
        pl.active
    in
    (* Preemptive check for relations not generated during evaluation. *)
    let skipped = Hashtbl.create 4 in
    List.iter
      (fun rel ->
        if not (Hashtbl.mem sub.generated rel) then
          if t.config.preemptive && preemptively_empty t sub ~now rel td_policies
          then Hashtbl.replace skipped rel ()
          else gen_rel t sub rel)
      pl.store_rels;
    (* Mark phase: run every witness query, collecting retained tids. *)
    let marks : (string, mark) Hashtbl.t = Hashtbl.create 4 in
    List.iter
      (fun rel ->
        if not (Hashtbl.mem skipped rel) then
          Hashtbl.replace marks rel (Mark_tids (Hashtbl.create 64)))
      pl.store_rels;
    Stats.timed
      (fun d -> stats.Stats.compact_mark <- stats.Stats.compact_mark +. d)
      (fun () ->
        List.iter
          (fun p ->
            List.iter
              (fun (rel, w) ->
                match Hashtbl.find_opt marks rel with
                | None -> () (* skipped or not stored *)
                | Some Mark_all -> ()
                | Some (Mark_tids acc) -> (
                  match w with
                  | Witness.Keep_all -> Hashtbl.replace marks rel Mark_all
                  | Witness.Queries qs -> List.iter (fun q -> run_witness t q acc) qs))
              (Witness.for_policy ~is_log ~now p))
          td_policies);
    (* Delete + insert phases per relation. *)
    List.iter
      (fun rel ->
        let table = Database.table t.db rel in
        let sp = Hashtbl.find_opt sub.generated rel in
        let mark = Hashtbl.find_opt marks rel in
        (* Materialize only the retained part of the increment (the marks
           are final at this point), before rollback truncates it. *)
        let kept =
          match sp with
          | None -> []
          | Some sp ->
            List.rev
              (Table.fold_since
                 (fun acc row ->
                   let keep =
                     match mark with
                     | None -> false
                     | Some Mark_all -> true
                     | Some (Mark_tids keep) -> Hashtbl.mem keep (Row.tid row)
                   in
                   if keep then Row.cells row :: acc else acc)
                 [] table sp)
        in
        (* Delete phase: discard the tentative increment, then drop the
           unmarked committed rows. *)
        Stats.timed
          (fun d -> stats.Stats.compact_delete <- stats.Stats.compact_delete +. d)
          (fun () ->
            Option.iter (fun sp -> Table.rollback_to table sp) sp;
            match mark with
            | None ->
              (* Relation skipped preemptively: nothing retained, nothing
                 stored; committed rows keep their previous marks. *)
              ()
            | Some Mark_all -> ()
            | Some (Mark_tids keep) ->
              if Table.retain_tids table keep > 0 then compacted := true);
        (* Insert the retained part of the increment. *)
        Stats.timed
          (fun d -> stats.Stats.compact_insert <- stats.Stats.compact_insert +. d)
          (fun () ->
            List.iter
              (fun cells ->
                ignore (Table.insert table cells);
                stats.Stats.rows_logged <- stats.Stats.rows_logged + 1)
              kept;
            note_increment rel kept))
      pl.store_rels;
    (* Roll back increments of relations generated for evaluation only. *)
    Stats.timed
      (fun d -> stats.Stats.compact_delete <- stats.Stats.compact_delete +. d)
      (fun () ->
        Hashtbl.iter
          (fun rel sp ->
            if not (List.mem rel pl.store_rels) then
              Table.rollback_to (Database.table t.db rel) sp)
          sub.generated)
  end;
  (* All savepoints are resolved now: a later failure (e.g. in the user
     query) must not attempt to roll them back again. *)
  Hashtbl.reset sub.generated;
  (* Durability. An accepted submission is one atomic WAL record: the
     clock advance plus every relation's retained increment. When witness
     compaction shrank a relation, an append-only record can no longer
     describe the transition, so the commit degrades to a checkpoint —
     which also truncates the WAL prefix the new snapshot supersedes, so
     the on-disk footprint tracks the compacted log (§4.1.2/§4.3). *)
  match t.persist with
  | None -> ()
  | Some store ->
    Stats.timed
      (fun d -> stats.Stats.persist <- stats.Stats.persist +. d)
      (fun () ->
        if !compacted then checkpoint_to t store ~scope:pl.store_rels
        else begin
          let increments =
            List.sort (fun (a, _) (b, _) -> String.compare a b) !persisted
          in
          Persistence.Store.log_commit store ~clock:now ~increments;
          if Persistence.Store.wal_records store >= wal_checkpoint_limit then
            checkpoint_to t store ~scope:pl.store_rels
        end)

(* Submission -------------------------------------------------------------- *)

let submit_ast t ~(uid : int) ?(extra = []) (query : Ast.query) : outcome =
  let pl = plan t in
  let now = Usage_log.current_time t.db + 1 in
  Usage_log.set_clock t.db now;
  let sub =
    {
      ctx = { Usage_log.uid; time = now; query; db = t.db; extra };
      stats = Stats.create ();
      generated = Hashtbl.create 4;
      increment_floor = Hashtbl.create 4;
    }
  in
  let rollback_all () =
    Hashtbl.iter
      (fun rel sp -> Table.rollback_to (Database.table t.db rel) sp)
      sub.generated
  in
  (* Any failure during checking (e.g. the user query itself is invalid
     and breaks the provenance function) must revert the tentative log,
     or the leaked savepoints would poison later submissions. *)
  match
    let violations =
      match t.config.strategy with
      | Union_all -> run_union t sub pl pl.active
      | Serial -> run_serial t sub pl pl.active
      | Interleaved ->
        (* Algorithm 3 on the interleavable policies, then the rest in
           full, as in the §4.4 online phase. *)
        let v1 = run_interleaved t sub pl in
        let v2 = run_serial t sub pl pl.rest in
        v1 @ v2
    in
    t.last_violations <- List.map fst violations;
    if violations <> [] then begin
      (* Reject: revert the tentative log (Eq. 1). *)
      rollback_all ();
      Rejected (List.map snd violations, sub.stats)
    end
    else begin
      commit_logs t sub pl ~now;
      if t.config.delta || t.config.relevance then establish_bases t pl;
      let result =
        Stats.timed
          (fun d -> sub.stats.Stats.query_exec <- sub.stats.Stats.query_exec +. d)
          (fun () -> Prepared.run t.prepared query)
      in
      Accepted (result, sub.stats)
    end
  with
  | outcome -> outcome
  | exception e ->
    rollback_all ();
    raise e

let submit t ~uid ?extra sql = submit_ast t ~uid ?extra (Parser.query sql)

(* Batched admission ------------------------------------------------------- *)

type batch_submission = {
  batch_uid : int;
  batch_extra : (string * Value.t) list;
  batch_query : Ast.query;
}

type batch_stats = {
  fast_batches : int;
  retried_batches : int;
  serial_batches : int;
  batched_submissions : int;
}

let batch_stats t =
  {
    fast_batches = t.adm_fast;
    retried_batches = t.adm_retried;
    serial_batches = t.adm_ineligible;
    batched_submissions = t.adm_submissions;
  }

(* The one-at-a-time equivalent of a batch: member exceptions are caught
   per member (the engine rolls its tentative state back before the
   exception escapes [submit_ast]), so one poisoned submission never
   swallows its batch-mates' verdicts. *)
let submit_serially t subs =
  List.map
    (fun s ->
      match submit_ast t ~uid:s.batch_uid ~extra:s.batch_extra s.batch_query with
      | o -> Ok o
      | exception e -> Error e)
    subs

(* Batch fast-path eligibility. The combined-state argument below rests
   on every active policy being a monotone SPJ query that never reads
   the clock — checked as every delta branch classifying [C_spj]
   (through the prepared cache, so the analysis amortizes across
   batches) — and on no member query reading a log relation or the
   clock (a member's own result must not depend on whether its
   batch-mates' increments are still tentative). Residual and aggregate
   branches are excluded even though they are delta-eligible: a residual
   plan reads the clock, which each member sees at a different tick, and
   an aggregate policy is non-monotone, so emptiness over the combined
   state says nothing about the arrival-order prefixes. *)
let batch_eligible t (pl : plan) subs =
  let is_log = is_log t in
  let is_clock rel = lc rel = Usage_log.clock_relation in
  let refs pred q =
    Analysis.log_relations ~is_log:pred q <> []
    || Analysis.subquery_uses_log ~is_log:pred q
  in
  List.for_all
    (fun (p : Policy.t) ->
      match
        Prepared.prepare_delta t.prepared ~is_log
          ~clock_rel:Usage_log.clock_relation p.Policy.query
      with
      | Some entry ->
        List.for_all
          (function
            | Executor.C_spj _ -> true
            | Executor.C_residual _ | Executor.C_agg _ -> false)
          entry.Executor.delta_branches
      | None -> false)
    pl.active
  && List.for_all
       (fun s -> not (refs is_log s.batch_query || refs is_clock s.batch_query))
       subs

(* Admit a batch of concurrent submissions.

   Fast path (all policies monotone SPJ per {!batch_eligible}): every
   member's log increments are appended tentatively — each member at its
   own clock tick, in arrival order — and the policy set is evaluated
   {e once} over the combined tentative state. If every policy comes back empty, monotonicity gives
   the serial-equivalence argument: each arrival-order prefix of the
   batch is a subset of the combined state, so every policy is empty
   over it too, which is precisely what accepting the members one at a
   time would have checked. One commit then retains the combined
   increment (same mark phase, same WAL record count: one), so the log
   equals the serial replay's. If any policy fires, the verdict cannot
   be attributed to a member from the combined evaluation alone, so the
   tentative state is rolled back, the clock rewound, and the batch
   replayed serially — decisions are therefore {e always} identical to
   the arrival-order serial execution.

   Caveat inherited from the eligibility gate, documented in
   docs/SERVER.md: custom log-generating functions that read log
   relations (none of the standard ones do) could observe batch-mates'
   tentative rows during generation. *)
let submit_batch t (subs : batch_submission list) :
    (outcome, exn) result list =
  let n = List.length subs in
  t.adm_submissions <- t.adm_submissions + n;
  match subs with
  | [] -> []
  | [ _ ] ->
    t.adm_ineligible <- t.adm_ineligible + 1;
    submit_serially t subs
  | _ ->
    let pl = plan t in
    if not (batch_eligible t pl subs) then begin
      t.adm_ineligible <- t.adm_ineligible + 1;
      submit_serially t subs
    end
    else begin
      let now0 = Usage_log.current_time t.db in
      let now = now0 + n in
      let last = List.nth subs (n - 1) in
      let sub =
        {
          ctx =
            {
              Usage_log.uid = last.batch_uid;
              time = now;
              query = last.batch_query;
              db = t.db;
              extra = last.batch_extra;
            };
          stats = Stats.create ();
          generated = Hashtbl.create 4;
          increment_floor = Hashtbl.create 4;
        }
      in
      let rollback_all () =
        Hashtbl.iter
          (fun rel sp -> Table.rollback_to (Database.table t.db rel) sp)
          sub.generated;
        Hashtbl.reset sub.generated;
        Hashtbl.reset sub.increment_floor;
        Usage_log.set_clock t.db now0
      in
      (* Generate every relation a policy may read or the commit may
         store, for every member: preemptive skipping is pointless here
         (the mark phase sees the whole combined increment anyway). *)
      let rels =
        List.sort_uniq String.compare (pl.required @ pl.store_rels)
      in
      match
        Usage_log.set_clock t.db now;
        List.iteri
          (fun i s ->
            let ctx =
              {
                Usage_log.uid = s.batch_uid;
                time = now0 + i + 1;
                query = s.batch_query;
                db = t.db;
                extra = s.batch_extra;
              }
            in
            List.iter (gen_rel_for t sub ctx) rels)
          subs;
        eval_full t sub pl pl.active
      with
      | [] ->
        t.adm_fast <- t.adm_fast + 1;
        t.last_violations <- [];
        (* A commit failure must resolve the savepoints before escaping,
           exactly as [submit_ast]'s handler does, or they would poison
           later submissions. *)
        (try commit_logs t sub pl ~now
         with e ->
           rollback_all ();
           raise e);
        if t.config.delta || t.config.relevance then establish_bases t pl;
        List.map
          (fun s ->
            let stats = Stats.create () in
            match
              Stats.timed
                (fun d -> stats.Stats.query_exec <- stats.Stats.query_exec +. d)
                (fun () -> Prepared.run t.prepared s.batch_query)
            with
            | r -> Ok (Accepted (r, stats))
            | exception e -> Error e)
          subs
      | _violations ->
        t.adm_retried <- t.adm_retried + 1;
        rollback_all ();
        submit_serially t subs
      | exception e ->
        rollback_all ();
        ignore (Printexc.to_string e);
        submit_serially t subs
    end

(* Violated policies of the most recent rejected submission. *)
let last_violations t = t.last_violations

(* Persistence ------------------------------------------------------------- *)

let persist_store t = t.persist

let persist_checkpoint t =
  match t.persist with
  | None -> ()
  | Some store -> checkpoint_to t store ~scope:(plan t).store_rels

let close t =
  match t.persist with
  | None -> ()
  | Some store ->
    Persistence.Store.close store;
    t.persist <- None
