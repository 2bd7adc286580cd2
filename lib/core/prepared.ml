(** Prepared-plan cache.

    The engine evaluates the same policy, partial-policy and witness
    queries on every submission; binding, optimizing and closure-compiling
    them each time dominated the per-submission overhead. This cache keys
    compiled plans by (query AST, execution options) and revalidates
    against {!Relational.Catalog.generation} — the single invalidation
    counter shared with the persistence-scope recompute: DDL bumps it
    structurally, and the engine bumps it explicitly ({!Catalog.touch})
    whenever it invalidates its evaluation plan (config changes, policy
    registration), so a stale compiled plan can never outlive the state
    it was compiled against.

    Compilation failures are never cached: a query that fails to bind
    raises on every call, exactly as the uncached executor did. *)

open Relational

type key = {
  q : Ast.query;
  lineage : bool;
  track_src : bool;
  vectorized : bool;
}

type t = {
  cat : Catalog.t;
  cache : (key, Executor.compiled) Hashtbl.t;
  delta : (Ast.query * bool, Executor.delta_compiled option) Hashtbl.t;
      (** delta-plan derivations keyed by (query, vectorized), [None]
          caching ineligibility *)
  mutable gen : int;
  mutable hits : int;
  mutable misses : int;
  mutable vectorized : bool;
      (** default route for [prepare]/[prepare_delta]; set once from
          engine config before any evaluation traffic *)
}

(* Witness probes bake the current timestamp into their AST, so a
   long-running engine accretes one-shot entries; a full reset at
   capacity bounds memory without bookkeeping on the hot path. *)
let capacity = 1024

let create (cat : Catalog.t) : t =
  {
    cat;
    cache = Hashtbl.create 64;
    delta = Hashtbl.create 16;
    gen = Catalog.generation cat;
    hits = 0;
    misses = 0;
    vectorized = false;
  }

let set_vectorized t v = t.vectorized <- v

let sync t =
  let g = Catalog.generation t.cat in
  if g <> t.gen then begin
    Hashtbl.reset t.cache;
    Hashtbl.reset t.delta;
    t.gen <- g
  end

let prepare t ?(opts = Executor.default_opts) (q : Ast.query) :
    Executor.compiled =
  sync t;
  let vectorized = t.vectorized in
  let k =
    {
      q;
      lineage = opts.Executor.lineage;
      track_src = opts.Executor.track_src;
      vectorized;
    }
  in
  match Hashtbl.find_opt t.cache k with
  | Some c ->
    t.hits <- t.hits + 1;
    c
  | None ->
    let c = Executor.prepare ~opts ~vectorized t.cat q in
    if Hashtbl.length t.cache >= capacity then Hashtbl.reset t.cache;
    Hashtbl.replace t.cache k c;
    t.misses <- t.misses + 1;
    c

(* Delta derivations are cached per generation too, ineligibility as
   [None], so the eligibility analysis runs at most once per query. *)
let prepare_delta t ~is_log ~clock_rel (q : Ast.query) :
    Executor.delta_compiled option =
  sync t;
  let vectorized = t.vectorized in
  let dk = (q, vectorized) in
  match Hashtbl.find_opt t.delta dk with
  | Some d -> d
  | None ->
    let d = Executor.prepare_delta ~vectorized t.cat ~is_log ~clock_rel q in
    if Hashtbl.length t.delta >= capacity then Hashtbl.reset t.delta;
    Hashtbl.replace t.delta dk d;
    d

let run t ?opts q = Executor.run_compiled (prepare t ?opts q)

let is_empty t ?opts q = (run t ?opts q).Executor.out_rows = []

let stats t = (t.hits, t.misses)

let clear t =
  Hashtbl.reset t.cache;
  Hashtbl.reset t.delta
