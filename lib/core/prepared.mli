(** Prepared-plan cache: compiled query plans keyed by (AST, options),
    revalidated against {!Relational.Catalog.generation}. One counter
    covers every invalidation source — DDL bumps it structurally, the
    engine bumps it on config/policy changes — so cached plans can never
    go stale. *)

open Relational

type t

val create : Catalog.t -> t

(** Set the default compilation route: with [true], {!prepare} and
    {!prepare_delta} compile through the vectorized executor
    ({!Relational.Compile_batch}), falling back per subtree where
    routing demands the row path. Part of the cache key, but intended to
    be set once, from engine config, before evaluation traffic. *)
val set_vectorized : t -> bool -> unit

(** Fetch or compile the plan for [q] under [opts].
    @raise Errors.Sql_error on binding failures (never cached). *)
val prepare : t -> ?opts:Executor.opts -> Ast.query -> Executor.compiled

(** Fetch or derive+compile the delta variants of [q] (see
    {!Executor.prepare_delta}); ineligibility ([None]) is cached too, so
    the analysis runs once per generation. *)
val prepare_delta :
  t ->
  is_log:(string -> bool) ->
  clock_rel:string ->
  Ast.query ->
  Executor.delta_compiled option

(** [prepare] + execute. *)
val run : t -> ?opts:Executor.opts -> Ast.query -> Executor.result

val is_empty : t -> ?opts:Executor.opts -> Ast.query -> bool

(** (hits, misses) since creation. *)
val stats : t -> int * int

(** Drop every cached plan (the statistics survive). *)
val clear : t -> unit
