(** Query execution: thin driver over the plan pipeline.

    [run] is bind ({!Plan.of_query}) → rewrite ({!Optimizer.optimize}) →
    compile ({!Compile.compile}) → execute. The expensive per-query work —
    scope construction, conjunct decomposition, join-key derivation,
    closure compilation — happens in [prepare]; executing a prepared plan
    does none of it, which is what the engine's prepared-plan cache
    exploits on the policy hot path.

    [prepare_unoptimized] skips the optimizer, giving a naive reference
    executor for differential testing. *)

type opts = Compile.opts = { lineage : bool; track_src : bool }

let default_opts = Compile.default_opts

type row_out = {
  values : Value.t array;
  lineage : (string * int) list;
  src_tids : (int * int) list;
}

type result = { columns : string list; out_rows : row_out list }

type compiled = Compile.t

let prepare ?(opts = default_opts) ?(vectorized = false) (cat : Catalog.t)
    (q : Ast.query) : compiled =
  let plan = Optimizer.optimize cat (Plan.of_query cat q) in
  if vectorized then Compile_batch.compile cat opts plan
  else Compile.compile cat opts plan

let prepare_unoptimized ?(opts = default_opts) (cat : Catalog.t) (q : Ast.query)
    : compiled =
  Compile.compile cat opts (Plan.of_query cat q)

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

type compiled_branch =
  | C_spj of compiled list
  | C_residual of { c_plan : compiled; c_clock : string }
  | C_agg of agg_compiled

type delta_compiled = {
  delta_deps : (string * Optimizer.dep_kind) list;
  delta_branches : compiled_branch list;
}

let prepare_delta ?(opts = default_opts) ?(vectorized = false) (cat : Catalog.t)
    ~is_log ~clock_rel (q : Ast.query) : delta_compiled option =
  let compile =
    if vectorized then fun plan -> Compile_batch.compile cat opts plan
    else fun plan -> Compile.compile cat opts plan
  in
  let compile_branch (b : Optimizer.delta_branch) : compiled_branch =
    match b with
    | Optimizer.B_spj variants -> C_spj (List.map compile variants)
    | Optimizer.B_residual { plan; clock_table } ->
      C_residual { c_plan = compile plan; c_clock = clock_table }
    | Optimizer.B_agg a ->
      let f = a.Optimizer.ad_finish in
      C_agg
        {
          c_variants = List.map compile a.Optimizer.ad_variants;
          c_full = compile a.Optimizer.ad_full;
          c_nkeys = a.Optimizer.ad_nkeys;
          c_specs = a.Optimizer.ad_specs;
          c_width = a.Optimizer.ad_width;
          c_rep_slots = a.Optimizer.ad_rep_slots;
          c_having = Option.map Compile.compile_expr f.Plan.having;
          c_projs = List.map Compile.compile_expr f.Plan.projs;
          c_columns = f.Plan.columns;
        }
  in
  Option.map
    (fun (d : Optimizer.delta_plans) ->
      {
        delta_deps = d.Optimizer.deps;
        delta_branches = List.map compile_branch d.Optimizer.branches;
      })
    (Optimizer.derive_delta cat ~is_log ~clock_rel q)

let run_compiled (c : compiled) : result =
  let rows = c.Compile.exec () in
  {
    columns = Array.to_list c.Compile.cols;
    out_rows =
      List.map
        (fun (r : Compile.arow) ->
          {
            values = r.Compile.vals;
            lineage = Lineage.to_list r.Compile.lin;
            src_tids = r.Compile.src;
          })
        rows;
  }

let run ?(opts = default_opts) cat q = run_compiled (prepare ~opts cat q)

let run_unoptimized ?(opts = default_opts) cat q =
  run_compiled (prepare_unoptimized ~opts cat q)

let run_sql ?opts cat sql = run ?opts cat (Parser.query sql)

let is_empty ?opts cat q = (run ?opts cat q).out_rows = []

let rows_examined = Compile.rows_examined

let index_probes = Compile.index_probes
