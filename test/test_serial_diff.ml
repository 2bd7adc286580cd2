(* Differential property tests for the one evaluation path: serial,
   with no scan sharing. The same randomized workload — submissions,
   rejections, mid-run policy registration — must behave bit-identically
   under every setting that only changes how the work is done: the row
   vs the vectorized executor, a warm vs a cold prepared-plan cache, the
   relevance index on vs off. Compared per step: the outcome tag, the
   violation-message list (in order), the accepted result rows (in
   order); and at the end: the full contents (tid + cells) of every log
   relation, so compaction retain sets must match tuple for tuple. Unit
   cases below pin the single prepared-plan cache the engine runs
   through. *)

open Relational
open Datalawyer

let tc = Test_support.tc

(* Scripted operations ------------------------------------------------------ *)

type op =
  | Submit of int * int  (** uid, query index *)
  | Register of int  (** policy-template index *)

let queries =
  [|
    "SELECT v FROM data WHERE k = 1";
    "SELECT k, v FROM data";
    "SELECT COUNT(*) FROM data";
    "SELECT d.v FROM data d, data e WHERE d.k = e.k AND e.v = 'b'";
  |]

(* Policies over every standard log relation, with thresholds small
   enough that rejections actually occur in short scripts. *)
let templates =
  [|
    "SELECT DISTINCT 'uid 2 blocked' FROM users u WHERE u.uid = 2";
    "SELECT DISTINCT 'quota uid 1' FROM users u, clock c WHERE u.uid = 1 AND \
     u.ts > c.ts - 4 HAVING COUNT(DISTINCT u.ts) > 2";
    "SELECT DISTINCT 'provenance cap' FROM provenance p, clock c WHERE p.irid \
     = 'data' AND p.ts > c.ts - 6 HAVING COUNT(DISTINCT p.itid) > 4";
    "SELECT DISTINCT 'schema width' FROM schema s, clock c WHERE s.irid = \
     'data' AND s.ts > c.ts - 5 HAVING COUNT(DISTINCT s.icid) > 1";
    "SELECT DISTINCT 'join fanout' FROM provenance p, users u, clock c WHERE \
     p.ts = u.ts AND u.uid = 3 AND p.irid = 'data' AND p.ts > c.ts - 8 HAVING \
     COUNT(DISTINCT p.itid) > 3";
  |]

type script = {
  strategy : Engine.strategy;
  unification : bool;
  improved_partial : bool;
  preemptive : bool;
  initial : int list;  (** template indices registered before the stream *)
  ops : op list;
}

(* How one leg runs the script: the config knobs under test, and whether
   the prepared-plan cache is dropped before every operation. *)
type leg = { vectorized : bool; relevance : bool; cold_cache : bool }

let base_leg = { vectorized = true; relevance = true; cold_cache = false }

(* Deterministic rendering of one engine run ------------------------------- *)

let render_row (r : Executor.row_out) =
  String.concat ","
    (Array.to_list (Array.map Value.to_string r.Executor.values))

let step_trace engine op =
  match op with
  | Register ti ->
    let n = List.length (Engine.policies engine) in
    let name = Printf.sprintf "p%d" n in
    ignore (Engine.add_policy engine ~name templates.(ti));
    Printf.sprintf "register %s := template %d" name ti
  | Submit (uid, qi) -> (
    match Engine.submit engine ~uid queries.(qi) with
    | Engine.Accepted (result, _) ->
      Printf.sprintf "uid %d q%d accepted [%s]" uid qi
        (String.concat "; " (List.map render_row result.Executor.out_rows))
    | Engine.Rejected (messages, _) ->
      Printf.sprintf "uid %d q%d REJECTED [%s]" uid qi
        (String.concat "; " messages))

let dump_logs engine =
  let db = Engine.database engine in
  List.map
    (fun rel ->
      let rows =
        Table.fold
          (fun acc row ->
            Printf.sprintf "%d:%s" (Row.tid row)
              (String.concat ","
                 (Array.to_list (Array.map Value.to_string (Row.cells row))))
            :: acc)
          []
          (Database.table db rel)
      in
      Printf.sprintf "%s={%s}" rel (String.concat " " (List.rev rows)))
    [ "users"; "schema"; "provenance"; "clock" ]

let run_script leg script =
  let db = Database.create () in
  ignore
    (Database.exec_script db
       "CREATE TABLE data (k INT, v TEXT); INSERT INTO data VALUES (1, 'a'), \
        (2, 'b'), (3, 'c')");
  let config =
    {
      Engine.default_config with
      Engine.strategy = script.strategy;
      unification = script.unification;
      improved_partial = script.improved_partial;
      preemptive = script.preemptive;
      vectorized = leg.vectorized;
      relevance = leg.relevance;
    }
  in
  let engine = Engine.create ~config db in
  List.iteri
    (fun i ti ->
      ignore (Engine.add_policy engine ~name:(Printf.sprintf "p%d" i) templates.(ti)))
    script.initial;
  let trace =
    List.map
      (fun op ->
        if leg.cold_cache then Engine.clear_plan_cache engine;
        step_trace engine op)
      script.ops
  in
  trace @ dump_logs engine

(* Generator ----------------------------------------------------------------- *)

let script_gen : script QCheck.Gen.t =
  let open QCheck.Gen in
  let op_gen =
    frequency
      [
        ( 6,
          map2
            (fun uid qi -> Submit (uid, qi))
            (int_range 1 3)
            (int_range 0 (Array.length queries - 1)) );
        (1, map (fun ti -> Register ti) (int_range 0 (Array.length templates - 1)));
      ]
  in
  let* strategy = oneofl [ Engine.Union_all; Engine.Serial; Engine.Interleaved ] in
  let* unification = bool in
  let* improved_partial = bool in
  let* preemptive = bool in
  let* initial =
    list_size (int_range 0 3) (int_range 0 (Array.length templates - 1))
  in
  let+ ops = list_size (int_range 1 12) op_gen in
  { strategy; unification; improved_partial; preemptive; initial; ops }

let print_script s =
  Printf.sprintf "strategy=%s unif=%b ip=%b pre=%b initial=[%s] ops=[%s]"
    (match s.strategy with
    | Engine.Union_all -> "union"
    | Engine.Serial -> "serial"
    | Engine.Interleaved -> "interleaved")
    s.unification s.improved_partial s.preemptive
    (String.concat ";" (List.map string_of_int s.initial))
    (String.concat ";"
       (List.map
          (function
            | Submit (u, q) -> Printf.sprintf "S%d.%d" u q
            | Register t -> Printf.sprintf "R%d" t)
          s.ops))

let script_arb = QCheck.make ~print:print_script script_gen

(* Properties ---------------------------------------------------------------- *)

let prop_legs_identical ~name ~count leg =
  QCheck.Test.make ~name ~count script_arb (fun script ->
      run_script base_leg script = run_script leg script)

let prop_row_vectorized =
  prop_legs_identical
    ~name:"row and vectorized executors produce identical traces and logs"
    ~count:150
    { base_leg with vectorized = false }

let prop_cold_cache =
  prop_legs_identical
    ~name:"a cold plan cache at every step changes no trace or log" ~count:150
    { base_leg with cold_cache = true }

let prop_relevance =
  prop_legs_identical
    ~name:"relevance on and off produce identical traces and logs" ~count:150
    { base_leg with relevance = false }

let prop_rerun =
  prop_legs_identical
    ~name:"a rerun of one script reproduces its traces and logs" ~count:100
    base_leg

(* The row/vectorized check through the full workload stack (Table 2
   policies over the synthetic MIMIC instance), fewer cases since each
   is costlier. *)
let prop_workload_row_vectorized =
  let stream_gen =
    QCheck.Gen.list_size (QCheck.Gen.int_range 1 10)
      (QCheck.Gen.pair (QCheck.Gen.int_range 0 2)
         (QCheck.Gen.oneofl [ "W1"; "W2"; "W3" ]))
  in
  QCheck.Test.make
    ~name:"workload decisions identical on row and vectorized executors"
    ~count:10 (QCheck.make stream_gen)
    (fun stream ->
      let run vectorized =
        let s =
          Workload.Runner.make
            ~mimic:
              {
                Mimic.Generate.small_config with
                n_patients = 30;
                events_per_patient = 4;
              }
            ~params:
              {
                Workload.Policies.default_params with
                p1_window = 4;
                p1_max_users = 1;
                p5_window = 6;
                p5_max_fraction = 0.3;
              }
            ~config:{ Engine.default_config with Engine.vectorized }
            ()
        in
        let decisions =
          List.map
            (fun (uid, qn) ->
              let q = Workload.Runner.query s qn in
              match
                Engine.submit s.Workload.Runner.engine ~uid
                  q.Workload.Queries.sql
              with
              | Engine.Accepted (r, _) ->
                "A:" ^ String.concat ";" (List.map render_row r.Executor.out_rows)
              | Engine.Rejected (ms, _) -> "R:" ^ String.concat ";" ms)
            stream
        in
        decisions @ dump_logs s.Workload.Runner.engine
      in
      run false = run true)

(* The prepared-plan cache ------------------------------------------------- *)

let cache_db () =
  Test_support.db_of_script
    "CREATE TABLE data (k INT, v TEXT); INSERT INTO data VALUES (1, 'a'), \
     (2, 'b'), (3, 'c')"

let q_all = Parser.query "SELECT k, v FROM data"

let check_stats msg expected p =
  Alcotest.(check (pair int int)) msg expected (Prepared.stats p)

let test_prepared_hit () =
  let db = cache_db () in
  let p = Prepared.create (Database.catalog db) in
  let c1 = Prepared.prepare p q_all in
  check_stats "first prepare misses" (0, 1) p;
  let c2 = Prepared.prepare p q_all in
  check_stats "second prepare hits" (1, 1) p;
  Alcotest.(check bool) "same compiled plan" true (c1 == c2);
  (* a structurally equal AST parsed again is the same key *)
  ignore (Prepared.prepare p (Parser.query "SELECT k, v FROM data"));
  check_stats "equal AST hits" (2, 1) p

let test_prepared_opts_key () =
  let db = cache_db () in
  let p = Prepared.create (Database.catalog db) in
  let lin = { Executor.lineage = true; track_src = false } in
  let src = { Executor.lineage = false; track_src = true } in
  ignore (Prepared.prepare p q_all);
  ignore (Prepared.prepare p ~opts:lin q_all);
  ignore (Prepared.prepare p ~opts:src q_all);
  check_stats "each option set compiles once" (0, 3) p;
  ignore (Prepared.prepare p ~opts:lin q_all);
  ignore (Prepared.prepare p ~opts:Executor.default_opts q_all);
  check_stats "then each hits" (2, 3) p;
  let r = Prepared.run p ~opts:lin q_all in
  Alcotest.(check bool) "lineage requested, lineage returned" true
    (List.for_all
       (fun (row : Executor.row_out) -> row.Executor.lineage <> [])
       r.Executor.out_rows)

let test_prepared_vectorized_key () =
  let db = cache_db () in
  let p = Prepared.create (Database.catalog db) in
  let row = Prepared.run p q_all in
  Prepared.set_vectorized p true;
  let vec = Prepared.run p q_all in
  check_stats "the route is part of the key" (0, 2) p;
  ignore (Prepared.run p q_all);
  check_stats "vectorized plan cached" (1, 2) p;
  Alcotest.(check (list (list string))) "both routes return the same rows"
    (List.map
       (fun (r : Executor.row_out) ->
         Array.to_list (Array.map Value.to_string r.Executor.values))
       row.Executor.out_rows)
    (List.map
       (fun (r : Executor.row_out) ->
         Array.to_list (Array.map Value.to_string r.Executor.values))
       vec.Executor.out_rows)

let test_prepared_generation () =
  let db = cache_db () in
  let cat = Database.catalog db in
  let p = Prepared.create cat in
  ignore (Prepared.prepare p q_all);
  Catalog.touch cat;
  ignore (Prepared.prepare p q_all);
  check_stats "touch forces a recompile" (0, 2) p;
  ignore
    (Database.exec_script db
       "DROP TABLE data; CREATE TABLE data (k INT, v TEXT); INSERT INTO data \
        VALUES (7, 'z')");
  let r = Prepared.run p q_all in
  check_stats "DDL forces a recompile" (0, 3) p;
  Alcotest.(check int) "the new table is scanned" 1
    (List.length r.Executor.out_rows)

let test_prepared_clear () =
  let db = cache_db () in
  let p = Prepared.create (Database.catalog db) in
  ignore (Prepared.prepare p q_all);
  ignore (Prepared.prepare p q_all);
  Prepared.clear p;
  check_stats "counters survive clear" (1, 1) p;
  ignore (Prepared.prepare p q_all);
  check_stats "cleared plan recompiles" (1, 2) p;
  Alcotest.(check bool) "is_empty sees the rows" false (Prepared.is_empty p q_all);
  Alcotest.(check bool) "is_empty on an empty filter" true
    (Prepared.is_empty p (Parser.query "SELECT k FROM data WHERE k > 10"))

let test_prepared_errors_uncached () =
  let db = cache_db () in
  let p = Prepared.create (Database.catalog db) in
  let bad = Parser.query "SELECT k FROM missing" in
  let raises () =
    match Prepared.prepare p bad with
    | _ -> false
    | exception Errors.Sql_error _ -> true
  in
  Alcotest.(check bool) "first call raises" true (raises ());
  Alcotest.(check bool) "second call raises again" true (raises ());
  check_stats "failures count nothing" (0, 0) p;
  ignore (Database.exec_script db "CREATE TABLE missing (k INT)");
  Alcotest.(check bool) "binds once the table exists" false (raises ())

(* Engine-level counters --------------------------------------------------- *)

let engine_with_policy () =
  let db = cache_db () in
  let e = Engine.create db in
  ignore (Engine.add_policy e ~name:"p" templates.(0));
  e

let test_engine_clear_plan_cache () =
  let e = engine_with_policy () in
  ignore (Engine.submit e ~uid:1 queries.(0));
  ignore (Engine.submit e ~uid:1 queries.(0));
  let hits, misses = Engine.plan_cache_stats e in
  Alcotest.(check bool) "warm cache hits" true (hits > 0);
  Engine.clear_plan_cache e;
  Alcotest.(check (pair int int)) "clear keeps the counters" (hits, misses)
    (Engine.plan_cache_stats e);
  ignore (Engine.submit e ~uid:1 queries.(0));
  let _, misses' = Engine.plan_cache_stats e in
  Alcotest.(check bool) "cold submission recompiles" true (misses' > misses);
  match Engine.submit e ~uid:2 queries.(0) with
  | Engine.Rejected ([ m ], _) -> Alcotest.(check string) "verdict" "uid 2 blocked" m
  | _ -> Alcotest.fail "uid 2 must be rejected"

(* The perfbench harness records these; evaluation is serial, so they
   stay at their constants whatever the engine has done. *)
let test_pinned_counters () =
  let e = engine_with_policy () in
  List.iter (fun uid -> ignore (Engine.submit e ~uid queries.(1))) [ 1; 2; 3 ];
  Alcotest.(check int) "default_domains" 1 Engine.default_domains;
  let domains, batches, tasks = Engine.parallel_stats e in
  Alcotest.(check (list int)) "parallel_stats" [ 1; 0; 0 ]
    [ domains; batches; tasks ];
  Alcotest.(check (pair int int)) "shared_scan_stats" (0, 0)
    (Engine.shared_scan_stats e)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_row_vectorized;
      prop_cold_cache;
      prop_relevance;
      prop_rerun;
      prop_workload_row_vectorized;
    ]
  @ [
      tc "prepared: same query and options hit" test_prepared_hit;
      tc "prepared: execution options are part of the key"
        test_prepared_opts_key;
      tc "prepared: the vectorized route is part of the key"
        test_prepared_vectorized_key;
      tc "prepared: a generation bump recompiles" test_prepared_generation;
      tc "prepared: clear drops plans, keeps counters" test_prepared_clear;
      tc "prepared: binding failures are never cached"
        test_prepared_errors_uncached;
      tc "engine: clear_plan_cache forces recompiles" test_engine_clear_plan_cache;
      tc "engine: pinned perfbench counters" test_pinned_counters;
    ]
