(* Differential property tests for incremental (delta-driven) policy
   evaluation: the same randomized workload — submissions, rejections,
   mid-stream policy registration, DDL, plain-table DML, compaction and
   (for persisted scripts) restart-with-recovery — must behave
   bit-identically with [delta = true] and [delta = false]. Compared per
   step: the outcome tag, the violation-message list (in order), the
   accepted result rows (in order); and at the end: the full contents
   (tid + cells) of every log relation and the clock — so watermark and
   invalidation bugs that corrupt decisions or retained tuples fail the
   property. Deterministic cases then pin that the delta path actually
   runs (the differential property alone would pass if everything
   silently fell back). *)

open Relational
open Datalawyer

let tc = Test_support.tc

(* Scripted operations ------------------------------------------------------ *)

type op =
  | Submit of int * int  (** uid, query index *)
  | Register of int  (** policy-template index *)
  | Ddl of int  (** DDL-statement index: bumps the catalog generation *)
  | Mutate of int  (** plain-table DML index: bumps version counters *)
  | Restart  (** persisted scripts: close, recover from disk; else no-op *)

let queries =
  [|
    "SELECT v FROM data WHERE k = 1";
    "SELECT k, v FROM data";
    "SELECT COUNT(*) FROM data";
    "SELECT d.v FROM data d, data e WHERE d.k = e.k AND e.v = 'b'";
  |]

(* A mix of every delta branch kind — SPJ (constant projections over
   log / plain scans), residual (clock tick-windows, with and without
   aggregates) and carried-state aggregates (GROUP BY / HAVING over log
   slots, including MIN/MAX and DISTINCT) — plus the occasional
   still-ineligible shape: all paths must agree with full evaluation
   under every interleaving. *)
let templates =
  [|
    "SELECT DISTINCT 'uid 2 blocked' FROM users u WHERE u.uid = 2";
    "SELECT DISTINCT 'banned uid' FROM users u, banned b WHERE u.uid = b.uid";
    "SELECT DISTINCT 'quota uid 1' FROM users u, clock c WHERE u.uid = 1 AND \
     u.ts > c.ts - 4 HAVING COUNT(DISTINCT u.ts) > 2";
    "SELECT DISTINCT 'schema width' FROM schema s, clock c WHERE s.irid = \
     'data' AND s.ts > c.ts - 5 HAVING COUNT(DISTINCT s.icid) > 1";
    "SELECT DISTINCT 'provenance touch' FROM provenance p, banned b WHERE \
     p.irid = 'data' AND p.itid = b.uid";
    "SELECT DISTINCT 'uid 2 over quota' FROM users u WHERE u.uid = 2 GROUP \
     BY u.uid HAVING COUNT(*) > 2";
    "SELECT DISTINCT 'banned pair' FROM users u, banned b WHERE u.uid = \
     b.uid GROUP BY b.uid HAVING COUNT(*) > 1";
    "SELECT DISTINCT 'uid 3 spread' FROM users u WHERE u.uid = 3 GROUP BY \
     u.uid HAVING MAX(u.ts) - MIN(u.ts) > 4 AND COUNT(*) > 2";
    "SELECT DISTINCT 'distinct ticks' FROM users u GROUP BY u.uid HAVING \
     COUNT(DISTINCT u.ts) > 5";
  |]

(* DDL invalidates delta bases through the catalog generation. Repeats
   raise (duplicate index, unknown index); the error text goes into the
   trace, so both runs must fail identically too. *)
let ddls =
  [|
    "CREATE INDEX dd_users_uid ON users USING hash (uid)";
    "DROP INDEX dd_users_uid";
    "CREATE INDEX dd_data_k ON data USING sorted (k)";
    "DROP INDEX dd_data_k";
  |]

(* Plain-table DML invalidates through per-table version counters: the
   [banned] mutations flip template 1 between accepting and rejecting,
   so a missed invalidation changes a decision and fails the diff. The
   [users] delete is log DML — it must invalidate carried aggregate
   state ([ver_del]) or the COUNT templates keep counting ghost rows. *)
let mutations =
  [|
    "INSERT INTO banned VALUES (2)";
    "DELETE FROM banned WHERE uid = 2";
    "UPDATE data SET v = 'z' WHERE k = 2";
    "INSERT INTO data VALUES (9, 'i')";
    "DELETE FROM users WHERE uid = 2";
  |]

type script = {
  strategy : Engine.strategy;
  ti : bool;
      (** TI rewriting adds a clock atom to time-independent policies,
          which moves them from the SPJ/aggregate branches onto the
          residual one — varying it steers the property across the
          branch kinds *)
  unification : bool;
  compaction : bool;
  preemptive : bool;
  persist : bool;
  initial : int list;  (** template indices registered before the stream *)
  ops : op list;
}

(* Fresh scratch directory per persisted run. *)
let temp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "dl_delta_%d_%d" (Unix.getpid ()) !counter)
    in
    (if Sys.file_exists dir then
       Sys.readdir dir |> Array.iter (fun f -> Sys.remove (Filename.concat dir f)));
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    dir

(* Deterministic rendering of one engine run ------------------------------- *)

let render_row (r : Executor.row_out) =
  String.concat ","
    (Array.to_list (Array.map Value.to_string r.Executor.values))

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

let run_script ~delta script =
  let dir = if script.persist then Some (temp_dir ()) else None in
  let config =
    {
      Engine.default_config with
      Engine.strategy = script.strategy;
      time_independent = script.ti;
      unification = script.unification;
      log_compaction = script.compaction;
      preemptive = script.compaction && script.preemptive;
      delta;
    }
  in
  let fresh_db () =
    let db = Database.create () in
    ignore
      (Database.exec_script db
         "CREATE TABLE data (k INT, v TEXT); INSERT INTO data VALUES (1, \
          'a'), (2, 'b'), (3, 'c'); CREATE TABLE banned (uid INT); INSERT \
          INTO banned VALUES (3)");
    db
  in
  let mk db = Engine.create ~config ?persist_dir:dir db in
  let db = ref (fresh_db ()) in
  let engine = ref (mk !db) in
  List.iteri
    (fun i ti ->
      ignore
        (Engine.add_policy !engine ~name:(Printf.sprintf "p%d" i) templates.(ti)))
    script.initial;
  let step op =
    try
      match op with
      | Register ti ->
        let n = List.length (Engine.policies !engine) in
        let name = Printf.sprintf "p%d" n in
        ignore (Engine.add_policy !engine ~name templates.(ti));
        Printf.sprintf "register %s := template %d" name ti
      | Submit (uid, qi) -> (
        match Engine.submit !engine ~uid queries.(qi) with
        | Engine.Accepted (result, _) ->
          Printf.sprintf "uid %d q%d accepted [%s]" uid qi
            (String.concat "; " (List.map render_row result.Executor.out_rows))
        | Engine.Rejected (messages, _) ->
          Printf.sprintf "uid %d q%d REJECTED [%s]" uid qi
            (String.concat "; " messages))
      | Ddl di -> (
        match Dml.exec (Database.catalog !db) (Parser.stmt ddls.(di)) with
        | Dml.Created what -> Printf.sprintf "ddl %d created %s" di what
        | Dml.Dropped what -> Printf.sprintf "ddl %d dropped %s" di what
        | Dml.Affected n -> Printf.sprintf "ddl %d affected %d" di n
        | Dml.Rows _ -> Printf.sprintf "ddl %d rows" di)
      | Mutate mi -> (
        match Dml.exec (Database.catalog !db) (Parser.stmt mutations.(mi)) with
        | Dml.Affected n -> Printf.sprintf "mutate %d affected %d" mi n
        | _ -> Printf.sprintf "mutate %d" mi)
      | Restart ->
        if not script.persist then "restart skipped"
        else begin
          Engine.close !engine;
          db := fresh_db ();
          engine := mk !db;
          Printf.sprintf "restart (%d policies recovered)"
            (List.length (Engine.policies !engine))
        end
    with Errors.Sql_error _ as e -> "error: " ^ Errors.to_string e
  in
  let trace = List.map step script.ops in
  let logs = dump_logs !engine in
  Engine.close !engine;
  trace @ logs

(* Generator ----------------------------------------------------------------- *)

let script_gen : script QCheck.Gen.t =
  let open QCheck.Gen in
  let op_gen =
    frequency
      [
        ( 8,
          map2
            (fun uid qi -> Submit (uid, qi))
            (int_range 1 3)
            (int_range 0 (Array.length queries - 1)) );
        (1, map (fun ti -> Register ti) (int_range 0 (Array.length templates - 1)));
        (1, map (fun di -> Ddl di) (int_range 0 (Array.length ddls - 1)));
        (1, map (fun mi -> Mutate mi) (int_range 0 (Array.length mutations - 1)));
        (1, return Restart);
      ]
  in
  let* strategy = oneofl [ Engine.Union_all; Engine.Serial; Engine.Interleaved ] in
  let* ti = bool in
  let* unification = bool in
  let* compaction = bool in
  let* preemptive = bool in
  (* persisted scripts hit the disk on every accepted submission; keep
     them a minority so 300 cases stay fast *)
  let* persist = frequency [ (4, return false); (1, return true) ] in
  let* initial =
    list_size (int_range 0 3) (int_range 0 (Array.length templates - 1))
  in
  let+ ops = list_size (int_range 1 14) op_gen in
  { strategy; ti; unification; compaction; preemptive; persist; initial; ops }

let print_script s =
  Printf.sprintf
    "strategy=%s ti=%b unif=%b comp=%b pre=%b persist=%b initial=[%s] ops=[%s]"
    (match s.strategy with
    | Engine.Union_all -> "union"
    | Engine.Serial -> "serial"
    | Engine.Interleaved -> "interleaved")
    s.ti s.unification s.compaction s.preemptive s.persist
    (String.concat ";" (List.map string_of_int s.initial))
    (String.concat ";"
       (List.map
          (function
            | Submit (u, q) -> Printf.sprintf "S%d.%d" u q
            | Register t -> Printf.sprintf "R%d" t
            | Ddl d -> Printf.sprintf "D%d" d
            | Mutate m -> Printf.sprintf "M%d" m
            | Restart -> "X")
          s.ops))

let script_arb = QCheck.make ~print:print_script script_gen

(* Properties ---------------------------------------------------------------- *)

let prop_delta_full_identical =
  QCheck.Test.make
    ~name:"delta on and off produce identical traces and logs" ~count:300
    script_arb
    (fun script -> run_script ~delta:false script = run_script ~delta:true script)

(* Deterministic pins -------------------------------------------------------- *)

(* TI rewriting is the offline optimization for time-independent
   policies (it already restricts them to the increment, via a clock
   atom that moves them onto the residual branch); these pins turn it
   off so each template exercises the branch kind named in the pin —
   SPJ for the plain templates, carried-state aggregate for the GROUP
   BY/HAVING ones. *)
(* [delta] is pinned on (not inherited from DL_DELTA): these cases test
   the delta machinery itself and must assert under either env value.
   The relevance index is pinned off: it proves these simple templates
   unaffected before the delta path would even run, and the pins are
   about the delta path (test_unify_scale pins the index's own
   behavior). *)
let ti_off =
  {
    Engine.default_config with
    Engine.time_independent = false;
    delta = true;
    relevance = false;
  }

let make_engine ?(config = ti_off) () =
  let db = Database.create () in
  ignore
    (Database.exec_script db
       "CREATE TABLE data (k INT, v TEXT); INSERT INTO data VALUES (1, 'a'); \
        CREATE TABLE banned (uid INT); INSERT INTO banned VALUES (9)");
  (db, Engine.create ~config db)

let test_delta_path_runs () =
  let _, engine = make_engine () in
  ignore (Engine.add_policy engine ~name:"blocked" templates.(0));
  (match Engine.submit engine ~uid:1 "SELECT v FROM data WHERE k = 1" with
  | Engine.Accepted _ -> ()
  | Engine.Rejected _ -> Alcotest.fail "uid 1 must pass");
  (match Engine.submit engine ~uid:1 "SELECT v FROM data WHERE k = 1" with
  | Engine.Accepted _ -> ()
  | Engine.Rejected _ -> Alcotest.fail "uid 1 must pass");
  let d = Engine.delta_stats engine in
  Alcotest.(check int) "one eligible plan" 1 d.Engine.eligible_plans;
  Alcotest.(check int) "no fallback plans" 0 d.Engine.fallback_plans;
  Alcotest.(check bool) "a base is recorded" true (d.Engine.delta_bases >= 1);
  Alcotest.(check bool) "delta evals happened" true (d.Engine.delta_evals >= 1)

let test_delta_detects_violation () =
  let _, engine = make_engine () in
  ignore (Engine.add_policy engine ~name:"blocked" templates.(0));
  (* establish the base... *)
  (match Engine.submit engine ~uid:1 "SELECT v FROM data WHERE k = 1" with
  | Engine.Accepted _ -> ()
  | Engine.Rejected _ -> Alcotest.fail "uid 1 must pass");
  (* ...then the violating increment must be caught from the delta alone *)
  match Engine.submit engine ~uid:2 "SELECT v FROM data WHERE k = 1" with
  | Engine.Rejected ([ m ], _) ->
    Alcotest.(check string) "message" "uid 2 blocked" m
  | _ -> Alcotest.fail "uid 2 must be rejected"

let submit_ok engine ~uid what =
  match Engine.submit engine ~uid "SELECT v FROM data WHERE k = 1" with
  | Engine.Accepted _ -> ()
  | Engine.Rejected (ms, _) ->
    Alcotest.failf "%s must pass, got [%s]" what (String.concat "; " ms)

let test_clock_policy_rides_residual () =
  let _, engine = make_engine () in
  ignore (Engine.add_policy engine ~name:"quota" templates.(2));
  submit_ok engine ~uid:1 "first";
  submit_ok engine ~uid:1 "second";
  let d = Engine.delta_stats engine in
  Alcotest.(check int) "one eligible plan" 1 d.Engine.eligible_plans;
  Alcotest.(check int) "no fallback plans" 0 d.Engine.fallback_plans;
  (* Residual branches recompute exactly and need no base, so even the
     very first evaluation rides the delta path. *)
  Alcotest.(check int) "zero full evals" 0 d.Engine.full_evals;
  Alcotest.(check bool) "delta evals happened" true (d.Engine.delta_evals >= 2);
  (* Third distinct tick inside the 4-tick window trips the quota, and
     the verdict must come from the residual plan (no full eval). *)
  (match Engine.submit engine ~uid:1 "SELECT v FROM data WHERE k = 1" with
  | Engine.Rejected ([ m ], _) -> Alcotest.(check string) "message" "quota uid 1" m
  | _ -> Alcotest.fail "third submission must be rejected");
  let d = Engine.delta_stats engine in
  Alcotest.(check int) "still zero full evals" 0 d.Engine.full_evals

let test_agg_policy_carries_state () =
  let _, engine = make_engine () in
  ignore (Engine.add_policy engine ~name:"quota2" templates.(5));
  submit_ok engine ~uid:1 "warm-up";
  let warm = (Engine.delta_stats engine).Engine.full_evals in
  submit_ok engine ~uid:1 "uid 1 again";
  submit_ok engine ~uid:2 "uid 2 first";
  submit_ok engine ~uid:2 "uid 2 second";
  let d = Engine.delta_stats engine in
  Alcotest.(check int) "one eligible plan" 1 d.Engine.eligible_plans;
  Alcotest.(check int) "steady state adds no full evals" warm d.Engine.full_evals;
  (* Only the uid-2 submissions reach [delta_try]: while uid 2 has no
     rows, interleaved partial checks prune the policy first (bumping
     neither counter). *)
  Alcotest.(check bool) "delta evals happened" true (d.Engine.delta_evals >= 2);
  Alcotest.(check bool) "groups are carried" true (d.Engine.agg_groups >= 1);
  (* The third uid-2 row pushes the count past 2 — caught from carried
     state plus the increment alone. *)
  (match Engine.submit engine ~uid:2 "SELECT v FROM data WHERE k = 1" with
  | Engine.Rejected ([ m ], _) ->
    Alcotest.(check string) "message" "uid 2 over quota" m
  | _ -> Alcotest.fail "third uid-2 submission must be rejected");
  (* The rejected increment was rolled back and must NOT have been
     folded into the carried groups: the next one still counts 2+1. *)
  (match Engine.submit engine ~uid:2 "SELECT v FROM data WHERE k = 1" with
  | Engine.Rejected ([ m ], _) ->
    Alcotest.(check string) "message again" "uid 2 over quota" m
  | _ -> Alcotest.fail "fourth uid-2 submission must be rejected");
  submit_ok engine ~uid:1 "uid 1 unaffected";
  let d = Engine.delta_stats engine in
  Alcotest.(check int) "verdicts came from the delta path" warm
    d.Engine.full_evals

let test_min_max_aggregate_on_delta_path () =
  let _, engine = make_engine () in
  ignore (Engine.add_policy engine ~name:"spread" templates.(7));
  submit_ok engine ~uid:3 "t1";
  let warm = (Engine.delta_stats engine).Engine.full_evals in
  submit_ok engine ~uid:3 "t2";
  submit_ok engine ~uid:1 "t3";
  submit_ok engine ~uid:1 "t4";
  submit_ok engine ~uid:1 "t5";
  (* Ticks 1..6: uid 3's third row at tick 6 makes MAX-MIN = 5 > 4 with
     COUNT 3 > 2. *)
  (match Engine.submit engine ~uid:3 "SELECT v FROM data WHERE k = 1" with
  | Engine.Rejected ([ m ], _) -> Alcotest.(check string) "message" "uid 3 spread" m
  | _ -> Alcotest.fail "tick-6 submission must be rejected");
  let d = Engine.delta_stats engine in
  Alcotest.(check int) "steady state adds no full evals" warm d.Engine.full_evals

(* The Table-2 workload policies (P1–P6): every one must classify onto
   some delta branch under the default configuration, and a steady
   accepted stream must add no full evaluations after the first
   (base-establishing) submission — the ISSUE's 100%-coverage check.
   Relevance is pinned off and the strategy serial so every policy
   actually reaches [delta_try] on every submission (a relevance skip or
   an interleaved partial-prune bumps neither counter and would
   vacuously pass the zero-full pin). *)
let test_table2_policies_all_on_delta_path () =
  let config =
    {
      Engine.default_config with
      Engine.strategy = Engine.Serial;
      delta = true;
      relevance = false;
    }
  in
  let s = Workload.Runner.make ~config () in
  let engine = s.Workload.Runner.engine in
  let sql = "SELECT subject_id FROM d_patients WHERE subject_id = 1" in
  (match Engine.submit engine ~uid:2 sql with
  | Engine.Accepted _ -> ()
  | Engine.Rejected (ms, _) ->
    Alcotest.failf "warm-up must pass, got [%s]" (String.concat "; " ms));
  let d0 = Engine.delta_stats engine in
  Alcotest.(check int) "all six policies eligible" 6 d0.Engine.eligible_plans;
  Alcotest.(check int) "no fallback plans" 0 d0.Engine.fallback_plans;
  for i = 1 to 5 do
    match Engine.submit engine ~uid:2 sql with
    | Engine.Accepted _ -> ()
    | Engine.Rejected (ms, _) ->
      Alcotest.failf "steady submission %d must pass, got [%s]" i
        (String.concat "; " ms)
  done;
  let d = Engine.delta_stats engine in
  Alcotest.(check int) "zero full evals on the steady stream"
    d0.Engine.full_evals d.Engine.full_evals;
  Alcotest.(check bool) "delta evals cover the stream" true
    (d.Engine.delta_evals >= d0.Engine.delta_evals + 30)

let test_plain_mutation_invalidates () =
  let db, engine = make_engine () in
  ignore (Engine.add_policy engine ~name:"banned" templates.(1));
  ignore (Engine.submit engine ~uid:1 "SELECT v FROM data WHERE k = 1");
  ignore (Engine.submit engine ~uid:1 "SELECT v FROM data WHERE k = 1");
  let before = (Engine.delta_stats engine).Engine.full_evals in
  ignore
    (Dml.exec (Database.catalog db) (Parser.stmt "INSERT INTO banned VALUES (2)"));
  (* the mutated plain dependency forces a full re-run, which must now
     see the fresh banned row *)
  (match Engine.submit engine ~uid:2 "SELECT v FROM data WHERE k = 1" with
  | Engine.Rejected ([ m ], _) -> Alcotest.(check string) "message" "banned uid" m
  | _ -> Alcotest.fail "uid 2 must be rejected after the banned insert");
  let after = (Engine.delta_stats engine).Engine.full_evals in
  Alcotest.(check bool) "a full eval was counted" true (after > before)

let test_time_dependent_join_eligible_under_defaults () =
  (* Under the full default config, TI rewriting claims the
     time-independent policies; the delta path's remaining jurisdiction
     is exactly the time-DEPENDENT SPJ shapes — cross-time log joins TI
     cannot rewrite — which are also the ones that grow with the log. *)
  let _, engine =
    make_engine
      ~config:{ Engine.default_config with Engine.delta = true }
      ()
  in
  ignore
    (Engine.add_policy engine ~name:"cross"
       "SELECT DISTINCT 'cross-time touch' FROM users u, provenance p WHERE \
        u.uid = p.itid AND p.irid = 'never'");
  ignore (Engine.submit engine ~uid:1 "SELECT v FROM data WHERE k = 1");
  ignore (Engine.submit engine ~uid:1 "SELECT v FROM data WHERE k = 1");
  let d = Engine.delta_stats engine in
  Alcotest.(check int) "one eligible plan" 1 d.Engine.eligible_plans;
  Alcotest.(check bool) "delta evals happened" true (d.Engine.delta_evals >= 1)

let test_delta_off_counts_nothing () =
  let _, engine = make_engine ~config:{ ti_off with Engine.delta = false } () in
  ignore (Engine.add_policy engine ~name:"blocked" templates.(0));
  ignore (Engine.submit engine ~uid:1 "SELECT v FROM data WHERE k = 1");
  ignore (Engine.submit engine ~uid:1 "SELECT v FROM data WHERE k = 1");
  let d = Engine.delta_stats engine in
  Alcotest.(check int) "no eligible plans when off" 0 d.Engine.eligible_plans;
  Alcotest.(check int) "no bases when off" 0 d.Engine.delta_bases;
  Alcotest.(check int) "no delta evals when off" 0 d.Engine.delta_evals

(* Delta × unification interplay (the ISSUE satellite): a family of
   member policies identical up to literals unifies into one aggregate
   template joining the generated constants table and grouping by the
   constants — so one carried group state, keyed by [dl_consts] rows,
   serves every member. Pinned two ways: the unified engine rides the
   aggregate delta path at 10k members, and a 4-way cross (unification ×
   delta) decides a mixed stream bit-identically. *)

let agg_member uid =
  Printf.sprintf
    "SELECT DISTINCT 'uid %d agg quota' FROM users u WHERE u.uid = %d GROUP \
     BY u.uid HAVING COUNT(*) > 2"
    uid uid

let unified_cfg ~unification ~delta =
  {
    Engine.default_config with
    Engine.time_independent = false;
    relevance = false;
    unification;
    delta;
  }

let test_unified_aggregate_shares_group_state () =
  let _, engine =
    make_engine ~config:(unified_cfg ~unification:true ~delta:true) ()
  in
  let n = 10_000 in
  for i = 1 to n do
    ignore (Engine.add_policy engine ~name:(Printf.sprintf "q%d" i) (agg_member i))
  done;
  submit_ok engine ~uid:1 "warm-up";
  let u = Engine.unify_stats engine in
  Alcotest.(check int) "all members absorbed" n u.Engine.unify_members;
  Alcotest.(check int) "one active policy" 1 u.Engine.unify_active;
  let warm = (Engine.delta_stats engine).Engine.full_evals in
  submit_ok engine ~uid:1 "second";
  submit_ok engine ~uid:7 "uid 7 first";
  submit_ok engine ~uid:7 "uid 7 second";
  (match Engine.submit engine ~uid:7 "SELECT v FROM data WHERE k = 1" with
  | Engine.Rejected ([ m ], _) ->
    Alcotest.(check string) "firing member's message" "uid 7 agg quota" m
  | _ -> Alcotest.fail "uid 7's third submission must be rejected");
  let d = Engine.delta_stats engine in
  Alcotest.(check int) "unified template is the one eligible plan" 1
    d.Engine.eligible_plans;
  Alcotest.(check int) "steady stream adds no full evals" warm
    d.Engine.full_evals;
  Alcotest.(check bool) "member groups share the carried state" true
    (d.Engine.agg_groups >= 2)

let test_unified_aggregate_cross_differential () =
  let uids = List.init 40 (fun i -> i + 1) in
  let stream =
    [ (5, "a"); (50, "b"); (5, "c"); (5, "d"); (5, "e"); (12, "f"); (50, "g") ]
  in
  let run ~unification ~delta =
    let _, engine = make_engine ~config:(unified_cfg ~unification ~delta) () in
    List.iter
      (fun uid ->
        ignore
          (Engine.add_policy engine ~name:(Printf.sprintf "x%d" uid)
             (agg_member uid)))
      uids;
    List.map
      (fun (uid, tag) ->
        match Engine.submit engine ~uid "SELECT v FROM data WHERE k = 1" with
        | Engine.Accepted (r, _) ->
          Printf.sprintf "%s:ok[%s]" tag
            (String.concat ";" (List.map render_row r.Executor.out_rows))
        | Engine.Rejected (ms, _) ->
          Printf.sprintf "%s:REJ[%s]" tag (String.concat ";" ms))
      stream
  in
  let reference = run ~unification:false ~delta:false in
  List.iter
    (fun (unification, delta) ->
      Alcotest.(check (list string))
        (Printf.sprintf "unify=%b delta=%b agrees" unification delta)
        reference
        (run ~unification ~delta))
    [ (false, true); (true, false); (true, true) ]

let suite =
  [
    tc "delta path actually runs on an eligible policy" test_delta_path_runs;
    tc "delta evaluation catches the violating increment"
      test_delta_detects_violation;
    tc "clock/HAVING policies ride the residual branch"
      test_clock_policy_rides_residual;
    tc "aggregate policies carry group state across submissions"
      test_agg_policy_carries_state;
    tc "MIN/MAX aggregates stay on the delta path"
      test_min_max_aggregate_on_delta_path;
    tc "Table-2 workload policies all classify onto delta branches"
      test_table2_policies_all_on_delta_path;
    tc "plain-table mutation invalidates the base" test_plain_mutation_invalidates;
    tc "time-dependent join is eligible under the default config"
      test_time_dependent_join_eligible_under_defaults;
    tc "delta off establishes and evaluates nothing" test_delta_off_counts_nothing;
    tc "unified aggregate members share one carried group state"
      test_unified_aggregate_shares_group_state;
    tc "unification x delta cross decides identically"
      test_unified_aggregate_cross_differential;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_delta_full_identical ]
