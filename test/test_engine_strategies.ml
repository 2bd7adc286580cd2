(* Strategy-specific engine behaviour: union message mapping, serial vs
   interleaved call counts, improved-partial pruning, preemptive
   generation skipping, and a long-horizon equivalence stream. *)

open Datalawyer
open Test_support

let base_db () =
  db_of_script
    {|
    CREATE TABLE data (k INT, v TEXT);
    INSERT INTO data VALUES (1, 'a'), (2, 'b'), (3, 'c')
    |}

let accepted = function Engine.Accepted _ -> true | Engine.Rejected _ -> false
let messages = function Engine.Rejected (ms, _) -> ms | Engine.Accepted _ -> []

let always_fires name =
  Printf.sprintf "SELECT DISTINCT '%s fired' FROM users u WHERE u.uid = 1" name

let test_union_reports_every_violation () =
  let db = base_db () in
  let e =
    Engine.create
      ~config:{ Engine.noopt_config with Engine.strategy = Engine.Union_all }
      db
  in
  ignore (Engine.add_policy e ~name:"a" (always_fires "a"));
  ignore (Engine.add_policy e ~name:"b" (always_fires "b"));
  let r = Engine.submit e ~uid:1 "SELECT v FROM data WHERE k = 1" in
  Alcotest.(check (slist string compare)) "both messages via union"
    [ "a fired"; "b fired" ] (messages r);
  Alcotest.(check int) "single policy call" 1 (Engine.stats_of r).Stats.policy_calls

let test_serial_counts_calls () =
  let db = base_db () in
  let e =
    Engine.create ~config:{ Engine.noopt_config with Engine.strategy = Engine.Serial } db
  in
  for k = 1 to 4 do
    ignore
      (Engine.add_policy e
         ~name:(Printf.sprintf "p%d" k)
         (Printf.sprintf "SELECT DISTINCT 'p%d' FROM users u WHERE u.uid = 99" k))
  done;
  match Engine.submit e ~uid:1 "SELECT v FROM data WHERE k = 1" with
  | Engine.Accepted (_, st) ->
    Alcotest.(check int) "one call per policy" 4 st.Stats.policy_calls
  | Engine.Rejected _ -> Alcotest.fail "no policy applies to uid 1"

let test_improved_partial_prunes_committed_window () =
  (* A window policy whose partial stays non-empty because of committed
     rows: improved-partial must still prune it for a different user,
     avoiding provenance generation. *)
  let db = base_db () in
  let config =
    { Engine.default_config with Engine.unification = false; preemptive = false }
  in
  let e = Engine.create ~config db in
  ignore
    (Engine.add_policy e ~name:"win"
       "SELECT DISTINCT 'window quota' FROM provenance p, users u, clock c \
        WHERE p.ts = u.ts AND u.uid = 1 AND p.irid = 'data' AND p.ts > c.ts \
        - 50 HAVING COUNT(DISTINCT p.itid) > 100");
  (* uid 1 creates committed window content *)
  ignore (Engine.submit e ~uid:1 "SELECT v FROM data");
  let prov_before = Engine.log_size e "provenance" in
  Alcotest.(check bool) "uid 1 logged provenance" true (prov_before > 0);
  (* uid 2: the users-partial is non-empty (uid 1's committed rows are in
     the window) but independent of the increment -> pruned *)
  (match Engine.submit e ~uid:2 "SELECT v FROM data" with
  | Engine.Accepted (_, st) ->
    Alcotest.(check bool) "pruned cheaply" true (st.Stats.policy_calls <= 2);
    Alcotest.(check int) "no new provenance for uid 2" prov_before
      (Engine.log_size e "provenance")
  | Engine.Rejected _ -> Alcotest.fail "uid 2 must pass");
  (* with improved-partial off, the loop continues to provenance *)
  Engine.set_config e { config with Engine.improved_partial = false };
  match Engine.submit e ~uid:2 "SELECT v FROM data" with
  | Engine.Accepted (_, st) ->
    Alcotest.(check bool) "without the optimization, more work" true
      (st.Stats.policy_calls >= 2)
  | Engine.Rejected _ -> Alcotest.fail "uid 2 must still pass"

let test_preemptive_skips_generation () =
  let db = base_db () in
  let on = { Engine.default_config with Engine.unification = false } in
  let e = Engine.create ~config:on db in
  ignore
    (Engine.add_policy e ~name:"win"
       "SELECT DISTINCT 'window quota' FROM provenance p, users u, clock c \
        WHERE p.ts = u.ts AND u.uid = 1 AND p.irid = 'data' AND p.ts > c.ts \
        - 50 HAVING COUNT(DISTINCT p.itid) > 100");
  (* uid 2 only: witness can never retain anything (uid = 1 filter), so
     the provenance increment is never generated *)
  (match Engine.submit e ~uid:2 "SELECT v FROM data" with
  | Engine.Accepted _ -> ()
  | Engine.Rejected _ -> Alcotest.fail "must pass");
  Alcotest.(check int) "provenance never generated" 0
    (Engine.log_size e "provenance")

let test_invalid_query_leaves_engine_usable () =
  (* A user query that fails inside the provenance function (unknown
     table) must revert the tentative log and leave the engine healthy. *)
  let db = base_db () in
  let e = Engine.create db in
  ignore
    (Engine.add_policy e ~name:"win"
       "SELECT DISTINCT 'q' FROM provenance p, users u, clock c WHERE p.ts = \
        u.ts AND p.ts > c.ts - 50 HAVING COUNT(DISTINCT p.itid) > 1000");
  let before = Engine.log_size e "users" in
  (match Engine.submit e ~uid:1 "SELECT x FROM no_such_table" with
  | exception Relational.Errors.Sql_error (Relational.Errors.Catalog_error, _) -> ()
  | _ -> Alcotest.fail "invalid query must raise");
  Alcotest.(check int) "log reverted after failure" before (Engine.log_size e "users");
  (* the engine still works afterwards *)
  Alcotest.(check bool) "subsequent query fine" true
    (accepted (Engine.submit e ~uid:1 "SELECT v FROM data WHERE k = 1"));
  (match Engine.submit e ~uid:1 "SELECT nope FROM data" with
  | exception Relational.Errors.Sql_error (Relational.Errors.Bind_error, _) -> ()
  | _ -> Alcotest.fail "bad column must raise");
  Alcotest.(check bool) "still fine after bind error" true
    (accepted (Engine.submit e ~uid:1 "SELECT v FROM data WHERE k = 2"))

let test_long_horizon_equivalence () =
  (* 200 queries with tight thresholds: NoOpt and DataLawyer must agree on
     every decision, and the optimized log must stay bounded. *)
  let mimic = { Mimic.Generate.small_config with n_patients = 40; events_per_patient = 5 } in
  let params =
    {
      Workload.Policies.default_params with
      p1_window = 5;
      p1_max_users = 2;
      p5_window = 8;
      p5_max_fraction = 0.6;
      p6_window = 6;
      p6_max_uses = 4;
    }
  in
  let stream =
    List.init 200 (fun k -> ((k * 7) mod 5, [ "W1"; "W2"; "W1"; "W3"; "W1" ] |> fun l -> List.nth l (k mod 5)))
  in
  let run config =
    let s = Workload.Runner.make ~mimic ~params ~config () in
    let decisions =
      List.map
        (fun (uid, qn) ->
          let q = Workload.Runner.query s qn in
          accepted (Engine.submit s.Workload.Runner.engine ~uid q.Workload.Queries.sql))
        stream
    in
    (decisions, Engine.log_size s.Workload.Runner.engine "users"
                + Engine.log_size s.Workload.Runner.engine "provenance")
  in
  let d_noopt, sz_noopt = run Engine.noopt_config in
  let d_full, sz_full = run Engine.default_config in
  Alcotest.(check (list bool)) "200 decisions agree" d_noopt d_full;
  Alcotest.(check bool)
    (Printf.sprintf "log bounded (%d vs %d)" sz_full sz_noopt)
    true
    (sz_full * 5 < sz_noopt)

let suite =
  [
    tc "union reports every violation" test_union_reports_every_violation;
    tc "serial counts calls" test_serial_counts_calls;
    tc "improved partial prunes committed window" test_improved_partial_prunes_committed_window;
    tc "preemptive skips generation" test_preemptive_skips_generation;
    tc "invalid query leaves engine usable" test_invalid_query_leaves_engine_usable;
    Alcotest.test_case "long-horizon equivalence (200 queries)" `Slow
      test_long_horizon_equivalence;
  ]
