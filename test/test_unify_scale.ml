(* Differential property tests for the scale machinery: n-way template
   unification (one shape, many lifted constants), the policy relevance
   index and batched admission. The same scripted workload —
   submissions, admission batches, mid-stream policy registration, DDL,
   plain-table DML — must produce identical verdicts, violation-message
   SETS, accepted rows and final log contents with the optimizations on
   (unification + relevance, delta on or off) and with
   the fully unrolled naive configuration (everything off). Messages
   are compared as sorted sets: a unified policy reports its firing
   members in constants-table row order, the unrolled set in
   registration order. Deterministic pins then check the machinery
   actually engages — groups form, skips happen, skipped policies fire
   again after the exact mutations that invalidate their proofs — since
   the differential property alone would pass if everything silently
   fell back. *)

open Relational
open Datalawyer

let tc = Test_support.tc

(* Scripted operations ------------------------------------------------------ *)

type op =
  | Submit of int * int  (** uid, query index *)
  | Batch of (int * int) list  (** concurrent admission batch *)
  | Register of int  (** policy-template index *)
  | Ddl of int  (** DDL-statement index: bumps the catalog generation *)
  | Mutate of int  (** plain-table DML index: bumps version counters *)

let queries =
  [|
    "SELECT v FROM data WHERE k = 1";
    "SELECT k, v FROM data";
    "SELECT COUNT(*) FROM data";
    "SELECT d.v FROM data d, data e WHERE d.k = e.k AND e.v = 'b'";
  |]

let per_uid uid =
  Templates.no_access ~relation:"data" ~subject:(Templates.User uid)
    ~message:(Printf.sprintf "uid %d off data" uid)
    ()

(* Three same-shape per-user prohibitions (unification folds them into
   one policy + constants table, with the message among the lifted
   literals), a plain-table join (relevance enumerates [banned.uid] and
   guards it, so the [banned] mutations below must re-fire it) and a
   clock/HAVING quota (ineligible for both unification's SPJ rewrite
   paths and the relevance index — the fallback path must agree too). *)
let templates =
  [|
    per_uid 1;
    per_uid 2;
    per_uid 3;
    "SELECT DISTINCT 'banned uid' FROM users u, banned b WHERE u.uid = b.uid";
    "SELECT DISTINCT 'quota uid 2' FROM users u, clock c WHERE u.uid = 2 AND \
     u.ts > c.ts - 4 HAVING COUNT(DISTINCT u.ts) > 2";
  |]

let ddls =
  [|
    "CREATE INDEX us_users_uid ON users USING hash (uid)";
    "DROP INDEX us_users_uid";
    "CREATE INDEX us_data_k ON data USING sorted (k)";
    "DROP INDEX us_data_k";
  |]

(* The [banned] flips change template 3's verdict for uid 2; a stale
   relevance enumeration or missed version guard keeps skipping the
   policy and fails the diff. *)
let mutations =
  [|
    "INSERT INTO banned VALUES (2)";
    "DELETE FROM banned WHERE uid = 2";
    "UPDATE data SET v = 'z' WHERE k = 2";
    "INSERT INTO data VALUES (9, 'i')";
  |]

type script = {
  strategy : Engine.strategy;
  ti : bool;
  delta : bool;  (** same in both legs: crossed with the scaled stack *)
  compaction : bool;
  initial : int list;
  ops : op list;
}

(* Deterministic rendering of one engine run ------------------------------- *)

let render_row (r : Executor.row_out) =
  String.concat ","
    (Array.to_list (Array.map Value.to_string r.Executor.values))

(* Message SETS: exact-duplicate policies collapse under unification, so
   the naive run may repeat a message the unified run reports once. *)
let render_messages messages =
  String.concat "; " (List.sort_uniq compare messages)

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

let run_script ~scaled script =
  let config =
    {
      Engine.default_config with
      Engine.strategy = script.strategy;
      time_independent = script.ti;
      log_compaction = script.compaction;
      preemptive = false;
      delta = script.delta;
      unification = scaled;
      relevance = scaled;
    }
  in
  let db = Database.create () in
  ignore
    (Database.exec_script db
       "CREATE TABLE data (k INT, v TEXT); INSERT INTO data VALUES (1, 'a'), \
        (2, 'b'), (3, 'c'); CREATE TABLE banned (uid INT); INSERT INTO \
        banned VALUES (9)");
  let engine = Engine.create ~config db in
  List.iteri
    (fun i ti ->
      ignore
        (Engine.add_policy engine ~name:(Printf.sprintf "p%d" i) templates.(ti)))
    script.initial;
  let render_outcome = function
    | Engine.Accepted (result, _) ->
      Printf.sprintf "accepted [%s]"
        (String.concat "; " (List.map render_row result.Executor.out_rows))
    | Engine.Rejected (messages, _) ->
      Printf.sprintf "REJECTED [%s]" (render_messages messages)
  in
  let step op =
    try
      match op with
      | Register ti ->
        let n = List.length (Engine.policies engine) in
        let name = Printf.sprintf "p%d" n in
        ignore (Engine.add_policy engine ~name templates.(ti));
        Printf.sprintf "register %s := template %d" name ti
      | Submit (uid, qi) ->
        Printf.sprintf "uid %d q%d %s" uid qi
          (render_outcome (Engine.submit engine ~uid queries.(qi)))
      | Batch members ->
        let subs =
          List.map
            (fun (uid, qi) ->
              {
                Engine.batch_uid = uid;
                batch_extra = [];
                batch_query = Parser.query queries.(qi);
              })
            members
        in
        Engine.submit_batch engine subs
        |> List.map (function
             | Ok outcome -> render_outcome outcome
             | Error e -> "exn " ^ Printexc.to_string e)
        |> String.concat " | "
        |> Printf.sprintf "batch (%s)"
      | Ddl di -> (
        match Dml.exec (Database.catalog db) (Parser.stmt ddls.(di)) with
        | Dml.Created what -> Printf.sprintf "ddl %d created %s" di what
        | Dml.Dropped what -> Printf.sprintf "ddl %d dropped %s" di what
        | Dml.Affected n -> Printf.sprintf "ddl %d affected %d" di n
        | Dml.Rows _ -> Printf.sprintf "ddl %d rows" di)
      | Mutate mi -> (
        match Dml.exec (Database.catalog db) (Parser.stmt mutations.(mi)) with
        | Dml.Affected n -> Printf.sprintf "mutate %d affected %d" mi n
        | _ -> Printf.sprintf "mutate %d" mi)
    with Errors.Sql_error _ as e -> "error: " ^ Errors.to_string e
  in
  let trace = List.map step script.ops in
  let logs = dump_logs engine in
  Engine.close engine;
  trace @ logs

(* Generator ----------------------------------------------------------------- *)

let script_gen : script QCheck.Gen.t =
  let open QCheck.Gen in
  let member = pair (int_range 1 3) (int_range 0 (Array.length queries - 1)) in
  let op_gen =
    frequency
      [
        (7, map (fun (uid, qi) -> Submit (uid, qi)) member);
        (2, map (fun ms -> Batch ms) (list_size (int_range 2 3) member));
        (1, map (fun ti -> Register ti) (int_range 0 (Array.length templates - 1)));
        (1, map (fun di -> Ddl di) (int_range 0 (Array.length ddls - 1)));
        (1, map (fun mi -> Mutate mi) (int_range 0 (Array.length mutations - 1)));
      ]
  in
  let* strategy = oneofl [ Engine.Union_all; Engine.Serial; Engine.Interleaved ] in
  let* ti = bool in
  let* delta = bool in
  let* compaction = bool in
  let* initial =
    list_size (int_range 0 4) (int_range 0 (Array.length templates - 1))
  in
  let+ ops = list_size (int_range 1 14) op_gen in
  { strategy; ti; delta; compaction; initial; ops }

let print_script s =
  Printf.sprintf
    "strategy=%s ti=%b delta=%b comp=%b initial=[%s] ops=[%s]"
    (match s.strategy with
    | Engine.Union_all -> "union"
    | Engine.Serial -> "serial"
    | Engine.Interleaved -> "interleaved")
    s.ti s.delta s.compaction
    (String.concat ";" (List.map string_of_int s.initial))
    (String.concat ";"
       (List.map
          (function
            | Submit (u, q) -> Printf.sprintf "S%d.%d" u q
            | Batch ms ->
              Printf.sprintf "B(%s)"
                (String.concat ","
                   (List.map (fun (u, q) -> Printf.sprintf "%d.%d" u q) ms))
            | Register t -> Printf.sprintf "R%d" t
            | Ddl d -> Printf.sprintf "D%d" d
            | Mutate m -> Printf.sprintf "M%d" m)
          s.ops))

let script_arb = QCheck.make ~print:print_script script_gen

let prop_scaled_naive_identical =
  QCheck.Test.make
    ~name:"unified+relevance and naive unrolled agree" ~count:200
    script_arb
    (fun script -> run_script ~scaled:false script = run_script ~scaled:true script)

(* Deterministic pins -------------------------------------------------------- *)

(* Everything pinned explicitly — not inherited from DL_UNIFY / DL_DELTA
   — so the cases assert under any environment. TI is off
   so the skip pins exercise the based path (valid proved-empty base +
   blocked slots); the TI-pinned baseless path has its own pin below. *)
let scale_cfg =
  {
    Engine.default_config with
    Engine.time_independent = false;
    delta = true;
    unification = true;
    relevance = true;
  }

let make_engine ?(config = scale_cfg) () =
  let db = Database.create () in
  ignore
    (Database.exec_script db
       "CREATE TABLE data (k INT, v TEXT); INSERT INTO data VALUES (1, 'a'); \
        CREATE TABLE banned (uid INT); INSERT INTO banned VALUES (9)");
  (db, Engine.create ~config db)

let test_unification_groups_form () =
  let _, engine = make_engine () in
  List.iter
    (fun (name, sql) -> ignore (Engine.add_policy engine ~name sql))
    (Templates.per_user ~name_prefix:"noacc" ~uids:(List.init 50 (fun i -> i + 1))
       (fun ~subject -> Templates.no_access ~relation:"data" ~subject ()));
  let u = Engine.unify_stats engine in
  Alcotest.(check int) "registered" 50 u.Engine.unify_registered;
  Alcotest.(check int) "one group" 1 u.Engine.unify_groups;
  Alcotest.(check int) "all members absorbed" 50 u.Engine.unify_members;
  Alcotest.(check int) "one active policy" 1 u.Engine.unify_active;
  (match Engine.submit engine ~uid:7 "SELECT v FROM data WHERE k = 1" with
  | Engine.Rejected ([ m ], _) ->
    Alcotest.(check string) "member message" "data is off-limits" m
  | _ -> Alcotest.fail "uid 7 must be rejected");
  match Engine.submit engine ~uid:60 "SELECT v FROM data WHERE k = 1" with
  | Engine.Accepted _ -> ()
  | Engine.Rejected _ -> Alcotest.fail "uid 60 is not a member"

let test_unified_member_message () =
  (* the lifted message column must surface exactly the firing member's
     message, not the template's *)
  let _, engine = make_engine () in
  List.iteri
    (fun i uid ->
      ignore (Engine.add_policy engine ~name:(Printf.sprintf "m%d" i) (per_uid uid)))
    [ 1; 2; 3 ];
  match Engine.submit engine ~uid:2 "SELECT v FROM data WHERE k = 1" with
  | Engine.Rejected ([ m ], _) ->
    Alcotest.(check string) "uid 2's message" "uid 2 off data" m
  | _ -> Alcotest.fail "uid 2 must be rejected"

let test_relevance_skips_unrelated_uid () =
  let _, engine = make_engine () in
  List.iteri
    (fun i uid ->
      ignore (Engine.add_policy engine ~name:(Printf.sprintf "m%d" i) (per_uid uid)))
    [ 2; 3; 4 ];
  (* first accepted submission establishes the base... *)
  (match Engine.submit engine ~uid:1 "SELECT v FROM data WHERE k = 1" with
  | Engine.Accepted _ -> ()
  | Engine.Rejected _ -> Alcotest.fail "uid 1 must pass");
  let before = (Engine.relevance_stats engine).Engine.rel_skips in
  (* ...then uid 1's increment binds no slot of the unified uid∈{2,3,4}
     policy: it must be skipped without evaluation *)
  (match Engine.submit engine ~uid:1 "SELECT v FROM data WHERE k = 1" with
  | Engine.Accepted _ -> ()
  | Engine.Rejected _ -> Alcotest.fail "uid 1 must still pass");
  let after = (Engine.relevance_stats engine).Engine.rel_skips in
  Alcotest.(check bool) "the policy was skipped" true (after > before);
  (* a member uid's increment matches the enumerated filter: no skip,
     the policy fires with the right member message *)
  match Engine.submit engine ~uid:3 "SELECT v FROM data WHERE k = 1" with
  | Engine.Rejected ([ m ], _) ->
    Alcotest.(check string) "uid 3's message" "uid 3 off data" m
  | _ -> Alcotest.fail "uid 3 must be rejected"

let test_relevance_skips_time_independent () =
  (* Under TI rewriting (the default config) the policy is pinned to the
     current clock tick, so the index needs no base at all: even the
     very first admission skips, and the clock dependency bumping every
     tick doesn't disable the index. *)
  let _, engine =
    make_engine ~config:{ scale_cfg with Engine.time_independent = true } ()
  in
  List.iteri
    (fun i uid ->
      ignore (Engine.add_policy engine ~name:(Printf.sprintf "m%d" i) (per_uid uid)))
    [ 2; 3; 4 ];
  (match Engine.submit engine ~uid:1 "SELECT v FROM data WHERE k = 1" with
  | Engine.Accepted _ -> ()
  | Engine.Rejected _ -> Alcotest.fail "uid 1 must pass");
  let r = Engine.relevance_stats engine in
  Alcotest.(check bool) "skipped without a base" true (r.Engine.rel_skips > 0);
  match Engine.submit engine ~uid:3 "SELECT v FROM data WHERE k = 1" with
  | Engine.Rejected ([ m ], _) ->
    Alcotest.(check string) "uid 3's message" "uid 3 off data" m
  | _ -> Alcotest.fail "uid 3 must be rejected"

let test_relevance_refires_after_mutation () =
  let db, engine = make_engine () in
  ignore (Engine.add_policy engine ~name:"banned" templates.(3));
  ignore (Engine.submit engine ~uid:2 "SELECT v FROM data WHERE k = 1");
  let before = (Engine.relevance_stats engine).Engine.rel_skips in
  ignore (Engine.submit engine ~uid:2 "SELECT v FROM data WHERE k = 1");
  let after = (Engine.relevance_stats engine).Engine.rel_skips in
  Alcotest.(check bool) "uid 2 skipped while not banned" true (after > before);
  (* the mutation bumps [banned]'s version: the enumeration guard and
     the base both go stale, and the policy must fire *)
  ignore
    (Dml.exec (Database.catalog db) (Parser.stmt "INSERT INTO banned VALUES (2)"));
  match Engine.submit engine ~uid:2 "SELECT v FROM data WHERE k = 1" with
  | Engine.Rejected ([ m ], _) -> Alcotest.(check string) "message" "banned uid" m
  | _ -> Alcotest.fail "uid 2 must be rejected after the banned insert"

let test_relevance_refires_after_policy_change () =
  let _, engine = make_engine () in
  ignore (Engine.add_policy engine ~name:"first" (per_uid 9));
  ignore (Engine.submit engine ~uid:1 "SELECT v FROM data WHERE k = 1");
  ignore (Engine.submit engine ~uid:1 "SELECT v FROM data WHERE k = 1");
  (* registering uid 1's prohibition bumps the plan generation: the old
     proofs are dead and the new policy must catch uid 1's NEXT
     submission (its own registration point is its history start) *)
  ignore (Engine.add_policy engine ~name:"second" (per_uid 1));
  match Engine.submit engine ~uid:1 "SELECT v FROM data WHERE k = 1" with
  | Engine.Rejected ([ m ], _) ->
    Alcotest.(check string) "message" "uid 1 off data" m
  | _ -> Alcotest.fail "uid 1 must be rejected after registration"

let test_relevance_off_counts_nothing () =
  let _, engine =
    make_engine ~config:{ scale_cfg with Engine.relevance = false } ()
  in
  ignore (Engine.add_policy engine ~name:"m" (per_uid 2));
  ignore (Engine.submit engine ~uid:1 "SELECT v FROM data WHERE k = 1");
  ignore (Engine.submit engine ~uid:1 "SELECT v FROM data WHERE k = 1");
  let r = Engine.relevance_stats engine in
  Alcotest.(check int) "no checks when off" 0 r.Engine.rel_checks;
  Alcotest.(check int) "no skips when off" 0 r.Engine.rel_skips

let test_common_prefix_policies () =
  (* two policies over the same log-scan prefix: each is its own plan —
     one fires without dragging the other along, a warm resubmission
     compiles nothing, and no scan is shared between them *)
  let _, engine =
    make_engine ~config:{ scale_cfg with Engine.delta = false } ()
  in
  ignore
    (Engine.add_policy engine ~name:"a"
       "SELECT DISTINCT 'a' FROM users u, schema s WHERE u.ts = s.ts AND \
        s.irid = 'never'");
  ignore
    (Engine.add_policy engine ~name:"b"
       "SELECT DISTINCT 'b' FROM users u, provenance p WHERE u.ts = p.ts AND \
        p.irid = 'data' AND u.uid = 4");
  let q = "SELECT v FROM data WHERE k = 1" in
  (match Engine.submit engine ~uid:1 q with
  | Engine.Accepted _ -> ()
  | Engine.Rejected (ms, _) -> Alcotest.fail (String.concat "; " ms));
  let hits, misses = Engine.plan_cache_stats engine in
  Alcotest.(check bool) "plans compiled" true (misses > 0);
  ignore (Engine.submit engine ~uid:1 q);
  let hits', misses' = Engine.plan_cache_stats engine in
  Alcotest.(check int) "warm resubmission compiles nothing" misses misses';
  Alcotest.(check bool) "warm resubmission hits" true (hits' > hits);
  (match Engine.submit engine ~uid:4 q with
  | Engine.Rejected (ms, _) ->
    Alcotest.(check (list string)) "only b fires" [ "b" ] ms
  | Engine.Accepted _ -> Alcotest.fail "uid 4 must be rejected");
  Alcotest.(check (pair int int)) "no shared scans" (0, 0)
    (Engine.shared_scan_stats engine)

let test_batch_everything_on () =
  (* the server's fast path (submit_batch), delta, unification and
     relevance composed: verdicts must match the one-at-a-time
     semantics *)
  let _, engine = make_engine () in
  List.iteri
    (fun i uid ->
      ignore (Engine.add_policy engine ~name:(Printf.sprintf "m%d" i) (per_uid uid)))
    [ 2; 3 ];
  let subs =
    List.map
      (fun uid ->
        {
          Engine.batch_uid = uid;
          batch_extra = [];
          batch_query = Parser.query "SELECT v FROM data WHERE k = 1";
        })
      [ 1; 2; 1 ]
  in
  (match Engine.submit_batch engine subs with
  | [ Ok (Engine.Accepted _); Ok (Engine.Rejected ([ m ], _)); Ok (Engine.Accepted _) ]
    -> Alcotest.(check string) "uid 2's message" "uid 2 off data" m
  | _ -> Alcotest.fail "batch must be accept/reject/accept");
  Engine.close engine

let suite =
  [
    tc "per-user instances unify into one group" test_unification_groups_form;
    tc "unified policy reports the firing member's message"
      test_unified_member_message;
    tc "relevance index skips the policy an unrelated uid cannot fire"
      test_relevance_skips_unrelated_uid;
    tc "TI-pinned policies skip without a base"
      test_relevance_skips_time_independent;
    tc "skipped policy fires again after a plain-table mutation"
      test_relevance_refires_after_mutation;
    tc "skipped policy fires again after a policy-set change"
      test_relevance_refires_after_policy_change;
    tc "relevance off checks and skips nothing" test_relevance_off_counts_nothing;
    tc "policies over a common scan prefix evaluate separately"
      test_common_prefix_policies;
    tc "batch fast path composes with the full scale stack"
      test_batch_everything_on;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_scaled_naive_identical ]
