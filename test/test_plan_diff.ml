(** Differential tests for the plan pipeline.

    The optimized path (bind → {!Optimizer.optimize} → compile) must be
    observationally equivalent to the naive reference path that compiles
    the binder's output directly: identical output columns and an
    identical multiset of (values, lineage set, source-tid set) rows.
    Rows are compared as multisets because the reference path's
    nested-loop joins can emit matches in a different order than the
    optimized hash joins — the same freedom the SQL semantics give an
    unordered query.

    Also here: regression tests pinning the prepared-plan cache's
    invalidation rules (DDL, [set_config], unification's constants-table
    rebuild), which all flow through the single catalog generation
    counter. *)

open Relational
open Datalawyer
open Test_support

(* Random instances of the two-table schema r(a,b), s(a,c) — NULL-free
   integers, so value comparison is total and aggregation deterministic. *)
let table_rows_gen =
  QCheck.Gen.list_size (QCheck.Gen.int_range 0 20)
    (QCheck.Gen.pair (QCheck.Gen.int_range 0 5) (QCheck.Gen.int_range 0 5))

let db_of_rows rows_r rows_s =
  let db = Database.create () in
  (* Indexes on the generator's predicate columns, so the 500-case
     property also exercises [Index_eq]/[Index_range] access paths: the
     optimized plans probe them, the reference path never does. *)
  ignore
    (Database.exec_script db
       "CREATE TABLE r (a INT, b INT); CREATE TABLE s (a INT, c INT); \
        CREATE INDEX ix_r_a ON r USING hash (a); \
        CREATE INDEX ix_r_b ON r USING sorted (b); \
        CREATE INDEX ix_s_c ON s USING sorted (c)");
  let r = Database.table db "r" and s = Database.table db "s" in
  List.iter
    (fun (a, b) -> ignore (Table.insert r [| Value.Int a; Value.Int b |]))
    rows_r;
  List.iter
    (fun (a, c) -> ignore (Table.insert s [| Value.Int a; Value.Int c |]))
    rows_s;
  db

(* Random query SQL. The shapes cover every operator the compiler emits:
   filtered scans, equi- and theta-joins, self-joins, subquery sources,
   grouping/HAVING, DISTINCT (ON), ORDER BY, LIMIT, UNION (ALL).
   Order-sensitive forms (LIMIT, DISTINCT ON) stay on single-table
   queries, where both paths scan in the same order. *)
let query_gen : string QCheck.Gen.t =
  let open QCheck.Gen in
  let k = int_range (-2) 7 in
  let cmp = oneofl [ "="; "<"; "<="; ">"; ">="; "<>" ] in
  let pred_r =
    oneof
      [
        map2 (fun op c -> Printf.sprintf "r.a %s %d" op c) cmp k;
        map2 (fun op c -> Printf.sprintf "r.b %s %d" op c) cmp k;
        map (fun op -> Printf.sprintf "r.a %s r.b" op) cmp;
        map2 (fun op c -> Printf.sprintf "r.a + r.b %s %d" op c) cmp k;
      ]
  in
  let pred_join =
    oneof
      [
        map (fun op -> Printf.sprintf "r.a %s s.a" op) cmp;
        map2 (fun op c -> Printf.sprintf "s.c %s %d" op c) cmp k;
        map2 (fun op c -> Printf.sprintf "r.b + s.c %s %d" op c) cmp k;
      ]
  in
  let wand preds =
    match List.filter (fun p -> p <> "") preds with
    | [] -> ""
    | ps -> " WHERE " ^ String.concat " AND " ps
  in
  let maybe g = oneof [ return ""; g ] in
  oneof
    [
      (* single table: projections, DISTINCT (ON), ORDER BY, LIMIT *)
      ( maybe pred_r >>= fun p ->
        oneofl
          [
            Printf.sprintf "SELECT * FROM r%s" (wand [ p ]);
            Printf.sprintf "SELECT r.b, r.a FROM r%s ORDER BY a DESC" (wand [ p ]);
            Printf.sprintf "SELECT DISTINCT a FROM r%s" (wand [ p ]);
            Printf.sprintf "SELECT DISTINCT ON (a) a, b FROM r%s" (wand [ p ]);
            Printf.sprintf "SELECT a, a * b AS ab FROM r%s ORDER BY a LIMIT 5"
              (wand [ p ]);
          ] );
      (* equi-join (optimizes to a hash join) plus extra predicates *)
      ( pair (maybe pred_r) (maybe pred_join) >>= fun (p1, p2) ->
        oneofl
          [
            Printf.sprintf "SELECT r.a, r.b, s.c FROM r, s%s"
              (wand [ "r.a = s.a"; p1; p2 ]);
            Printf.sprintf "SELECT * FROM r, s%s" (wand [ "r.a = s.a"; p1 ]);
          ] );
      (* theta-join / cross product (stays a nested loop) *)
      ( pair (maybe pred_r) (maybe pred_join) >>= fun (p1, p2) ->
        oneofl
          [
            Printf.sprintf "SELECT r.a, s.c FROM r, s%s" (wand [ "r.b < s.c"; p1 ]);
            Printf.sprintf "SELECT r.a, s.a FROM r, s%s" (wand [ p1; p2 ]);
          ] );
      (* self-join *)
      ( map2
          (fun op c ->
            Printf.sprintf
              "SELECT x.a, y.b FROM r x, r y WHERE x.a = y.a AND x.b %s %d" op c)
          cmp k );
      (* subquery source joined to a base table *)
      ( map2
          (fun c1 c2 ->
            Printf.sprintf
              "SELECT q.a, s.c FROM (SELECT a, b FROM r WHERE a > %d) q, s \
               WHERE q.a = s.a AND s.c < %d"
              c1 c2)
          k k );
      (* aggregation, single table and over a join *)
      ( pair (maybe pred_r) k >>= fun (p, thr) ->
        oneofl
          [
            Printf.sprintf
              "SELECT a, COUNT(*), SUM(b), MIN(b), MAX(b) FROM r%s GROUP BY a"
              (wand [ p ]);
            Printf.sprintf
              "SELECT a, COUNT(*) AS n FROM r%s GROUP BY a HAVING COUNT(*) > %d \
               ORDER BY a"
              (wand [ p ]) (max 0 thr);
            Printf.sprintf "SELECT COUNT(*), SUM(a + b) FROM r%s" (wand [ p ]);
            Printf.sprintf
              "SELECT r.a, COUNT(*), SUM(s.c) FROM r, s%s GROUP BY r.a"
              (wand [ "r.a = s.a"; p ]);
            Printf.sprintf
              "SELECT COUNT(DISTINCT r.b) FROM r, s%s" (wand [ "r.a = s.a"; p ]);
          ] );
      (* UNION / UNION ALL *)
      ( pair k k >>= fun (c1, c2) ->
        oneofl
          [
            Printf.sprintf
              "SELECT a FROM r WHERE a > %d UNION SELECT a FROM s WHERE a < %d"
              c1 c2;
            Printf.sprintf
              "SELECT a, b FROM r WHERE b <> %d UNION ALL SELECT a, c FROM s \
               WHERE c <> %d"
              c1 c2;
          ] );
    ]

let case_arb =
  QCheck.make
    ~print:(fun (sql, r, s) ->
      Printf.sprintf "%s\n r=%s s=%s" sql
        (String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "(%d,%d)" a b) r))
        (String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "(%d,%d)" a b) s)))
    (QCheck.Gen.triple query_gen table_rows_gen table_rows_gen)

(* Canonical form: multiset of (values, lineage set, source-tid set). *)
let canon (rows : Executor.row_out list) =
  List.sort compare
    (List.map
       (fun (r : Executor.row_out) ->
         ( Array.to_list r.Executor.values,
           List.sort compare r.Executor.lineage,
           List.sort compare r.Executor.src_tids ))
       rows)

let run_both (sql, rows_r, rows_s) =
  let db = db_of_rows rows_r rows_s in
  let cat = Database.catalog db in
  let q = Parser.query sql in
  let opts = { Executor.lineage = true; track_src = true } in
  let o = Executor.run ~opts cat q in
  let u = Executor.run_unoptimized ~opts cat q in
  (o, u)

let prop_diff =
  QCheck.Test.make
    ~name:
      "optimized pipeline = naive reference (rows, lineage, src tids)"
    ~count:500 case_arb
    (fun case ->
      let o, u = run_both case in
      o.Executor.columns = u.Executor.columns
      && canon o.Executor.out_rows = canon u.Executor.out_rows)

(* Vectorized vs row path ------------------------------------------------- *)

(* The vectorized executor must be {e bit-identical} to the row path —
   same rows in the same order, same source tids — because the engine
   treats the two as interchangeable per subtree. So unlike [prop_diff],
   no multiset canonicalization: exact output equality. *)
let canon_exact (rows : Executor.row_out list) =
  List.map
    (fun (r : Executor.row_out) ->
      (Array.to_list r.Executor.values, r.Executor.lineage, r.Executor.src_tids))
    rows

(* NULL-heavy variant of the table generator: a 0 in either column
   becomes NULL (range 0..5, so roughly a third of rows carry one),
   exercising NULL join keys, NULL grouping and three-valued filters
   through the batch operators. *)
let db_of_rows_nullable rows_r rows_s =
  let db = Database.create () in
  ignore
    (Database.exec_script db
       "CREATE TABLE r (a INT, b INT); CREATE TABLE s (a INT, c INT); \
        CREATE INDEX ix_r_a ON r USING hash (a); \
        CREATE INDEX ix_s_c ON s USING sorted (c)");
  let v = function 0 -> Value.Null | n -> Value.Int n in
  let r = Database.table db "r" and s = Database.table db "s" in
  (* one table columnar, one not: joins cross the zero-copy and
     transpose-fallback scan paths in the same plan *)
  ignore (Table.enable_columnar r);
  List.iter (fun (a, b) -> ignore (Table.insert r [| v a; v b |])) rows_r;
  List.iter (fun (a, c) -> ignore (Table.insert s [| v a; v c |])) rows_s;
  db

let run_vec_row ~nullable ~opts (sql, rows_r, rows_s) =
  let db =
    if nullable then db_of_rows_nullable rows_r rows_s
    else db_of_rows rows_r rows_s
  in
  let cat = Database.catalog db in
  let q = Parser.query sql in
  let vec =
    Executor.run_compiled (Executor.prepare ~opts ~vectorized:true cat q)
  in
  let row =
    Executor.run_compiled (Executor.prepare ~opts ~vectorized:false cat q)
  in
  (vec, row)

let vec_props =
  List.map
    (fun (name, nullable, opts) ->
      QCheck.Test.make ~name ~count:500 case_arb (fun case ->
          let vec, row = run_vec_row ~nullable ~opts case in
          vec.Executor.columns = row.Executor.columns
          && canon_exact vec.Executor.out_rows
             = canon_exact row.Executor.out_rows))
    [
      ("vectorized = row path, exact (default opts)", false, Executor.default_opts);
      ( "vectorized = row path, exact (NULL-heavy)",
        true,
        Executor.default_opts );
      ( "vectorized = row path, exact (track_src, NULL-heavy)",
        true,
        { Executor.lineage = false; track_src = true } );
    ]

(* Typed-column generators ------------------------------------------------ *)

(* Dictionary-string variant: both tables mirrored columnar with TEXT
   join keys, so the same strings intern to different codes per table
   and every equi-join crosses two distinct dictionaries. [hi] sets the
   cardinality of the string alphabet: low (4) gives dense overlap
   between the two dictionaries, high (40) makes most codes absent from
   the other side — the remap's "matches nothing" case. A 0 draw
   becomes NULL (code -1). *)
let str_rows_gen hi =
  QCheck.Gen.list_size (QCheck.Gen.int_range 0 20)
    (QCheck.Gen.pair (QCheck.Gen.int_range 0 hi) (QCheck.Gen.int_range 0 5))

let db_of_rows_str rows_r rows_s =
  let db = Database.create () in
  ignore
    (Database.exec_script db
       "CREATE TABLE r (a TEXT, b INT); CREATE TABLE s (a TEXT, c INT); \
        CREATE INDEX ix_r_a ON r USING hash (a)");
  let r = Database.table db "r" and s = Database.table db "s" in
  ignore (Table.enable_columnar r);
  ignore (Table.enable_columnar s);
  let v = function 0 -> Value.Null | n -> Value.Str (Printf.sprintf "k%02d" n) in
  List.iter (fun (a, b) -> ignore (Table.insert r [| v a; Value.Int b |])) rows_r;
  List.iter (fun (a, c) -> ignore (Table.insert s [| v a; Value.Int c |])) rows_s;
  db

(* String predicates: constants drawn wider than the low-cardinality
   alphabet, so Eq/Neq/ordering against a string no dictionary ever
   interned occur regularly (the compile-time absent-code fast path). *)
let str_query_gen : string QCheck.Gen.t =
  let open QCheck.Gen in
  let kc = map (fun n -> Printf.sprintf "'k%02d'" n) (int_range 1 45) in
  let cmp = oneofl [ "="; "<"; "<="; ">"; ">="; "<>" ] in
  oneof
    [
      map2
        (fun op c -> Printf.sprintf "SELECT * FROM r WHERE r.a %s %s" op c)
        cmp kc;
      map
        (fun c -> Printf.sprintf "SELECT DISTINCT a FROM r WHERE r.a <> %s" c)
        kc;
      map2
        (fun op c ->
          Printf.sprintf "SELECT r.b, s.c FROM r, s WHERE r.a = s.a AND s.c %s %d"
            op c)
        cmp (int_range (-2) 7);
      return "SELECT r.b, s.a FROM r, s WHERE r.a = s.a";
      map
        (fun c ->
          Printf.sprintf "SELECT r.b FROM r, s WHERE r.a = s.a AND r.a >= %s" c)
        kc;
      return "SELECT a, COUNT(*), SUM(b) FROM r GROUP BY a";
      return "SELECT a FROM r UNION SELECT a FROM s";
    ]

let print_case (sql, r, s) =
  let rows l =
    String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "(%d,%d)" a b) l)
  in
  Printf.sprintf "%s\n r=%s s=%s" sql (rows r) (rows s)

let str_case_arb hi =
  QCheck.make ~print:print_case
    (QCheck.Gen.triple str_query_gen (str_rows_gen hi) (str_rows_gen hi))

(* Mixed-type variant: the second column of each table is declared FLOAT
   but receives [Value.Int] for even draws, demoting the typed float
   column to the boxed Mixed fallback at runtime. The batch kernels must
   route it through the same [Eval.compare_op] dispatch as the row path,
   including Int/Float cross-type equality against the generator's
   integer constants. Reuses the integer [query_gen] shapes. *)
let db_of_rows_mixed rows_r rows_s =
  let db = Database.create () in
  ignore
    (Database.exec_script db
       "CREATE TABLE r (a INT, b FLOAT); CREATE TABLE s (a INT, c FLOAT); \
        CREATE INDEX ix_r_a ON r USING hash (a); \
        CREATE INDEX ix_r_b ON r USING sorted (b); \
        CREATE INDEX ix_s_c ON s USING sorted (c)");
  let r = Database.table db "r" and s = Database.table db "s" in
  ignore (Table.enable_columnar r);
  ignore (Table.enable_columnar s);
  let v n = if n mod 2 = 0 then Value.Int n else Value.Float (float_of_int n) in
  List.iter
    (fun (a, b) -> ignore (Table.insert r [| Value.Int a; v b |]))
    rows_r;
  List.iter
    (fun (a, c) -> ignore (Table.insert s [| Value.Int a; v c |]))
    rows_s;
  db

let vec_typed_props =
  let prop ~name arb mkdb opts =
    QCheck.Test.make ~name ~count:500 arb (fun (sql, rows_r, rows_s) ->
        let db = mkdb rows_r rows_s in
        let cat = Database.catalog db in
        let q = Parser.query sql in
        let vec =
          Executor.run_compiled (Executor.prepare ~opts ~vectorized:true cat q)
        in
        let row =
          Executor.run_compiled (Executor.prepare ~opts ~vectorized:false cat q)
        in
        vec.Executor.columns = row.Executor.columns
        && canon_exact vec.Executor.out_rows = canon_exact row.Executor.out_rows)
  in
  [
    prop ~name:"vectorized = row path, exact (low-cardinality dict strings)"
      (str_case_arb 4) db_of_rows_str
      { Executor.lineage = false; track_src = true };
    prop ~name:"vectorized = row path, exact (high-cardinality dict strings)"
      (str_case_arb 40) db_of_rows_str Executor.default_opts;
    prop ~name:"vectorized = row path, exact (Mixed demotion, INT into FLOAT)"
      case_arb db_of_rows_mixed Executor.default_opts;
  ]

(* Adapter pins: deterministic cases for each row<->batch boundary. *)

let check_vec_exact ?(opts = Executor.default_opts) db sql =
  let cat = Database.catalog db in
  let q = Parser.query sql in
  let vec = Executor.run_compiled (Executor.prepare ~opts ~vectorized:true cat q) in
  let row = Executor.run_compiled (Executor.prepare ~opts ~vectorized:false cat q) in
  Alcotest.(check (list string)) "columns" row.Executor.columns vec.Executor.columns;
  Alcotest.(check bool) "rows exact" true
    (canon_exact vec.Executor.out_rows = canon_exact row.Executor.out_rows);
  vec

(* Subquery slots compile on the row path and adapt into the batch join;
   the surrounding hash join and DISTINCT run columnar. *)
let test_vec_sub_slot_adapter () =
  let db = sample_db () in
  let vec =
    check_vec_exact db
      "SELECT q.name, d.budget FROM (SELECT name, dept FROM emp WHERE salary \
       > 75) q, dept d WHERE q.dept = d.dname ORDER BY q.name"
  in
  Alcotest.(check bool) "sub-slot join returned rows" true
    (vec.Executor.out_rows <> [])

(* Index probes transpose into batches: probe counters advance and the
   NULL-key gate matches nothing, exactly like the row path. *)
let test_vec_index_adapter () =
  let db = sample_db () in
  ignore
    (Database.exec_script db "CREATE INDEX ix_emp_dept ON emp USING hash (dept)");
  let probes0 = !Executor.index_probes in
  let vec =
    check_vec_exact db "SELECT e.name FROM emp e WHERE e.dept = 'eng'"
  in
  Alcotest.(check bool) "vectorized run probed the index" true
    (!Executor.index_probes > probes0);
  Alcotest.(check bool) "probe returned rows" true (vec.Executor.out_rows <> []);
  let empty =
    check_vec_exact db "SELECT e.name FROM emp e WHERE e.dept = NULL"
  in
  Alcotest.(check int) "NULL key matches nothing" 0
    (List.length empty.Executor.out_rows)

(* Two plans over one scan prefix each scan for themselves: runs in any
   order agree with the row path, and a row inserted between runs shows
   up in the next run of either plan (nothing is materialized across
   runs or across plans). *)
let test_vec_common_prefix_independent () =
  let db = sample_db () in
  let cat = Database.catalog db in
  let sql1 = "SELECT e.name FROM emp e, dept d WHERE e.dept = d.dname" in
  let sql2 = "SELECT e.salary FROM emp e, dept d WHERE e.dept = d.dname" in
  let prep ~vectorized sql =
    Executor.prepare ~vectorized cat (Parser.query sql)
  in
  let q1 = prep ~vectorized:true sql1 and q2 = prep ~vectorized:true sql2 in
  let check_against_row sql (c : Executor.compiled) =
    let vec = Executor.run_compiled c in
    let row = Executor.run_compiled (prep ~vectorized:false sql) in
    Alcotest.(check bool) (sql ^ " = row path") true
      (canon_exact vec.Executor.out_rows = canon_exact row.Executor.out_rows);
    List.length vec.Executor.out_rows
  in
  let n1 = check_against_row sql1 q1 in
  let n2 = check_against_row sql2 q2 in
  Alcotest.(check bool) "prefix joins rows" true (n1 > 0);
  Alcotest.(check int) "same prefix, same cardinality" n1 n2;
  Alcotest.(check int) "re-run after the other plan" n1
    (check_against_row sql1 q1);
  ignore
    (Table.insert (Database.table db "emp")
       [| Value.Int 99; Value.Str "zed"; Value.Str "eng"; Value.Int 1 |]);
  Alcotest.(check int) "new row visible to plan 2" (n2 + 1)
    (check_against_row sql2 q2);
  Alcotest.(check int) "new row visible to plan 1" (n1 + 1)
    (check_against_row sql1 q1)

(* Columnar mirror stays in sync through savepoint rollback — the
   engine's tentative-increment pattern — so a vectorized re-run after a
   rollback must not see the discarded rows. *)
let test_vec_columnar_rollback_sync () =
  let db = sample_db () in
  let cat = Database.catalog db in
  let emp = Database.table db "emp" in
  ignore (Table.enable_columnar emp);
  let count () =
    let r =
      Executor.run_compiled
        (Executor.prepare ~vectorized:true cat
           (Parser.query "SELECT COUNT(*) FROM emp"))
    in
    match r.Executor.out_rows with
    | [ { Executor.values = [| Value.Int n |]; _ } ] -> n
    | _ -> Alcotest.fail "count expected"
  in
  let n0 = count () in
  let sp = Table.savepoint emp in
  ignore
    (Table.insert emp [| Value.Int 99; Value.Str "x"; Value.Str "eng"; Value.Int 1 |]);
  Alcotest.(check int) "tentative row visible" (n0 + 1) (count ());
  Table.rollback_to emp sp;
  Alcotest.(check int) "rollback truncates the mirror" n0 (count ())

(* Cross-dictionary join remap: r and s are mirrored separately, so the
   same strings intern to different codes in each table's dictionary,
   and the probe side carries a string the build side never interned —
   the absent-code case the remap must resolve to "matches nothing". *)
let test_vec_cross_dict_join () =
  let db = Database.create () in
  ignore
    (Database.exec_script db
       "CREATE TABLE r (a TEXT, b INT); CREATE TABLE s (a TEXT, c INT)");
  let r = Database.table db "r" and s = Database.table db "s" in
  ignore (Table.enable_columnar r);
  ignore (Table.enable_columnar s);
  List.iter
    (fun (a, b) -> ignore (Table.insert r [| Value.Str a; Value.Int b |]))
    [ ("beta", 1); ("alpha", 2); ("beta", 3); ("gamma", 4) ];
  List.iter
    (fun (a, c) -> ignore (Table.insert s [| Value.Str a; Value.Int c |]))
    [ ("delta", 10); ("beta", 20); ("alpha", 30); ("beta", 40) ];
  let dict_of t =
    match Table.columnar t with
    | Some store -> (
      match Column.view store 0 with
      | Column.V_str (_, d) -> d
      | _ -> Alcotest.fail "TEXT column expected dictionary-coded")
    | None -> Alcotest.fail "columnar mirror expected"
  in
  let dr = dict_of r and ds = dict_of s in
  Alcotest.(check (option int)) "'beta' coded 0 in r" (Some 0)
    (Column.dict_find dr "beta");
  Alcotest.(check (option int)) "'beta' coded 1 in s" (Some 1)
    (Column.dict_find ds "beta");
  Alcotest.(check (option int)) "'delta' absent from r's dict" None
    (Column.dict_find dr "delta");
  let vec =
    check_vec_exact db
      ~opts:{ Executor.lineage = false; track_src = true }
      "SELECT r.b, s.c FROM r, s WHERE r.a = s.a"
  in
  Alcotest.(check int) "remapped join rows" 5 (List.length vec.Executor.out_rows)

(* Savepoint rollback truncates dictionary-coded rows but keeps the
   interned strings, so codes assigned before the savepoint stay valid
   and a later re-insert reuses the surviving entry. *)
let test_vec_dict_rollback () =
  let db = Database.create () in
  ignore (Database.exec_script db "CREATE TABLE t (a TEXT, b INT)");
  let t = Database.table db "t" in
  let store = Table.enable_columnar t in
  List.iter
    (fun (a, b) -> ignore (Table.insert t [| Value.Str a; Value.Int b |]))
    [ ("read", 1); ("write", 2); ("read", 3) ];
  let sp = Table.savepoint t in
  ignore (Table.insert t [| Value.Str "export"; Value.Int 4 |]);
  let vec = check_vec_exact db "SELECT b FROM t WHERE a = 'export'" in
  Alcotest.(check int) "tentative string row visible" 1
    (List.length vec.Executor.out_rows);
  Table.rollback_to t sp;
  let gone = check_vec_exact db "SELECT b FROM t WHERE a = 'export'" in
  Alcotest.(check int) "rolled-back string matches nothing" 0
    (List.length gone.Executor.out_rows);
  let _, _, entries = Column.layout_stats store in
  Alcotest.(check int) "dictionary keeps the rolled-back entry" 3 entries;
  let keep = check_vec_exact db "SELECT b FROM t WHERE a = 'read'" in
  Alcotest.(check int) "pre-savepoint codes still valid" 2
    (List.length keep.Executor.out_rows);
  ignore (Table.insert t [| Value.Str "export"; Value.Int 5 |]);
  let again = check_vec_exact db "SELECT b FROM t WHERE a = 'export'" in
  (match again.Executor.out_rows with
  | [ { Executor.values = [| Value.Int 5 |]; _ } ] -> ()
  | _ -> Alcotest.fail "re-inserted string should match the surviving code");
  let _, _, entries' = Column.layout_stats store in
  Alcotest.(check int) "re-insert interns nothing new" 3 entries'

(* Destructive deletion rebuilds the mirror from the heap: dictionaries
   come out dense (entries only for surviving strings) and the batch
   path agrees with the row path over the compacted store. *)
let test_vec_compaction_dense_codes () =
  let db = Database.create () in
  ignore (Database.exec_script db "CREATE TABLE t (a TEXT, b INT)");
  let t = Database.table db "t" in
  let store = Table.enable_columnar t in
  List.iter
    (fun (a, b) -> ignore (Table.insert t [| Value.Str a; Value.Int b |]))
    [ ("stale", 1); ("keep", 2); ("stale", 3); ("also", 4); ("keep", 5) ];
  let _, _, entries0 = Column.layout_stats store in
  Alcotest.(check int) "three strings interned" 3 entries0;
  ignore (Table.delete_where t (fun row -> Row.cell row 0 = Value.Str "stale"));
  let _, _, entries1 = Column.layout_stats store in
  Alcotest.(check int) "rebuild drops dead dictionary entries" 2 entries1;
  let vec = check_vec_exact db "SELECT a, b FROM t WHERE a >= 'keep' ORDER BY b" in
  Alcotest.(check int) "ordering over rebuilt codes" 2
    (List.length vec.Executor.out_rows)

(* An INT value stored into a FLOAT column demotes that column to the
   boxed Mixed layout, and the stored value must round-trip as
   [Value.Int] through the batch path (not coerced to Float). The
   heap-refill rebuild re-promotes the column once the stray Int is
   deleted. *)
let test_vec_mixed_demotion () =
  let db = Database.create () in
  ignore (Database.exec_script db "CREATE TABLE t (a INT, f FLOAT)");
  let t = Database.table db "t" in
  let store = Table.enable_columnar t in
  ignore (Table.insert t [| Value.Int 1; Value.Float 1.5 |]);
  let typed0, mixed0, _ = Column.layout_stats store in
  Alcotest.(check (pair int int)) "both columns typed before demotion" (2, 0)
    (typed0, mixed0);
  ignore (Table.insert t [| Value.Int 2; Value.Int 7 |]);
  let typed1, mixed1, _ = Column.layout_stats store in
  Alcotest.(check (pair int int)) "FLOAT column demoted to Mixed" (1, 1)
    (typed1, mixed1);
  let vec = check_vec_exact db "SELECT f FROM t WHERE f > 1 ORDER BY f" in
  (match vec.Executor.out_rows with
  | [ { Executor.values = [| v1 |]; _ }; { Executor.values = [| v2 |]; _ } ] ->
    Alcotest.(check bool) "Float cell survives" true (v1 = Value.Float 1.5);
    Alcotest.(check bool) "Int cell round-trips unboxed" true (v2 = Value.Int 7)
  | _ -> Alcotest.fail "two rows expected");
  ignore (Table.delete_where t (fun row -> Row.cell row 1 = Value.Int 7));
  let typed2, mixed2, _ = Column.layout_stats store in
  Alcotest.(check (pair int int)) "rebuild re-promotes the demoted column"
    (2, 0) (typed2, mixed2)

(* Engine-level differential: with the vectorized executor on and off,
   the same policy workload must produce identical verdicts, violation
   messages and result rows. *)
let test_vec_engine_differential () =
  let run vectorized =
    let db = sample_db () in
    let e =
      Engine.create
        ~config:{ Engine.default_config with Engine.vectorized }
        db
    in
    ignore
      (Engine.add_policy e ~name:"no_mgmt"
         "SELECT DISTINCT 'mgmt data is off limits' FROM users u, emp g \
          WHERE u.uid = g.id AND g.dept = 'mgmt'");
    let render (uid, sql) =
      match Engine.submit e ~uid sql with
      | Engine.Accepted (r, _) ->
        "A["
        ^ String.concat ";"
            (List.map
               (fun (ro : Executor.row_out) ->
                 String.concat ","
                   (Array.to_list (Array.map Value.to_string ro.Executor.values)))
               r.Executor.out_rows)
        ^ "]"
      | Engine.Rejected (msgs, _) -> "R[" ^ String.concat ";" msgs ^ "]"
    in
    let trace =
      List.map render
        [
          (1, "SELECT name FROM emp ORDER BY name");
          (5, "SELECT name FROM emp");
          (2, "SELECT dname, budget FROM dept ORDER BY budget");
          (5, "SELECT COUNT(*) FROM emp");
          (1, "SELECT dept, COUNT(*) FROM emp GROUP BY dept");
        ]
    in
    Engine.close e;
    trace
  in
  let row = run false and vec = run true in
  Alcotest.(check bool) "workload produced both verdicts" true
    (List.exists (fun s -> s.[0] = 'R') row
    && List.exists (fun s -> s.[0] = 'A') row);
  Alcotest.(check (list string)) "verdicts, messages and rows identical" row vec

(* Deterministic spot check with full annotations through a join, so a
   lineage/src-tid regression fails with a readable diff. *)
let test_join_lineage_identical () =
  let db = sample_db () in
  let cat = Database.catalog db in
  let q =
    Parser.query
      "SELECT e.name, d.budget FROM emp e, dept d \
       WHERE e.dept = d.dname AND e.salary > 85"
  in
  let opts = { Executor.lineage = true; track_src = true } in
  let o = Executor.run ~opts cat q in
  let u = Executor.run_unoptimized ~opts cat q in
  Alcotest.(check (list string)) "columns" u.Executor.columns o.Executor.columns;
  Alcotest.(check bool) "rows + lineage + src tids" true
    (canon o.Executor.out_rows = canon u.Executor.out_rows);
  Alcotest.(check int) "join produced rows" 4 (List.length o.Executor.out_rows)

(* Indexed vs heap access: the same query through the optimizer with the
   index present (probes it) and after dropping it (heap scan) must be
   bit-for-bit identical, including provenance. *)
let test_indexed_vs_heap_identical () =
  let db = sample_db () in
  let cat = Database.catalog db in
  ignore
    (Database.exec_script db "CREATE INDEX ix_emp_dept ON emp USING hash (dept)");
  let q =
    Parser.query "SELECT e.name, e.salary FROM emp e WHERE e.dept = 'eng'"
  in
  let opts = { Executor.lineage = true; track_src = true } in
  let probes0 = !Executor.index_probes in
  let indexed = Executor.run ~opts cat q in
  Alcotest.(check bool) "index path actually probed" true
    (!Executor.index_probes > probes0);
  ignore (Database.exec_script db "DROP INDEX ix_emp_dept");
  let heap = Executor.run ~opts cat q in
  let unopt = Executor.run_unoptimized ~opts cat q in
  Alcotest.(check (list string)) "columns" heap.Executor.columns
    indexed.Executor.columns;
  Alcotest.(check bool) "indexed = heap (rows, lineage, src tids)" true
    (canon indexed.Executor.out_rows = canon heap.Executor.out_rows);
  Alcotest.(check bool) "indexed = reference" true
    (canon indexed.Executor.out_rows = canon unopt.Executor.out_rows);
  Alcotest.(check bool) "query returned rows" true
    (indexed.Executor.out_rows <> [])

(* Range access path, bounds from both sides of a BETWEEN. *)
let test_range_index_identical () =
  let db = sample_db () in
  let cat = Database.catalog db in
  ignore
    (Database.exec_script db
       "CREATE INDEX ix_emp_salary ON emp USING sorted (salary)");
  let q =
    Parser.query
      "SELECT e.name FROM emp e WHERE e.salary >= 80 AND e.salary < 95"
  in
  let opts = { Executor.lineage = true; track_src = true } in
  let probes0 = !Executor.index_probes in
  let indexed = Executor.run ~opts cat q in
  Alcotest.(check bool) "range path probed" true
    (!Executor.index_probes > probes0);
  let unopt = Executor.run_unoptimized ~opts cat q in
  Alcotest.(check bool) "range-indexed = reference" true
    (canon indexed.Executor.out_rows = canon unopt.Executor.out_rows);
  Alcotest.(check bool) "range returned rows" true
    (indexed.Executor.out_rows <> [])

(* Prepared-plan cache: DDL invalidation ---------------------------------- *)

let test_prepared_ddl_invalidation () =
  let db = sample_db () in
  let cat = Database.catalog db in
  let prep = Prepared.create cat in
  let q = Parser.query "SELECT COUNT(*) FROM emp" in
  let count () =
    match (Prepared.run prep q).Executor.out_rows with
    | [ { Executor.values = [| Value.Int n |]; _ } ] -> n
    | _ -> Alcotest.fail "count expected"
  in
  Alcotest.(check int) "initial rows" 5 (count ());
  Alcotest.(check int) "second run" 5 (count ());
  Alcotest.(check int) "second run hits the cache" 1 (fst (Prepared.stats prep));
  (* Drop and recreate the table: the cached plan captured the old table
     handle and must not survive. *)
  ignore
    (Database.exec_script db
       "DROP TABLE emp; CREATE TABLE emp (id INT, name TEXT, dept TEXT, \
        salary INT); INSERT INTO emp VALUES (9, 'zoe', 'eng', 70)");
  Alcotest.(check int) "fresh table, fresh plan" 1 (count ())

(* Prepared-plan cache: set_config invalidation (the PR 1 composition
   point — one generation counter serves both the persistence-scope
   recompute and the plan cache). *)

let test_set_config_invalidates_cache () =
  let db = sample_db () in
  let e = Engine.create db in
  ignore
    (Engine.add_policy e ~name:"expensive"
       "SELECT DISTINCT 'mgmt data is off limits' FROM users u, emp g \
        WHERE u.uid = g.id AND g.dept = 'mgmt'");
  let accepted = function Engine.Accepted _ -> true | _ -> false in
  Alcotest.(check bool) "uid 1 accepted" true
    (accepted (Engine.submit e ~uid:1 "SELECT name FROM emp"));
  Alcotest.(check bool) "uid 5 (mgmt) rejected" false
    (accepted (Engine.submit e ~uid:5 "SELECT name FROM emp"));
  let _, misses_before = Engine.plan_cache_stats e in
  (* A warm resubmission compiles nothing new... *)
  ignore (Engine.submit e ~uid:1 "SELECT name FROM emp");
  let hits_warm, misses_warm = Engine.plan_cache_stats e in
  Alcotest.(check int) "warm submission adds no misses" misses_before misses_warm;
  Alcotest.(check bool) "warm submission hits the cache" true (hits_warm > 0);
  (* ...while set_config drops every cached plan, even when the new
     config is behaviourally close to the old one. *)
  Engine.set_config e { Engine.default_config with Engine.strategy = Engine.Serial };
  ignore (Engine.submit e ~uid:1 "SELECT name FROM emp");
  let _, misses_after = Engine.plan_cache_stats e in
  Alcotest.(check bool) "set_config forces recompilation" true
    (misses_after > misses_warm);
  (* And decisions stay correct under the new config. *)
  Alcotest.(check bool) "uid 5 still rejected after set_config" false
    (accepted (Engine.submit e ~uid:5 "SELECT name FROM emp"))

(* Prepared-plan cache: unification's constants-table rebuild. Adding a
   third unifiable policy drops and recreates the dl_constants table; a
   stale compiled plan would keep scanning the dropped two-constant
   table and miss the new member's violation. *)

let test_unify_constants_rebuild_invalidates () =
  let db = sample_db () in
  let e = Engine.create db in
  let member dept =
    ignore
      (Engine.add_policy e ~name:("no_" ^ dept)
         (Printf.sprintf
            "SELECT DISTINCT 'dept %s off limits' FROM users u, emp g \
             WHERE u.uid = g.id AND g.dept = '%s' HAVING COUNT(DISTINCT u.uid) > 0"
            dept dept))
  in
  member "eng";
  member "ops";
  let accepted = function Engine.Accepted _ -> true | _ -> false in
  (* uid 5 is mgmt: accepted, and the unified eng/ops plan is now warm. *)
  Alcotest.(check bool) "mgmt uid accepted with eng/ops policies" true
    (accepted (Engine.submit e ~uid:5 "SELECT name FROM emp"));
  Alcotest.(check bool) "eng uid rejected" false
    (accepted (Engine.submit e ~uid:1 "SELECT name FROM emp"));
  member "mgmt";
  Alcotest.(check bool) "third member enforced immediately" false
    (accepted (Engine.submit e ~uid:5 "SELECT name FROM emp"))

(* Warm resubmission of the same workload compiles nothing new. *)
let test_cache_steady_state () =
  let db = sample_db () in
  let e = Engine.create db in
  ignore
    (Engine.add_policy e ~name:"p"
       "SELECT DISTINCT 'no ops data' FROM users u, emp g \
        WHERE u.uid = g.id AND g.dept = 'ops'");
  ignore (Engine.submit e ~uid:1 "SELECT name FROM emp");
  ignore (Engine.submit e ~uid:1 "SELECT name FROM emp");
  let _, misses = Engine.plan_cache_stats e in
  ignore (Engine.submit e ~uid:1 "SELECT name FROM emp");
  ignore (Engine.submit e ~uid:2 "SELECT salary FROM emp WHERE id = 1");
  ignore (Engine.submit e ~uid:1 "SELECT name FROM emp");
  let _, misses' = Engine.plan_cache_stats e in
  (* Only the one new user query should have compiled. *)
  Alcotest.(check int) "steady state compiles only new queries" (misses + 1)
    misses'

let suite =
  List.map QCheck_alcotest.to_alcotest (prop_diff :: (vec_props @ vec_typed_props))
  @ [
      tc "vectorized: sub-slot adapter" test_vec_sub_slot_adapter;
      tc "vectorized: index probe adapter" test_vec_index_adapter;
      tc "vectorized: common-prefix plans scan independently"
        test_vec_common_prefix_independent;
      tc "vectorized: columnar rollback sync" test_vec_columnar_rollback_sync;
      tc "vectorized: cross-dict join remap" test_vec_cross_dict_join;
      tc "vectorized: dictionary rollback keeps codes" test_vec_dict_rollback;
      tc "vectorized: compaction re-interns dense codes"
        test_vec_compaction_dense_codes;
      tc "vectorized: Mixed demotion round-trips INT" test_vec_mixed_demotion;
      tc "vectorized: engine verdict differential" test_vec_engine_differential;
      tc "join lineage identical across paths" test_join_lineage_identical;
      tc "indexed access = heap access, bit for bit" test_indexed_vs_heap_identical;
      tc "range index = reference" test_range_index_identical;
      tc "prepared cache: DDL invalidates" test_prepared_ddl_invalidation;
      tc "prepared cache: set_config invalidates" test_set_config_invalidates_cache;
      tc "prepared cache: unify constants rebuild" test_unify_constants_rebuild_invalidates;
      tc "prepared cache: steady state" test_cache_steady_state;
    ]
