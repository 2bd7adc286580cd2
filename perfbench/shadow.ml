(** Shadow calls: after a traced submission the benchmark repeats, on
    the same state, the layer calls the engine made inside it, so each
    layer's cost is timed from outside the engine:

    - [Usage_log.provenance.generate] on a context built here (lineage);
    - [Table.insert] of that increment into a scratch provenance table,
      then [Table.rollback_to] (log-table upkeep). The scratch table
      carries the engine's log indexes — [ts] sorted, [uid] hashed where
      the relation has one — and a columnar mirror. *)

open Relational
open Datalawyer

type t = { db : Database.t; scratch : Table.t }

let create db =
  let g = Usage_log.provenance in
  let scratch =
    Table.create ~name:"perfbench_provenance" ~schema:(Schema.make (Usage_log.full_schema g))
  in
  let cols = List.map fst (Usage_log.full_schema g) in
  ignore (Table.create_index scratch ~name:"perfbench_ix_ts" ~column:"ts" ~kind:Index.Sorted);
  if List.mem "uid" cols then
    ignore (Table.create_index scratch ~name:"perfbench_ix_uid" ~column:"uid" ~kind:Index.Hash);
  ignore (Table.enable_columnar scratch);
  (* Start from the engine's committed provenance rows, so index buckets
     and the mirror hold what the engine's table holds. *)
  Table.bulk_load scratch
    (Table.fold (fun acc row -> Row.cells row :: acc) [] (Database.table db g.Usage_log.relation));
  { db; scratch }

type timings = {
  provenance : float;
  provenance_rows : int;
  append : float;
  rollback : float;
}

let run t tr ~sub_id ~uid sql =
  let query = Parser.query sql in
  let time = Usage_log.current_time t.db in
  let ctx = { Usage_log.uid; time; query; db = t.db; extra = [] } in
  let rows, provenance =
    Trace.span tr ~sub_id "usage_log.provenance" (fun () ->
        Usage_log.provenance.Usage_log.generate ctx)
  in
  let ts = Value.Int time in
  let sp = Table.savepoint t.scratch in
  let _, append =
    Trace.span tr ~sub_id "relational.append" (fun () ->
        List.iter (fun cells -> ignore (Table.insert t.scratch (Array.append [| ts |] cells))) rows)
  in
  let _, rollback =
    Trace.span tr ~sub_id "relational.rollback" (fun () -> Table.rollback_to t.scratch sp)
  in
  { provenance; provenance_rows = List.length rows; append; rollback }
