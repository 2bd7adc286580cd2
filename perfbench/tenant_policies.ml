(** [tenant_policies]: a tenant population with one policy instance per
    tenant ([Templates.per_user]) in three shapes — [no_access] on
    [secret], [rate_limit] and a [volume_quota] on [data] — in memory.
    Submissions are cheap point queries from random tenants plus a
    planted share of violations: a protected tenant reading [secret], a
    burst one call over a rate limit, a range read over a volume quota.
    A model of the three policies predicts every verdict; ordinary
    submissions are drawn so that the model accepts them, so exactly the
    planted submissions are rejected. *)

open Relational
open Datalawyer

let tenants = 3000
let data_rows = 5000
let hot_keys = 1000
let window = 60
let max_calls = 3
let max_tuples = 5
let planted_per_mille = 50

(* Tenant shapes by uid mod 3. *)
let no_access uid = uid mod 3 = 0
let rate_limited uid = uid mod 3 = 1

let msg_secret = "secret is off-limits"
let msg_rate = Printf.sprintf "rate limit exceeded: more than %d calls in %d ticks" max_calls window

let msg_volume =
  Printf.sprintf "free tier exceeded: more than %d result tuples from data in %d ticks" max_tuples
    window

let words = [| "alpha"; "bravo"; "charlie"; "delta"; "echo"; "foxtrot"; "golf"; "hotel" |]

let instance seed =
  let db = Database.create () in
  ignore (Database.exec_script db "CREATE TABLE data (k INT, v TEXT); CREATE TABLE secret (k INT, v TEXT)");
  let r = Util.rng seed in
  let fill name n =
    Table.bulk_load (Database.table db name)
      (List.init n (fun k -> [| Value.Int k; Value.Str words.(Util.rand r (Array.length words)) |]));
    ignore
      (Catalog.create_index (Database.catalog db) ~name:("ix_" ^ name ^ "_k") ~table:name ~column:"k"
         ~kind:Index.Hash)
  in
  fill "data" data_rows;
  fill "secret" 200;
  db

let policies () =
  let uids p = List.filter p (List.init tenants (fun i -> i + 1)) in
  Templates.per_user ~name_prefix:"deny" ~uids:(uids no_access) (fun ~subject ->
      Templates.no_access ~relation:"secret" ~subject ())
  @ Templates.per_user ~name_prefix:"rate" ~uids:(uids rate_limited) (fun ~subject ->
        Templates.rate_limit ~max_calls ~window ~subject ())
  @ Templates.per_user ~name_prefix:"quota"
      ~uids:(uids (fun u -> not (no_access u || rate_limited u)))
      (fun ~subject -> Templates.volume_quota ~relation:"data" ~max_tuples ~window ~subject ())

(* Model of the three policies: per tenant, the ticks of its accepted
   submissions and the data tuples each returned. *)
type model = { mutable now : int; history : (int, (int * int) list) Hashtbl.t }

type read = Secret of int | Point of int | Range of int

let data_tuples = function Secret _ -> 0 | Point _ -> 1 | Range _ -> max_tuples + 1

let sql_of = function
  | Secret k -> Printf.sprintf "SELECT v FROM secret WHERE k = %d" k
  | Point k -> Printf.sprintf "SELECT v FROM data WHERE k = %d" k
  | Range a ->
    Printf.sprintf "SELECT v FROM data WHERE k >= %d AND k < %d" a (a + max_tuples + 1)

(* Accepted (tick, tuples) of [uid] inside the window ending at [tick]. *)
let recent m uid ~tick =
  List.filter (fun (t, _) -> t > tick - window) (Option.value ~default:[] (Hashtbl.find_opt m.history uid))

let verdict m uid read ~tick =
  let past = recent m uid ~tick in
  if no_access uid then (match read with Secret _ -> Some msg_secret | _ -> None)
  else if rate_limited uid then (if List.length past + 1 > max_calls then Some msg_rate else None)
  else if List.fold_left (fun a (_, n) -> a + n) (data_tuples read) past > max_tuples then
    Some msg_volume
  else None

let stream seed ~start =
  let r = Util.rng (seed + 7919) in
  let m = { now = start; history = Hashtbl.create 1024 } in
  let queue = Queue.create () in
  let uid_where p =
    let rec go () = let u = 1 + Util.rand r tenants in if p u then u else go () in
    go ()
  in
  let idle uid = recent m uid ~tick:(m.now + 1) = [] in
  let plant () =
    match Util.rand r 3 with
    | 0 -> Queue.add (uid_where no_access, Secret (Util.rand r 200)) queue
    | 1 ->
      let uid = uid_where (fun u -> rate_limited u && idle u) in
      for _ = 0 to max_calls do
        Queue.add (uid, Point (Util.rand r hot_keys)) queue
      done
    | _ ->
      let uid = uid_where (fun u -> (not (no_access u || rate_limited u)) && idle u) in
      Queue.add (uid, Range (Util.rand r (data_rows - max_tuples - 1))) queue
  in
  (* An ordinary submission the model accepts. *)
  let rec ordinary () =
    let uid = 1 + Util.rand r tenants in
    let read =
      if (not (no_access uid)) && Util.rand r 10 = 0 then Secret (Util.rand r 200)
      else Point (Util.rand r hot_keys)
    in
    if verdict m uid read ~tick:(m.now + 1) = None then (uid, read) else ordinary ()
  in
  fun () ->
    if Queue.is_empty queue && Util.rand r 1000 < planted_per_mille then plant ();
    let uid, read = if Queue.is_empty queue then ordinary () else Queue.pop queue in
    m.now <- m.now + 1;
    let expect =
      match verdict m uid read ~tick:m.now with
      | Some msg -> Inproc.Reject [ msg ]
      | None ->
        Hashtbl.replace m.history uid ((m.now, data_tuples read) :: recent m uid ~tick:m.now);
        Inproc.Accept
    in
    {
      Inproc.cls = (match expect with Inproc.Accept -> "accept" | Inproc.Reject _ -> "reject");
      uid;
      sql = sql_of read;
      expect;
    }

(* Instance, engine, the tenant policies, and a warm-up of three windows
   so the plans, delta bases and log windows are in their steady state. *)
let build seed =
  let t0 = Util.now () in
  let db = instance seed in
  let e = Engine.create db in
  List.iter (fun (name, sql) -> ignore (Engine.add_policy e ~name sql)) (policies ());
  let next = stream seed ~start:(Usage_log.current_time db) in
  for _ = 1 to 3 * window do
    let s = next () in
    let ok =
      match (Engine.submit e ~uid:s.Inproc.uid s.Inproc.sql, s.Inproc.expect) with
      | Engine.Accepted _, Inproc.Accept -> true
      | Engine.Rejected (got, _), Inproc.Reject want -> got = want
      | _ -> false
    in
    if not ok then failwith ("tenant_policies: unexpected verdict in warm-up for " ^ s.Inproc.sql)
  done;
  (Util.now () -. t0, e, next)

let setup ~seed =
  let builds = List.init 3 (fun _ -> build seed) in
  List.iteri (fun i (_, e, _) -> if i < 2 then Engine.close e) builds;
  let _, e, next = List.nth builds 2 in
  {
    Inproc.engine = e;
    next;
    persist = None;
    flush = "none (in memory)";
    setup_s = Util.median (List.map (fun (t, _, _) -> t) builds);
    min_samples = 0;
  }
