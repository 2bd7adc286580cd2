(** [server_durable]: batch-eligible SPJ policies (as in [bench load])
    served over TCP with persistence at the server default — a buffered
    store and one forced fsync per committing admission batch.

    The server runs in a child process forked before any thread or
    domain exists; the child takes commands (mark, stop, quit) on a pipe
    and answers on another. The client is this process's one thread,
    driving [nproc] connections through [Unix.select] in a closed loop:
    each connection sends its next SUBMIT when the previous verdict has
    arrived. Every verdict is checked against [Database.query] of the
    same SQL on a client-side copy of the instance. *)

open Relational
open Datalawyer
module Protocol = Server.Protocol

let data_rows = 2000
let pool_size = 256
let population = 100_000
let warm_submissions = 3000

(* Monotone SPJ policies without clock atoms: batch-eligible, and
   violation-free because no uid is ever -1. *)
let policies =
  [
    ("banned", "SELECT DISTINCT 'banned uid' FROM users u, banned b WHERE u.uid = b.uid");
    ( "prov",
      "SELECT DISTINCT 'provenance touch' FROM provenance p, banned b WHERE p.irid = 'data' AND \
       p.itid = b.uid" );
  ]

let instance seed =
  let db = Database.create () in
  ignore
    (Database.exec_script db
       "CREATE TABLE data (k INT, v TEXT); CREATE TABLE banned (uid INT); INSERT INTO banned \
        VALUES (-1)");
  let r = Util.rng seed in
  Table.bulk_load (Database.table db "data")
    (List.init data_rows (fun k -> [| Value.Int k; Value.Str (string_of_int (Util.rand r 50)) |]));
  ignore
    (Catalog.create_index (Database.catalog db) ~name:"ix_data_k" ~table:"data" ~column:"k"
       ~kind:Index.Hash);
  db

(* The SQL pool: point lookups and, one in five, a keyed self-join. *)
let query_pool seed =
  let r = Util.rng (seed + 31) in
  Array.init pool_size (fun i ->
      let k = Util.rand r data_rows in
      if i mod 5 = 4 then
        ("join", Printf.sprintf "SELECT d.v FROM data d, data e WHERE d.k = e.k AND e.k = %d" k)
      else ("point", Printf.sprintf "SELECT v FROM data WHERE k = %d" k))

(* TI rewriting would add clock atoms and push the policies off the batch
   fast path. *)
let config = { Engine.default_config with Engine.time_independent = false }

let open_engine seed dir =
  Engine.create ~config ~persist_dir:dir ~persist_fsync:Persistence.Store.Never (instance seed)

(* The child --------------------------------------------------------------- *)

let counter_lines e =
  let c = Inproc.counters e in
  let store = Engine.persist_store e in
  let i = string_of_int in
  [
    ("plan_hits", i c.Inproc.plan_hits);
    ("plan_misses", i c.Inproc.plan_misses);
    ("delta_evals", i c.Inproc.delta_evals);
    ("full_evals", i c.Inproc.full_evals);
    ("rel_checks", i c.Inproc.rel_checks);
    ("rel_skips", i c.Inproc.rel_skips);
    ("shared_hits", i c.Inproc.shared_hits);
    ("shared_misses", i c.Inproc.shared_misses);
    ("vec_fallbacks", i c.Inproc.vec_fallbacks);
    ("par_tasks", i c.Inproc.par_tasks);
    ("generation", i c.Inproc.generation);
    ("fsyncs", i c.Inproc.fsyncs);
    ("minor_words", Printf.sprintf "%.0f" c.Inproc.minor_words);
    ("major_collections", i c.Inproc.major_collections);
    ("log_rows", i (Inproc.log_rows e));
    ( "wal_records",
      i (match store with Some s -> Persistence.Store.wal_records s | None -> 0) );
    ("disk_bytes", i (match store with Some s -> Persistence.Store.disk_bytes s | None -> 0));
    ( "generation_files",
      (* Sizes of the live generation's WAL and snapshot. *)
      match store with
      | Some s ->
        let g = Persistence.Store.generation s in
        let size f =
          match Unix.stat (Filename.concat (Persistence.Store.dir s) f) with
          | st -> st.Unix.st_size
          | exception Unix.Unix_error (Unix.ENOENT, _, _) -> 0
        in
        Printf.sprintf "%d %d"
          (size (Persistence.Recovery.wal_file g))
          (size (Persistence.Recovery.snapshot_file g))
      | None -> "0 0" );
    ("unify_active", i (Engine.unify_stats e).Engine.unify_active);
  ]

let child ~seed ~dir ~cmd ~reply =
  let say kvs =
    List.iter (fun (k, v) -> output_string reply (k ^ " " ^ v ^ "\n")) kvs;
    output_string reply "end\n";
    flush reply
  in
  let e = open_engine seed dir in
  List.iter (fun (name, sql) -> ignore (Engine.add_policy e ~name sql)) policies;
  let srv = Server.Tcp.start ~config:{ Server.Tcp.default_config with Server.Tcp.port = 0 } e in
  say [ ("port", string_of_int (Server.Tcp.port srv)) ];
  let rec loop () =
    match input_line cmd with
    | "mark" ->
      say (counter_lines e);
      loop ()
    | "stop" ->
      (* The client has drained every verdict: the engine is idle. *)
      let before = counter_lines e in
      let store_rels = (Engine.plan e).Engine.store_rels in
      Server.Tcp.stop ~close_engine:true srv;
      let t0 = Util.now () in
      let e2 = open_engine seed dir in
      let recovery = Util.now () -. t0 in
      let problems =
        Inproc.restart_problems ~live:(Engine.database e) ~recovered:(Engine.database e2)
          store_rels
      in
      Engine.close e2;
      let heap = (Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8) in
      say
        (before
        @ [ ("recovery_s", Printf.sprintf "%.9f" recovery); ("heap_bytes", string_of_int heap) ]
        @ List.map (fun p -> ("problem", p)) problems)
    | _ -> Server.Tcp.stop ~close_engine:true srv
    | exception End_of_file -> Server.Tcp.stop ~close_engine:true srv
  in
  loop ()

type server = { pid : int; cmd : out_channel; reply : in_channel; dir : string }

let read_reply s =
  let rec go acc =
    match input_line s.reply with
    | "end" -> List.rev acc
    | line -> (
      match String.index_opt line ' ' with
      | Some i -> go ((String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1)) :: acc)
      | None -> go acc)
  in
  go []

let command s c =
  output_string s.cmd (c ^ "\n");
  flush s.cmd;
  read_reply s

let spawn seed =
  let dir = Util.fresh_dir "server_durable" in
  let cmd_r, cmd_w = Unix.pipe () and rep_r, rep_w = Unix.pipe () in
  flush_all ();
  match Unix.fork () with
  | 0 ->
    Unix.close cmd_w;
    Unix.close rep_r;
    let code =
      try
        child ~seed ~dir ~cmd:(Unix.in_channel_of_descr cmd_r)
          ~reply:(Unix.out_channel_of_descr rep_w);
        0
      with ex ->
        prerr_endline ("server_durable: server process failed: " ^ Printexc.to_string ex);
        1
    in
    Unix._exit code
  | pid ->
    Unix.close cmd_r;
    Unix.close rep_w;
    { pid; cmd = Unix.out_channel_of_descr cmd_w; reply = Unix.in_channel_of_descr rep_r; dir }

let reap s =
  close_out_noerr s.cmd;
  close_in_noerr s.reply;
  match snd (Unix.waitpid [] s.pid) with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith "server_durable: server process exited abnormally"

(* The client -------------------------------------------------------------- *)

type conn = {
  fd : Unix.file_descr;
  dec : Protocol.Decoder.t;
  mutable sent_at : float;
  mutable sql_i : int;
  mutable busy : bool;
}

let buf = Bytes.create 65536

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off = if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off)) in
  go 0

let send c req = write_all c.fd (Protocol.encode_frame (Protocol.render_request req))

(* Read whatever is available and return the complete replies. *)
let receive c =
  let n = Unix.read c.fd buf 0 (Bytes.length buf) in
  if n = 0 then failwith "server_durable: server closed a connection";
  Protocol.Decoder.feed c.dec (Bytes.sub_string buf 0 n);
  let rec frames acc =
    match Protocol.Decoder.next c.dec with
    | `Frame p -> (
      match Protocol.parse_response p with
      | Ok r -> frames (r :: acc)
      | Error (_, m) -> failwith ("server_durable: bad reply: " ^ m))
    | `Awaiting -> List.rev acc
    | `Error code -> failwith ("server_durable: framing error: " ^ code)
  in
  frames []

let rpc c req =
  send c req;
  let rec wait () = match receive c with [] -> wait () | r :: _ -> r in
  wait ()

let connect port uid =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let c = { fd; dec = Protocol.Decoder.create (); sent_at = 0.0; sql_i = 0; busy = false } in
  (match rpc c (Protocol.Hello Protocol.version) with
  | Protocol.Hello_ok _ -> ()
  | r -> failwith ("server_durable: HELLO: " ^ Protocol.render_response r));
  (match rpc c (Protocol.Auth uid) with
  | Protocol.Auth_ok _ -> ()
  | r -> failwith ("server_durable: AUTH: " ^ Protocol.render_response r));
  c

(* Drive [conns] in a closed loop until [until ()] says stop, then
   drain. [on_reply] sees every verdict with its round-trip time and
   whether it arrived before the loop stopped sending. *)
let closed_loop conns ~next_sql ~expected ~until ~on_reply =
  let submit c =
    c.sql_i <- next_sql ();
    c.busy <- true;
    c.sent_at <- Util.now ();
    send c (Protocol.Submit (snd expected.(c.sql_i)))
  in
  let sending = ref true in
  List.iter submit conns;
  while List.exists (fun c -> c.busy) conns do
    let busy = List.filter_map (fun c -> if c.busy then Some c.fd else None) conns in
    let ready, _, _ = Unix.select busy [] [] 1.0 in
    List.iter
      (fun c ->
        if List.mem c.fd ready then
          List.iter
            (fun r ->
              let t = Util.now () in
              c.busy <- false;
              let ok =
                match r with
                | Protocol.Accepted { rows; _ } -> rows = fst expected.(c.sql_i)
                | _ -> false
              in
              on_reply ~in_window:!sending ~rtt:(t -. c.sent_at) ~sql_i:c.sql_i ~ok;
              if !sending && until () then sending := false;
              if !sending then submit c)
            (receive c))
      conns
  done

let stats_of c =
  match rpc c Protocol.Stats with
  | Protocol.Stats_reply kvs -> kvs
  | r -> failwith ("server_durable: STATS: " ^ Protocol.render_response r)

let num kvs k = match List.assoc_opt k kvs with Some v -> float_of_string v | None -> 0.0

(* Shadow of the durable commit path, outside the server: one WAL commit
   record of a submission's increments plus a forced sync, on a scratch
   store. Median of 50. *)
let sync_commit_s () =
  let dir = Util.fresh_dir "sync_commit" in
  let store, _ = Persistence.Store.open_dir ~fsync:Persistence.Store.Never dir in
  let times =
    List.init 50 (fun i ->
        let t0 = Util.now () in
        Persistence.Store.log_commit store ~clock:(i + 1)
          ~increments:[ ("users", [ [| Value.Int (i + 1); Value.Int 7 |] ]) ];
        Persistence.Store.flush ~sync:true store;
        Util.now () -. t0)
  in
  Persistence.Store.close store;
  Util.rm_rf dir;
  Util.median times

let run ~trace ~seed ~seconds =
  (* A dead peer must surface as an error, not kill the client. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let nconn = max 1 (Domain.recommended_domain_count ()) in
  (* Expected row counts per pooled SQL, on a client-side copy. *)
  let pool = query_pool seed in
  let plain_db = instance seed in
  let expected =
    Array.map
      (fun (_, sql) ->
        let r = Database.query plain_db sql in
        (List.length r.Executor.out_rows, sql))
      pool
  in
  let r = Util.rng (seed + 1) in
  let next_sql () = Util.rand r pool_size in
  let failed = ref 0 and attempted = ref 0 in
  let check ~ok = incr attempted; if not ok then incr failed in
  (* Set-up, three times: fork the server, connect, warm up. The last
     server is kept. *)
  let setup () =
    let t0 = Util.now () in
    let s = spawn seed in
    let port = int_of_string (List.assoc "port" (read_reply s)) in
    let conns = List.init nconn (fun _ -> connect port (1 + Util.rand r population)) in
    let n = ref 0 in
    closed_loop conns ~next_sql ~expected
      ~until:(fun () -> incr n; !n >= warm_submissions)
      ~on_reply:(fun ~in_window:_ ~rtt:_ ~sql_i:_ ~ok -> check ~ok);
    (Util.now () -. t0, s, conns)
  in
  let close_all conns = List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) conns in
  let builds =
    List.init 3 (fun i ->
        let t, s, conns = setup () in
        if i < 2 then begin
          close_all conns;
          output_string s.cmd "quit\n";
          reap s;
          Util.rm_rf s.dir
        end;
        (t, s, conns))
  in
  let _, s, conns = List.nth builds 2 in
  let setup_s = Util.median (List.map (fun (t, _, _) -> t) builds) in
  (* Timed window. *)
  let stats0 = stats_of (List.hd conns) in
  let mark = command s "mark" in
  let tr = Trace.create (Util.now ()) in
  let samples = ref [] in
  let t0 = Util.now () in
  let deadline = t0 +. seconds in
  let n = ref 0 in
  (* The plain baseline, sampled through the window so that it sees the
     same machine as the round trips: every 50 ms the client runs the
     next pooled SQL five times through [Database.query] and keeps the
     median. The sampling time is kept out of the window. *)
  let plain = ref [] and plain_cost = ref 0.0 and next_plain = ref t0 in
  let sample_plain () =
    let t = Util.now () in
    if t >= !next_plain then begin
      let sql = snd pool.(List.length !plain mod pool_size) in
      let runs =
        List.init 5 (fun _ ->
            let t0 = Util.now () in
            ignore (Database.query plain_db sql);
            Util.now () -. t0)
      in
      plain := Util.median runs :: !plain;
      let t' = Util.now () in
      plain_cost := !plain_cost +. (t' -. t);
      next_plain := t' +. 0.05
    end
  in
  closed_loop conns ~next_sql ~expected
    ~until:(fun () ->
      sample_plain ();
      Util.now () >= deadline)
    ~on_reply:(fun ~in_window ~rtt ~sql_i ~ok ->
      check ~ok;
      if in_window then begin
        if trace then Trace.add tr ~sub_id:!n ("server.submit." ^ fst pool.(sql_i)) ~start:(Util.now () -. rtt) ~dur:rtt;
        incr n;
        samples := rtt :: !samples
      end);
  let window = Util.now () -. t0 -. !plain_cost in
  let stats1 = stats_of (List.hd conns) in
  close_all conns;
  let fin = command s "stop" in
  reap s;
  Util.rm_rf s.dir;
  let sync_commit = if trace then sync_commit_s () else 0.0 in
  if trace then Trace.write tr (Filename.concat Util.out_dir "trace-server_durable.jsonl");
  (* Metrics. *)
  let count = List.length !samples in
  let rtts = Util.sorted_of_list !samples in
  let tail_p, tail_v = Util.tail rtts in
  (* Submissions draw uniformly from the pool, as the samples do. *)
  let sum_plain = float_of_int count *. Util.mean !plain in
  let d k = num fin k -. num mark k in
  let ds k = num stats1 k -. num stats0 k in
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  let e2e =
    [
      Util.metric "setup_s" "s" setup_s;
      Util.metric "submit_p50_ms" "ms" (Util.ms (Util.percentile rtts 0.5));
      Util.metric "submit_tail_ms" "ms" (Util.ms tail_v);
      Util.metric "throughput_sps" "1/s" (float_of_int count /. window);
      Util.metric "overhead_ratio" "ratio" (Util.sum !samples /. sum_plain);
      Util.metric "heap_peak_mb" "MB" (num fin "heap_bytes" /. 1e6);
    ]
  in
  let subs = ds "submissions" in
  let layers =
    [
      Util.metric "usage_log.log_rows" "count" (num fin "log_rows");
      Util.metric "incremental.delta_share" "ratio"
        (ratio (d "delta_evals") (d "delta_evals" +. d "full_evals"));
      Util.metric "relevance.skip_share" "ratio" (ratio (d "rel_skips") (d "rel_checks"));
      Util.metric "unify.active_policies" "count" (num fin "unify_active");
      Util.metric "shared.hit_share" "ratio"
        (ratio (d "shared_hits") (d "shared_hits" +. d "shared_misses"));
      Util.metric "prepared.hit_rate" "ratio" (ratio (d "plan_hits") (d "plan_hits" +. d "plan_misses"));
      Util.metric "vector.fallbacks" "count" (d "vec_fallbacks");
      Util.metric "parallel.tasks" "count" (d "par_tasks");
      Util.metric "persist.checkpoints" "count" (d "generation");
      Util.metric "persist.wal_records" "count" (num fin "wal_records");
      Util.metric "persist.fsyncs_per_sub" "count" (ratio (d "fsyncs") subs);
      (* Each committing submission appends one WAL record; each
         checkpoint writes one snapshot. *)
      Util.metric "persist.bytes_per_sub" "B"
        (match List.assoc_opt "generation_files" fin with
        | Some files ->
          Scanf.sscanf files "%d %d" (fun wal snap ->
              ratio (float_of_int wal) (num fin "wal_records") *. ratio (d "fsyncs") subs
              +. ratio (d "generation" *. float_of_int snap) subs)
        | None -> 0.0);
      Util.metric "persist.disk_bytes" "B" (num fin "disk_bytes");
      Util.metric "persist.recovery_ms" "ms" (Util.ms (num fin "recovery_s"));
      Util.metric "persist.sync_commit_ms" "ms" (Util.ms sync_commit);
      Util.metric "server.batch_mean" "count" (ratio subs (ds "batches"));
      Util.metric "server.fast_share" "ratio" (ratio (ds "batch-fast") (ds "batches"));
      Util.metric "server.retried_batches" "count" (ds "batch-retried");
      Util.metric "gc.minor_words_per_sub" "words" (ratio (d "minor_words") subs);
      Util.metric "gc.major_collections" "count" (d "major_collections");
    ]
  in
  let rows0 = int_of_float (num mark "log_rows") and rows1 = int_of_float (num fin "log_rows") in
  let problems =
    List.filter_map (fun (k, v) -> if k = "problem" then Some v else None) fin
    @
    if rows1 > (rows0 * 6 / 5) + 20 then
      [ Printf.sprintf "log still growing in the timed window: %d -> %d rows" rows0 rows1 ]
    else []
  in
  {
    Util.attempted = !attempted;
    failed = !failed;
    problems;
    e2e;
    layers;
    record =
      [
        ("flush_policy", Util.json_string "Never + one forced fsync per committing batch");
        ("connections", string_of_int nconn);
        ("samples", string_of_int count);
        ("window_s", Util.json_float window);
        ("tail_percentile", Printf.sprintf "%g" (100. *. tail_p));
        ("log_rows_start", string_of_int rows0);
        ("log_rows_end", string_of_int rows1);
        ("failed_frac", Util.json_float (ratio (float_of_int !failed) (float_of_int !attempted)));
      ];
  }
