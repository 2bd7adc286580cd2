(** TCP front-end: a listener thread accepts connections, each
    connection gets its own thread running the {!Session} machine over
    the {!Protocol} framing, and every SUBMIT funnels into the single
    {!Admission} pipeline, which evaluates policies serially inside the
    engine; the threads here only do socket I/O and queueing. *)

open Datalawyer

type config = {
  host : string;
  port : int;  (** 0 picks an ephemeral port; see {!port} *)
  max_batch : int;  (** admission batch bound *)
  max_payload : int;  (** per-frame payload ceiling, bytes *)
  backlog : int;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 7740;
    max_batch = 32;
    max_payload = Protocol.default_max_payload;
    backlog = 64;
  }

type t = {
  engine : Engine.t;
  admission : Admission.t;
  config : config;
  listen_fd : Unix.file_descr;
  port : int;
  lock : Mutex.t;
  conns : (int, Unix.file_descr) Hashtbl.t;
  mutable threads : Thread.t list;
  mutable listener : Thread.t option;
  mutable sessions_total : int;
  mutable running : bool;
}

let port t = t.port

(* Raised inside a connection handler when the peer is gone; the
   handler unwinds and the connection closes. *)
exception Closed

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let len = Bytes.length b in
  let rec go off =
    if off < len then begin
      let n =
        try Unix.write fd b off (len - off)
        with Unix.Unix_error _ -> raise Closed
      in
      if n = 0 then raise Closed;
      go (off + n)
    end
  in
  go 0

let send fd resp = write_all fd (Protocol.encode_frame (Protocol.render_response resp))

(* Stats ------------------------------------------------------------------- *)

let stats t =
  let a = Admission.stats t.admission in
  let b = Engine.batch_stats t.engine in
  let active, total =
    Mutex.lock t.lock;
    let r = (Hashtbl.length t.conns, t.sessions_total) in
    Mutex.unlock t.lock;
    r
  in
  let hist =
    match a.Admission.s_hist with
    | [] -> "-"
    | h -> String.concat " " (List.map (fun (l, n) -> Printf.sprintf "%s:%d" l n) h)
  in
  let fsyncs, wal =
    match Engine.persist_store t.engine with
    | None -> (0, 0)
    | Some s -> (Persistence.Store.fsyncs s, Persistence.Store.wal_records s)
  in
  let d = Engine.delta_stats t.engine in
  let u = Engine.unify_stats t.engine in
  let r = Engine.relevance_stats t.engine in
  let v = Engine.vector_stats t.engine in
  let vhist =
    (* same label:count shape as batch-hist; bucket upper bounds, "max"
       for the open tail *)
    let labels = [| "16"; "256"; "4096"; "65536"; "max" |] in
    String.concat " "
      (Array.to_list
         (Array.mapi
            (fun k n -> Printf.sprintf "%s:%d" labels.(k) n)
            v.Engine.vec_hist))
  in
  let i = string_of_int in
  [
    ("sessions-total", i total);
    ("sessions-active", i active);
    ("submissions", i a.Admission.s_submissions);
    ("accepted", i a.Admission.s_accepted);
    ("rejected", i a.Admission.s_rejected);
    ("failed", i a.Admission.s_failed);
    ("batches", i a.Admission.s_batches);
    ("batch-max", i a.Admission.s_max_batch);
    ("batch-hist", hist);
    ("batch-fast", i b.Engine.fast_batches);
    ("batch-retried", i b.Engine.retried_batches);
    ("batch-serial", i b.Engine.serial_batches);
    ("snapshot-age", i a.Admission.s_snapshot_age);
    ("delta-eligible", i d.Engine.eligible_plans);
    ("delta-fallback", i d.Engine.fallback_plans);
    ("delta-bases", i d.Engine.delta_bases);
    ("delta-evals", i d.Engine.delta_evals);
    ("full-evals", i d.Engine.full_evals);
    ("delta-agg-groups", i d.Engine.agg_groups);
    ("delta-agg-rebuilds", i d.Engine.agg_rebuilds);
    ("unify-registered", i u.Engine.unify_registered);
    ("unify-active", i u.Engine.unify_active);
    ("unify-groups", i u.Engine.unify_groups);
    ("unify-members", i u.Engine.unify_members);
    ("relevance-indexed", i r.Engine.rel_indexed);
    ("relevance-eligible", i r.Engine.rel_eligible);
    ("relevance-checks", i r.Engine.rel_checks);
    ("relevance-skips", i r.Engine.rel_skips);
    ("vector-enabled", (if v.Engine.vec_enabled then "1" else "0"));
    ("vector-batches", i v.Engine.vec_batches);
    ("vector-rows", i v.Engine.vec_rows);
    ("vector-fallbacks", i v.Engine.vec_fallbacks);
    ("vector-hist", vhist);
    ("vector-typed-cols", i v.Engine.vec_typed_cols);
    ("vector-mixed-cols", i v.Engine.vec_mixed_cols);
    ("vector-dict-entries", i v.Engine.vec_dict_entries);
    ("group-commit-fsyncs", i fsyncs);
    ("wal-records", i wal);
  ]

(* Connection handling ----------------------------------------------------- *)

let response_of_verdict : Admission.verdict -> Protocol.response = function
  | Admission.Accepted { seq; rows } -> Protocol.Accepted { seq; rows }
  | Admission.Rejected { seq; messages } -> Protocol.Rejected { seq; messages }
  | Admission.Failed { code; message; _ } -> Protocol.Err { code; message }

let handle t fd =
  let session = Session.create () in
  let decoder = Protocol.Decoder.create ~max_payload:t.config.max_payload () in
  let buf = Bytes.create 65536 in
  let rec serve () =
    match Protocol.Decoder.next decoder with
    | `Frame payload -> (
      match Protocol.parse_request payload with
      | Error (code, message) ->
        (* Request-level error: the framing is intact, keep the
           connection. *)
        send fd (Protocol.Err { code; message });
        serve ()
      | Ok req -> (
        match Session.step session req with
        | Session.Reply r ->
          send fd r;
          serve ()
        | Session.Admit { uid; sql } ->
          let v = Admission.submit t.admission ~uid ~sql in
          send fd (response_of_verdict v);
          serve ()
        | Session.Report ->
          send fd (Protocol.Stats_reply (stats t));
          serve ()
        | Session.Terminate r -> send fd r))
    | `Error code ->
      (* Framing error: no resynchronisation point exists, so reply
         once and drop the connection. *)
      send fd (Protocol.Err { code; message = "unrecoverable framing error" })
    | `Awaiting ->
      let n =
        try Unix.read fd buf 0 (Bytes.length buf) with Unix.Unix_error _ -> 0
      in
      if n > 0 then begin
        Protocol.Decoder.feed decoder (Bytes.sub_string buf 0 n);
        serve ()
      end
      (* n = 0: peer disconnected (possibly mid-batch — any submission
         already queued still gets decided; only the reply is lost). *)
  in
  serve ()

let rec accept_loop t =
  match Unix.accept t.listen_fd with
  | fd, _ ->
    Mutex.lock t.lock;
    if not t.running then begin
      Mutex.unlock t.lock;
      (try Unix.close fd with Unix.Unix_error _ -> ())
    end
    else begin
      t.sessions_total <- t.sessions_total + 1;
      let id = t.sessions_total in
      Hashtbl.replace t.conns id fd;
      let th =
        Thread.create
          (fun () ->
            Fun.protect
              ~finally:(fun () ->
                (try Unix.close fd with Unix.Unix_error _ -> ());
                Mutex.lock t.lock;
                Hashtbl.remove t.conns id;
                Mutex.unlock t.lock)
              (fun () -> try handle t fd with Closed -> () | _ -> ()))
          ()
      in
      t.threads <- th :: t.threads;
      Mutex.unlock t.lock;
      accept_loop t
    end
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop t
  | exception Unix.Unix_error _ -> ()

let start ?(config = default_config) engine =
  if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let t =
    try
      Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
      Unix.bind listen_fd
        (Unix.ADDR_INET (Unix.inet_addr_of_string config.host, config.port));
      Unix.listen listen_fd config.backlog;
      let port =
        match Unix.getsockname listen_fd with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> config.port
      in
      {
        engine;
        admission = Admission.create ~engine ~max_batch:config.max_batch ();
        config;
        listen_fd;
        port;
        lock = Mutex.create ();
        conns = Hashtbl.create 64;
        threads = [];
        listener = None;
        sessions_total = 0;
        running = true;
      }
    with e ->
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      raise e
  in
  Admission.start t.admission;
  t.listener <- Some (Thread.create accept_loop t);
  t

let stop ?(close_engine = false) t =
  Mutex.lock t.lock;
  let was_running = t.running in
  t.running <- false;
  Mutex.unlock t.lock;
  if was_running then begin
    (* Wake the listener with a throwaway connection so its blocking
       accept observes [running = false]. *)
    (try
       let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
       Fun.protect
         ~finally:(fun () -> try Unix.close s with Unix.Unix_error _ -> ())
         (fun () ->
           Unix.connect s (Unix.ADDR_INET (Unix.inet_addr_loopback, t.port)))
     with Unix.Unix_error _ -> ());
    Option.iter Thread.join t.listener;
    t.listener <- None;
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    (* Shut the client sockets so blocked reads return; the handlers
       then unwind and close their fds. A handler waiting inside the
       admission queue still gets its verdict first — the pipeline is
       stopped only after every connection thread has exited. *)
    Mutex.lock t.lock;
    let fds = Hashtbl.fold (fun _ fd acc -> fd :: acc) t.conns [] in
    let threads = t.threads in
    t.threads <- [];
    Mutex.unlock t.lock;
    List.iter
      (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      fds;
    List.iter Thread.join threads;
    Admission.stop t.admission;
    if close_engine then Engine.close t.engine
  end
