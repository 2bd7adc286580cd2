(** The closed-loop runner of the in-process workloads: one caller
    submits the workload's stream through [Engine.submit] for the timed
    window, then the answers, verdicts, log plateau and (for persisted
    workloads) a restart are checked. A traced run additionally makes
    the shadow calls of {!Shadow} after every submission and keeps the
    spans; shadow time is kept out of the timed window. *)

open Relational
open Datalawyer

type expect = Accept | Reject of string list

type sub = { cls : string; uid : int; sql : string; expect : expect }

(* A workload, set up and warmed up. *)
type env = {
  engine : Engine.t;
  next : unit -> sub;  (** the seeded stream, in submission order *)
  persist : (string * (unit -> Database.t)) option;
      (** the store's directory, and a fresh base instance to recover into *)
  flush : string;  (** the store's flush policy, for the run record *)
  setup_s : float;
  min_samples : int;  (** the window lasts at least this many submissions *)
}

type sample = {
  sub : sub;
  wall : float;
  plain : float;  (** [Database.query] of the same SQL, right after *)
  mismatch : string option;  (** how the verdict, messages or answer differed *)
  stats : Stats.t option;
  minor_words : float;  (** allocated inside [Engine.submit] *)
  majors : int;  (** major collections completed inside [Engine.submit] *)
  shadow : Shadow.timings option;
}

let log_rows e =
  let db = Engine.database e in
  List.fold_left
    (fun acc rel -> if rel = Usage_log.clock_relation then acc else acc + Engine.log_size e rel)
    0
    (Catalog.log_table_names (Database.catalog db))

(* Engine, store and GC counters, read before and after the window. *)
type counters = {
  plan_hits : int;
  plan_misses : int;
  delta_evals : int;
  full_evals : int;
  rel_checks : int;
  rel_skips : int;
  shared_hits : int;
  shared_misses : int;
  vec_fallbacks : int;
  par_tasks : int;
  generation : int;
  fsyncs : int;
  minor_words : float;
  major_collections : int;
}

let counters e =
  let plan_hits, plan_misses = Engine.plan_cache_stats e in
  let d = Engine.delta_stats e in
  let r = Engine.relevance_stats e in
  let shared_hits, shared_misses = Engine.shared_scan_stats e in
  let _, _, par_tasks = Engine.parallel_stats e in
  let generation, fsyncs =
    match Engine.persist_store e with
    | Some s -> (Persistence.Store.generation s, Persistence.Store.fsyncs s)
    | None -> (0, 0)
  in
  let g = Gc.quick_stat () in
  {
    plan_hits;
    plan_misses;
    delta_evals = d.Engine.delta_evals;
    full_evals = d.Engine.full_evals;
    rel_checks = r.Engine.rel_checks;
    rel_skips = r.Engine.rel_skips;
    shared_hits;
    shared_misses;
    vec_fallbacks = (Engine.vector_stats e).Engine.vec_fallbacks;
    par_tasks;
    generation;
    fsyncs;
    minor_words = g.Gc.minor_words;
    major_collections = g.Gc.major_collections;
  }

let share num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

let phases st =
  [
    ("engine.track", st.Stats.log_track);
    ("engine.eval", st.Stats.policy_eval);
    ("engine.compact", Stats.compaction_total st);
    ("engine.persist", st.Stats.persist);
    ("engine.exec", st.Stats.query_exec);
  ]

(* What differs between a live engine's database and the one recovered
   from its store: the clock, and the rows of every stored log relation. *)
let restart_problems ~live ~recovered store_rels =
  (if Usage_log.current_time recovered <> Usage_log.current_time live then
     [
       Printf.sprintf "restart: clock %d, live engine %d" (Usage_log.current_time recovered)
         (Usage_log.current_time live);
     ]
   else [])
  @ List.filter_map
      (fun rel ->
        if Util.table_rows recovered rel = Util.table_rows live rel then None
        else Some (Printf.sprintf "restart: relation %s differs from the live engine" rel))
      store_rels

(* Close the engine, restart from its persisted directory and compare.
   Returns the problems found and the recovery time. *)
let restart_check env e =
  match env.persist with
  | None -> ([], 0.0)
  | Some (dir, reopen) ->
    let store_rels = (Engine.plan e).Engine.store_rels in
    Engine.close e;
    let db = reopen () in
    let t0 = Util.now () in
    let e2 = Engine.create ~persist_dir:dir db in
    let recovery = Util.now () -. t0 in
    let problems = restart_problems ~live:(Engine.database e) ~recovered:db store_rels in
    Engine.close e2;
    Util.rm_rf dir;
    (problems, recovery)

let run ~trace ~seconds ~name env =
  let e = env.engine in
  let db = Engine.database e in
  let shadow = if trace then Some (Shadow.create db) else None in
  let dir_bytes () = match env.persist with Some (d, _) -> Util.dir_bytes d | None -> 0 in
  (* Collect the set-up's garbage (the discarded builds) before timing,
     so that the window's major GC works on the live heap only. *)
  Gc.compact ();
  let rows0 = log_rows e in
  let c0 = counters e in
  let t0 = Util.now () in
  let tr = Trace.create t0 in
  let deadline = ref (t0 +. seconds) in
  (* Time spent outside [Engine.submit] — the plain baseline, output
     checks and, traced, the shadow calls — is kept out of the window. *)
  let aside = ref 0.0 and traced_time = ref 0.0 in
  let bytes_written = ref 0 in
  let last_gen = ref c0.generation and last_bytes = ref (dir_bytes ()) in
  let samples = ref [] in
  let n = ref 0 in
  while Util.now () < !deadline || !n < env.min_samples do
    let s = env.next () in
    let id = !n in
    incr n;
    let g0 = Gc.quick_stat () in
    let start = Util.now () in
    let outcome =
      match Engine.submit e ~uid:s.uid s.sql with
      | o -> Ok o
      | exception ex -> Error (Printexc.to_string ex)
    in
    let stop = Util.now () in
    let g1 = Gc.quick_stat () in
    let wall = stop -. start in
    (* The paper's baseline: the same SQL through [Database.query] on the
       same database, timed next to the submission so that both see the
       same machine. Its answer is the expected one. *)
    let answer = Database.query db s.sql in
    let plain = Util.now () -. stop in
    let mismatch =
      match (s.expect, outcome) with
      | Accept, Ok (Engine.Accepted (r, _)) ->
        if Util.canonical r = Util.canonical answer then None else Some "answer differs from plain"
      | Reject msgs, Ok (Engine.Rejected (got, _)) ->
        if List.sort compare got = List.sort compare msgs then None
        else Some ("rejected with " ^ String.concat "; " got)
      | Accept, Ok (Engine.Rejected (got, _)) -> Some ("rejected with " ^ String.concat "; " got)
      | Reject _, Ok (Engine.Accepted _) -> Some "accepted a planted violation"
      | _, Error ex -> Some ("raised " ^ ex)
    in
    let stats = match outcome with Ok o -> Some (Engine.stats_of o) | Error _ -> None in
    let traced = Util.now () in
    let shadow_t =
      match shadow with
      | None -> None
      | Some sh ->
        (* The engine reports phase durations, not start times: lay them
           end to end under the submission's span, then the remainder. *)
        Trace.add tr ~sub_id:id ("engine.submit." ^ s.cls) ~start ~dur:wall;
        Trace.add tr ~sub_id:id "relational.plain" ~start:stop ~dur:plain;
        Option.iter
          (fun st ->
            let at = ref start in
            List.iter
              (fun (p, d) ->
                Trace.add tr ~sub_id:id ~parent:"engine.submit" ~reported:true p ~start:!at ~dur:d;
                at := !at +. d)
              (phases st);
            Trace.add tr ~sub_id:id ~parent:"engine.submit" ~reported:true "engine.unaccounted"
              ~start:!at ~dur:(wall -. Stats.total st))
          stats;
        let t = Shadow.run sh tr ~sub_id:id ~uid:s.uid s.sql in
        (match Engine.persist_store e with
        | Some store ->
          (* Bytes the store wrote for this submission: the WAL growth,
             or the whole new generation after a checkpoint. *)
          let gen = Persistence.Store.generation store and b = dir_bytes () in
          bytes_written :=
            !bytes_written + if gen <> !last_gen then b else max 0 (b - !last_bytes);
          last_gen := gen;
          last_bytes := b
        | None -> ());
        Some t
    in
    let finish = Util.now () in
    traced_time := !traced_time +. (finish -. traced);
    aside := !aside +. (finish -. stop);
    deadline := !deadline +. (finish -. stop);
    samples :=
      {
        sub = s;
        wall;
        plain;
        mismatch;
        stats;
        minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
        majors = g1.Gc.major_collections - g0.Gc.major_collections;
        shadow = shadow_t;
      }
      :: !samples
  done;
  let window = Util.now () -. t0 -. !aside in
  let c1 = counters e in
  let rows1 = log_rows e in
  let samples = List.rev !samples in
  let count = List.length samples in
  let mismatches =
    List.filter_map (fun s -> Option.map (fun m -> s.sub.sql ^ ": " ^ m) s.mismatch) samples
  in
  let failed = List.length mismatches in
  List.iteri (fun i m -> if i < 5 then Printf.printf "check failed: %s\n" m) mismatches;
  let plateau =
    if rows1 > (rows0 * 6 / 5) + 20 then
      [ Printf.sprintf "log still growing in the timed window: %d -> %d rows" rows0 rows1 ]
    else []
  in
  let disk = dir_bytes () in
  let restart_problems, recovery = restart_check env e in
  (* End-to-end metrics. *)
  let walls = Util.sorted_of_list (List.map (fun s -> s.wall) samples) in
  let tail_p, tail_v = Util.tail walls in
  let sum_wall = Util.sum (List.map (fun s -> s.wall) samples) in
  let sum_plain = Util.sum (List.map (fun s -> s.plain) samples) in
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  let e2e =
    [
      Util.metric "setup_s" "s" env.setup_s;
      Util.metric "submit_p50_ms" "ms" (Util.ms (Util.percentile walls 0.5));
      Util.metric "submit_tail_ms" "ms" (Util.ms tail_v);
      Util.metric "throughput_sps" "1/s" (float_of_int count /. window);
      Util.metric "overhead_ratio" "ratio" (sum_wall /. sum_plain);
      Util.metric "heap_peak_mb" "MB" heap_mb;
    ]
  in
  (* Per-layer metrics: means per submission unless named otherwise. *)
  let per_sub f = Util.mean (List.filter_map f samples) in
  let stat_ms f = Util.ms (per_sub (fun s -> Option.map f s.stats)) in
  let shadow_ms f = Util.ms (per_sub (fun s -> Option.map f s.shadow)) in
  let classes = Hashtbl.create 8 in
  List.iter
    (fun s ->
      Hashtbl.replace classes s.sub.cls
        (s :: Option.value ~default:[] (Hashtbl.find_opt classes s.sub.cls)))
    samples;
  let class_metrics =
    Hashtbl.fold
      (fun cls ss acc ->
        let mean_of f = Util.ms (Util.mean (List.filter_map f ss)) in
        Util.metric (Printf.sprintf "class.%s_p50_ms" cls) "ms"
          (Util.ms (Util.median (List.map (fun s -> s.wall) ss)))
        :: Util.metric (Printf.sprintf "class.%s_wall_ms" cls) "ms" (mean_of (fun s -> Some s.wall))
        :: Util.metric (Printf.sprintf "class.%s_phases_ms" cls) "ms"
             (mean_of (fun s -> Option.map Stats.total s.stats))
        :: Util.metric (Printf.sprintf "class.%s_unaccounted_ms" cls) "ms"
             (mean_of (fun s ->
                  Option.map (fun st -> s.wall -. Stats.total st) s.stats))
        :: Util.metric (Printf.sprintf "class.%s_rollback_ms" cls) "ms"
             (mean_of (fun s -> Option.map (fun t -> t.Shadow.rollback) s.shadow))
        :: acc)
      classes []
  in
  let sum_shadow f = Util.sum (List.filter_map (fun s -> Option.map f s.shadow) samples) in
  let nf = float_of_int (max 1 count) in
  let store = Engine.persist_store e in
  let layers =
    [
      Util.metric "engine.track_ms" "ms" (stat_ms (fun st -> st.Stats.log_track));
      Util.metric "engine.eval_ms" "ms" (stat_ms (fun st -> st.Stats.policy_eval));
      Util.metric "engine.compact_ms" "ms" (stat_ms Stats.compaction_total);
      Util.metric "engine.persist_ms" "ms" (stat_ms (fun st -> st.Stats.persist));
      Util.metric "engine.exec_ms" "ms" (stat_ms (fun st -> st.Stats.query_exec));
      Util.metric "engine.unaccounted_ms" "ms"
        (Util.ms
           (per_sub (fun s -> Option.map (fun st -> s.wall -. Stats.total st) s.stats)));
      Util.metric "engine.wall_ms" "ms" (Util.ms (sum_wall /. nf));
      Util.metric "engine.policy_calls" "count"
        (per_sub (fun s ->
             Option.map (fun st -> float_of_int st.Stats.policy_calls) s.stats));
      Util.metric "usage_log.provenance_ms" "ms" (shadow_ms (fun t -> t.Shadow.provenance));
      Util.metric "usage_log.provenance_rows" "count"
        (per_sub (fun s -> Option.map (fun t -> float_of_int t.Shadow.provenance_rows) s.shadow));
      Util.metric "usage_log.log_rows" "count" (float_of_int rows1);
      Util.metric "relational.plain_ms" "ms" (Util.ms (per_sub (fun s -> Some s.plain)));
      Util.metric "relational.lineage_ratio" "ratio"
        (if trace then sum_shadow (fun t -> t.Shadow.provenance) /. sum_plain else 0.0);
      Util.metric "relational.append_ms" "ms" (shadow_ms (fun t -> t.Shadow.append));
      Util.metric "relational.rollback_ms" "ms" (shadow_ms (fun t -> t.Shadow.rollback));
      Util.metric "incremental.delta_share" "ratio"
        (share (c1.delta_evals - c0.delta_evals)
           (c1.delta_evals - c0.delta_evals + c1.full_evals - c0.full_evals));
      Util.metric "relevance.skip_share" "ratio"
        (share (c1.rel_skips - c0.rel_skips) (c1.rel_checks - c0.rel_checks));
      Util.metric "unify.active_policies" "count"
        (float_of_int (Engine.unify_stats e).Engine.unify_active);
      Util.metric "shared.hit_share" "ratio"
        (share (c1.shared_hits - c0.shared_hits)
           (c1.shared_hits - c0.shared_hits + c1.shared_misses - c0.shared_misses));
      Util.metric "prepared.hit_rate" "ratio"
        (share (c1.plan_hits - c0.plan_hits)
           (c1.plan_hits - c0.plan_hits + c1.plan_misses - c0.plan_misses));
      Util.metric "vector.fallbacks" "count" (float_of_int (c1.vec_fallbacks - c0.vec_fallbacks));
      Util.metric "parallel.tasks" "count" (float_of_int (c1.par_tasks - c0.par_tasks));
      Util.metric "persist.checkpoints" "count" (float_of_int (c1.generation - c0.generation));
      Util.metric "persist.wal_records" "count"
        (match store with
        | Some s -> float_of_int (Persistence.Store.wal_records s)
        | None -> 0.0);
      Util.metric "persist.fsyncs_per_sub" "count" (float_of_int (c1.fsyncs - c0.fsyncs) /. nf);
      Util.metric "persist.bytes_per_sub" "B" (float_of_int !bytes_written /. nf);
      Util.metric "persist.disk_bytes" "B" (float_of_int disk);
      Util.metric "persist.recovery_ms" "ms" (Util.ms recovery);
      Util.metric "gc.minor_words_per_sub" "words" (per_sub (fun s -> Some s.minor_words));
      Util.metric "gc.major_collections" "count"
        (float_of_int (List.fold_left (fun acc s -> acc + s.majors) 0 samples));
      Util.metric "trace.shadow_ms_per_sub" "ms" (Util.ms (!traced_time /. nf));
    ]
    @ class_metrics
  in
  if trace then Trace.write tr (Filename.concat Util.out_dir (Printf.sprintf "trace-%s.jsonl" name));
  let record =
    [
      ("flush_policy", Util.json_string env.flush);
      ("samples", string_of_int count);
      ("window_s", Util.json_float window);
      ("tail_percentile", Printf.sprintf "%g" (100. *. tail_p));
      ("log_rows_start", string_of_int rows0);
      ("log_rows_end", string_of_int rows1);
      ("failed_frac", Util.json_float (share failed count));
    ]
  in
  {
    Util.attempted = count;
    failed;
    problems = plateau @ restart_problems;
    e2e;
    layers;
    record;
  }
