(** Steady-state benchmark of the DataLawyer stack.

    perfbench --workload NAME --seed N --seconds S --trace 0|1

    Runs one workload for S seconds of timed window, checks its outputs
    and prints, as the last line of standard output, one JSON object:
    [correct], [attempted], [failed] and [metrics] — the end-to-end
    metrics with [--trace 0], the per-layer metrics with [--trace 1].
    Every number is timed from outside the engine, around calls into
    each layer's public functions. Workloads: mimic_mixed,
    tenant_policies, server_durable. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("submit_p50_ms", "ms");
    ("submit_tail_ms", "ms");
    ("throughput_sps", "1/s");
    ("overhead_ratio", "ratio");
    ("heap_peak_mb", "MB");
  ]

let mimic_classes = [ "0W1"; "1W1"; "1W2"; "0W2"; "1W3"; "0W4" ]

let per_layer =
  [
    ("engine.wall_ms", "ms");
    ("engine.track_ms", "ms");
    ("engine.eval_ms", "ms");
    ("engine.compact_ms", "ms");
    ("engine.persist_ms", "ms");
    ("engine.exec_ms", "ms");
    ("engine.unaccounted_ms", "ms");
    ("engine.policy_calls", "count");
    ("usage_log.provenance_ms", "ms");
    ("usage_log.provenance_rows", "count");
    ("usage_log.log_rows", "count");
    ("relational.plain_ms", "ms");
    ("relational.lineage_ratio", "ratio");
    ("relational.append_ms", "ms");
    ("relational.rollback_ms", "ms");
    ("incremental.delta_share", "ratio");
    ("relevance.skip_share", "ratio");
    ("unify.active_policies", "count");
    ("shared.hit_share", "ratio");
    ("prepared.hit_rate", "ratio");
    ("vector.fallbacks", "count");
    ("parallel.tasks", "count");
    ("persist.checkpoints", "count");
    ("persist.wal_records", "count");
    ("persist.fsyncs_per_sub", "count");
    ("persist.bytes_per_sub", "B");
    ("persist.disk_bytes", "B");
    ("persist.recovery_ms", "ms");
    ("persist.sync_commit_ms", "ms");
    ("server.batch_mean", "count");
    ("server.fast_share", "ratio");
    ("server.retried_batches", "count");
    ("gc.minor_words_per_sub", "words");
    ("gc.major_collections", "count");
    ("trace.shadow_ms_per_sub", "ms");
  ]
  @ List.map (fun c -> ("class." ^ c ^ "_p50_ms", "ms")) mimic_classes
  @ List.map
      (fun k -> ("class.0W4_" ^ k ^ "_ms", "ms"))
      [ "wall"; "phases"; "unaccounted"; "rollback" ]
  @ [ ("class.accept_p50_ms", "ms"); ("class.reject_p50_ms", "ms") ]

let workloads =
  [
    ("mimic_mixed", fun ~trace ~seed ~seconds ->
        Inproc.run ~trace ~seconds ~name:"mimic_mixed" (Mimic_mixed.setup ~seed));
    ("tenant_policies", fun ~trace ~seed ~seconds ->
        Inproc.run ~trace ~seconds ~name:"tenant_policies" (Tenant_policies.setup ~seed));
    ("server_durable", Server_durable.run);
  ]

let usage () =
  prerr_endline
    "usage: perfbench --workload mimic_mixed|tenant_policies|server_durable --seed N \
     --seconds S --trace 0|1";
  exit 2

let git_rev () =
  (* The checkout may not be a git repository; read HEAD when it is. *)
  match In_channel.with_open_text ".git/HEAD" In_channel.input_all with
  | head -> (
    let head = String.trim head in
    match String.index_opt head ' ' with
    | Some i -> (
      let ref_ = String.sub head (i + 1) (String.length head - i - 1) in
      match In_channel.with_open_text (Filename.concat ".git" ref_) In_channel.input_all with
      | rev -> String.trim rev
      | exception Sys_error _ -> ref_)
    | None -> head)
  | exception Sys_error _ -> "unknown (not a git checkout)"

(* Select [specs] from [ms] in spec order, 0 where a workload has no
   such layer. *)
let select specs ms =
  List.map
    (fun (name, unit) ->
      match List.find_opt (fun m -> m.Util.name = name) ms with
      | Some m -> m
      | None -> Util.metric name unit 0.0)
    specs

let last_result_file workload = Filename.concat Util.out_dir ("untraced-" ^ workload ^ ".tsv")

let save_untraced workload (ms : Util.metric list) =
  Out_channel.with_open_text (last_result_file workload) (fun oc ->
      List.iter (fun m -> Printf.fprintf oc "%s\t%.17g\n" m.Util.name m.Util.value) ms)

(* Tracing overhead: the traced run's end-to-end numbers against the
   most recent untraced run of the same workload in this checkout. *)
let report_overhead workload (ms : Util.metric list) =
  match In_channel.with_open_text (last_result_file workload) In_channel.input_lines with
  | lines ->
    let base =
      List.filter_map
        (fun l ->
          match String.split_on_char '\t' l with
          | [ k; v ] -> Some (k, float_of_string v)
          | _ -> None)
        lines
    in
    List.iter
      (fun m ->
        match List.assoc_opt m.Util.name base with
        | Some b when b <> 0.0 ->
          Printf.printf "tracing overhead: %s %+.1f%% (traced %.4g vs untraced %.4g %s)\n"
            m.Util.name
            (100. *. (m.Util.value -. b) /. b)
            m.Util.value b m.Util.unit
        | _ -> ())
      ms
  | exception Sys_error _ ->
    print_endline "tracing overhead: no untraced run of this workload stored yet"

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload = get "workload" in
  let seed = int "seed" and seconds = int "seconds" and trace = int "trace" = 1 in
  if seconds < 1 then usage ();
  let run = match List.assoc_opt workload workloads with Some r -> r | None -> usage () in
  (try Unix.mkdir Util.out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let r = run ~trace ~seed ~seconds:(float_of_int seconds) in
  let correct = r.Util.failed = 0 && r.Util.problems = [] in
  List.iter (fun p -> Printf.printf "check failed: %s\n" p) r.Util.problems;
  let record =
    [
      ("workload", Util.json_string workload);
      ("seed", string_of_int seed);
      ("seconds", string_of_int seconds);
      ("traced", string_of_bool trace);
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("domains", string_of_int Datalawyer.Engine.default_domains);
      ("git_rev", Util.json_string (git_rev ()));
      ("ocaml", Util.json_string Sys.ocaml_version);
      ("attempted", string_of_int r.Util.attempted);
      ("failed", string_of_int r.Util.failed);
    ]
    @ r.Util.record
  in
  print_endline (Util.json_object [ ("run_record", Util.json_object record) ]);
  let e2e = select end_to_end r.Util.e2e in
  if trace then report_overhead workload e2e else save_untraced workload e2e;
  let metrics = if trace then select per_layer (r.Util.layers @ r.Util.e2e) else e2e in
  print_endline
    (Util.json_object
       [
         ("correct", string_of_bool correct);
         ("attempted", string_of_int r.Util.attempted);
         ("failed", string_of_int r.Util.failed);
         ("metrics", Util.json_metrics metrics);
       ])
