(** Ablation: each optimization toggled off in isolation against the full
    configuration, over a mixed two-user workload with all six policies.
    Not a paper figure — it quantifies the design choices DESIGN.md calls
    out, per-optimization, on one combined stream. *)

open Datalawyer

let configs =
  [
    ("all on", Engine.default_config);
    ("- time-independent", { Engine.default_config with Engine.time_independent = false });
    ("- log compaction", { Engine.default_config with Engine.log_compaction = false });
    ("- interleaved", { Engine.default_config with Engine.strategy = Engine.Serial });
    ("- unification", { Engine.default_config with Engine.unification = false });
    ("- preemptive", { Engine.default_config with Engine.preemptive = false });
    ("- improved partial", { Engine.default_config with Engine.improved_partial = false });
    ("NoOpt", Engine.noopt_config);
  ]

let mixed_stream scale =
  (* (uid, query) pairs; heavier on the cheap queries as a real console
     workload would be *)
  let pattern = [ (0, "W1"); (1, "W1"); (1, "W2"); (0, "W2"); (1, "W3"); (0, "W4"); (1, "W1") ] in
  List.concat (List.init (max 2 (scale.Common.batches / 4)) (fun _ -> pattern))

let run (scale : Common.scale) =
  Common.header "Ablation: optimization contributions (mixed stream, ms/query)";
  let stream = mixed_stream scale in
  Printf.printf "%d queries, policies P1-P6\n\n" (List.length stream);
  let rows =
    List.map
      (fun (label, config) ->
        let s =
          Common.setup ~config
            ~policy_names:[ "P1"; "P2"; "P3"; "P4"; "P5"; "P6" ] ()
        in
        (* [wall] times the whole [Engine.submit] call next to the
           [Stats] phases: a gap between it and [total] is work no phase
           accounts for. *)
        let wall = ref 0. in
        let stats =
          List.map
            (fun (uid, qname) ->
              let q = Workload.Runner.query s qname in
              let t0 = Unix.gettimeofday () in
              let outcome =
                Engine.submit s.Workload.Runner.engine ~uid q.Workload.Queries.sql
              in
              wall := !wall +. (Unix.gettimeofday () -. t0);
              match outcome with
              | Engine.Accepted (_, st) | Engine.Rejected (_, st) -> st)
            stream
        in
        let m = Stats.mean stats in
        [
          label;
          Common.f2 (Common.ms (Stats.overhead m));
          Common.f2 (Common.ms m.Stats.log_track);
          Common.f2 (Common.ms m.Stats.policy_eval);
          Common.f2 (Common.ms (Stats.compaction_total m));
          Common.f2 (Common.ms (Stats.total m));
          Common.f2 (Common.ms (!wall /. float_of_int (List.length stream)));
          string_of_int
            (Engine.log_size s.Workload.Runner.engine "provenance"
            + Engine.log_size s.Workload.Runner.engine "users"
            + Engine.log_size s.Workload.Runner.engine "schema");
        ])
      configs
  in
  Common.print_table
    [ 20; 10; 8; 8; 9; 9; 9; 10 ]
    [ "config"; "overhead"; "track"; "eval"; "compact"; "total"; "wall"; "log rows" ]
    rows
