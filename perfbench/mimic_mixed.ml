(** [mimic_mixed]: the paper's stream on the default MIMIC instance.
    Policies P1–P6 under the violation-free parameters of [bench ablate],
    the [ablate] seven-submission uid/query pattern from one caller,
    persisted at the engine's default [Interval 32] flush policy. The
    seed picks the instance's generator seed. *)

open Datalawyer

let params =
  {
    Workload.Policies.p1_window = 50;
    p1_max_users = 10;
    p3_max_output = 10_000;
    p4_min_inputs = 1;
    p5_window = 500;
    p5_max_fraction = 0.9;
    p6_window = 100;
    p6_max_uses = 500;
  }

let pattern = [ (0, "W1"); (1, "W1"); (1, "W2"); (0, "W2"); (1, "W3"); (0, "W4"); (1, "W1") ]

let instance seed = Mimic.Generate.database ~config:{ Mimic.Generate.default_config with seed } ()

let n_patients = Mimic.Generate.default_config.Mimic.Generate.n_patients

let sql name = (Workload.Queries.find ~n_patients name).Workload.Queries.sql

(* Instance generation, engine creation and policy registration. *)
let build seed =
  let dir = Util.fresh_dir "mimic_mixed" in
  let t0 = Util.now () in
  let e = Engine.create ~persist_dir:dir (instance seed) in
  List.iter
    (fun (p : Workload.Policies.t) ->
      ignore (Engine.add_policy e ~name:p.Workload.Policies.name p.Workload.Policies.sql))
    (Workload.Policies.all ~params ~n_patients ());
  (Util.now () -. t0, e, dir)

(* The stream, cycling through [pattern]. During warm-up uid 0's W4 is
   replaced by a W1: uid-0 submissions retain no log rows under these
   policies, so the log reaches the same plateau at a fraction of the
   cost. *)
let stream ~warm =
  let pos = ref 0 in
  fun () ->
    let uid, q = List.nth pattern (!pos mod List.length pattern) in
    incr pos;
    let q = if warm && uid = 0 && q = "W4" then "W1" else q in
    { Inproc.cls = Printf.sprintf "%d%s" uid q; uid; sql = sql q; expect = Inproc.Accept }

let setup ~seed =
  (* Set up three times and keep the last; the median is the set-up
     cost. The warm-up runs once, on the kept engine. *)
  let builds = List.init 3 (fun _ -> build seed) in
  List.iteri
    (fun i (_, e, dir) ->
      if i < 2 then begin
        Engine.close e;
        Util.rm_rf dir
      end)
    builds;
  let _, e, dir = List.nth builds 2 in
  let build_s = Util.median (List.map (fun (t, _, _) -> t) builds) in
  (* Warm up until P5's 500-tick window, the largest, has filled. *)
  let t0 = Util.now () in
  let next = stream ~warm:true in
  let db = Engine.database e in
  while Usage_log.current_time db <= params.Workload.Policies.p5_window + List.length pattern do
    let s = next () in
    match Engine.submit e ~uid:s.Inproc.uid s.Inproc.sql with
    | Engine.Accepted _ -> ()
    | Engine.Rejected (msgs, _) ->
      failwith ("mimic_mixed: warm-up rejected: " ^ String.concat "; " msgs)
  done;
  let warm_s = Util.now () -. t0 in
  {
    Inproc.engine = e;
    next = stream ~warm:false;
    persist = Some (dir, fun () -> instance seed);
    flush = "Interval 32";
    setup_s = build_s +. warm_s;
    (* Twenty-four whole cycles: the tail percentile (p90 of 168) lands
       on the eighth of twenty-four W4s, inside the W4 class and far
       enough from its fastest member to repeat from run to run. *)
    min_samples = 24 * List.length pattern;
  }

