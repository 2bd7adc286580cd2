(** Admission latency vs. policy count (ISSUE 7's scaling experiment).

    The same §6 template — a per-user access prohibition — instantiated
    for 6, 100, 1 000 (and, under [--full], 10 000) users, then a stream
    of admissions by a user none of the policies name. The naive leg
    unrolls every instance and evaluates each serially; the scaled leg
    unifies the instances into one template + constants table, indexes
    their relevance, and shares subplans — so per-admission work tracks
    the distinct shapes touched, not the policy count.

    Gates: under [--smoke], the scaled stack must beat naive unrolled
    evaluation by ≥10× at 1 000 policies; under [--full], admission at
    10 000 policies must stay within 10× of the 6-policy baseline
    (sublinear in policy count). Either failure exits non-zero. *)

open Relational
open Datalawyer

let naive_config =
  {
    Engine.default_config with
    Engine.strategy = Engine.Serial;
    delta = false;
    unification = false;
    relevance = false;
  }

(* Pinned on, not inherited: the experiment must measure the scaled
   stack under DL_UNIFY=0 / DL_DELTA=0 CI legs too. *)
let scaled_config =
  {
    Engine.default_config with
    Engine.delta = true;
    unification = true;
    relevance = true;
  }

let admission_query = "SELECT v FROM data WHERE k = 1"

(* Per-admission mean latency (ms) over a fresh engine with [n]
   per-user prohibitions. Registration and the first (plan-building,
   base-proving) admission are warm-up, outside the timed window. *)
let measure config n ~reps =
  let db = Database.create () in
  ignore
    (Database.exec_script db
       "CREATE TABLE data (k INT, v TEXT); INSERT INTO data VALUES (1, 'a'), \
        (2, 'b'), (3, 'c')");
  let engine = Engine.create ~config db in
  let uids = List.init n (fun i -> i + 1) in
  List.iter
    (fun (name, sql) -> ignore (Engine.add_policy engine ~name sql))
    (Templates.per_user ~name_prefix:"deny" ~uids (fun ~subject ->
         Templates.no_access ~relation:"data" ~subject ()));
  let submit uid =
    match Engine.submit engine ~uid admission_query with
    | Engine.Accepted _ -> ()
    | Engine.Rejected (msgs, _) ->
      Printf.eprintf "scale: unexpected rejection (%d policies): %s\n" n
        (String.concat "; " msgs);
      exit 1
  in
  submit (n + 1);
  let t0 = Unix.gettimeofday () in
  for i = 1 to reps do
    submit (n + 1 + (i mod 7))
  done;
  let per_adm = Common.ms (Unix.gettimeofday () -. t0) /. float_of_int reps in
  let u = Engine.unify_stats engine in
  let r = Engine.relevance_stats engine in
  Engine.close engine;
  (per_adm, u, r)

let reps_for n = if n >= 10_000 then 4 else if n >= 1_000 then 12 else 40

let run (scale : Common.scale) =
  let full = scale = Common.full_scale in
  Common.header "Scale: admission latency vs. policy count (per-user template)";
  let counts = [ 6; 100; 1_000 ] @ (if full then [ 10_000 ] else []) in
  let results =
    List.map
      (fun n ->
        let reps = reps_for n in
        let naive, _, _ = measure naive_config n ~reps in
        let scaled, u, r = measure scaled_config n ~reps in
        (n, naive, scaled, u, r))
      counts
  in
  Common.print_table
    [ 8; 12; 12; 9; 14; 12 ]
    [ "policies"; "naive ms"; "scaled ms"; "speedup"; "active/groups"; "rel skips" ]
    (List.map
       (fun (n, naive, scaled, u, r) ->
         [
           string_of_int n;
           Common.f3 naive;
           Common.f3 scaled;
           Common.f1 (naive /. scaled) ^ "x";
           Printf.sprintf "%d/%d" u.Engine.unify_active u.Engine.unify_groups;
           Printf.sprintf "%d/%d" r.Engine.rel_skips r.Engine.rel_checks;
         ])
       results);
  let latency_at n =
    let _, naive, scaled, _, _ =
      List.find (fun (n', _, _, _, _) -> n' = n) results
    in
    (naive, scaled)
  in
  if !Common.smoke then begin
    let naive, scaled = latency_at 1_000 in
    let speedup = naive /. scaled in
    Printf.printf "\nsmoke gate: %.1fx over naive at 1k policies (floor 10x)\n"
      speedup;
    if speedup < 10. then begin
      Printf.eprintf
        "scale: FAIL: %.1fx at 1k policies is below the 10x smoke floor\n"
        speedup;
      exit 1
    end
  end;
  if full then begin
    let _, base = latency_at 6 in
    let _, big = latency_at 10_000 in
    let ratio = big /. base in
    Printf.printf
      "\nfull gate: 10k-policy admission at %.1fx the 6-policy baseline \
       (ceiling 10x)\n"
      ratio;
    if ratio > 10. then begin
      Printf.eprintf
        "scale: FAIL: 10k-policy admission is %.1fx the 6-policy baseline \
         (> 10x)\n"
        ratio;
      exit 1
    end
  end
