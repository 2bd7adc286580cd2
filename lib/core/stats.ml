(** Per-query timing breakdown, matching the phases the paper reports:
    usage tracking (log generation), policy evaluation, the three log
    compaction phases (mark / delete / insert) and the user query itself.
    Times are wall-clock seconds. *)

type t = {
  mutable log_track : float;
  mutable policy_eval : float;
  mutable compact_mark : float;
  mutable compact_delete : float;
  mutable compact_insert : float;
  mutable query_exec : float;
  mutable persist : float;  (** WAL append / checkpoint time *)
  mutable policy_calls : int;  (** number of policy (sub)queries issued *)
  mutable rows_logged : int;  (** log tuples persisted for this query *)
}

let create () =
  {
    log_track = 0.;
    policy_eval = 0.;
    compact_mark = 0.;
    compact_delete = 0.;
    compact_insert = 0.;
    query_exec = 0.;
    persist = 0.;
    policy_calls = 0;
    rows_logged = 0;
  }

let compaction_total s = s.compact_mark +. s.compact_delete +. s.compact_insert

let overhead s = s.log_track +. s.policy_eval +. compaction_total s +. s.persist

let total s = overhead s +. s.query_exec

let add a b =
  {
    log_track = a.log_track +. b.log_track;
    policy_eval = a.policy_eval +. b.policy_eval;
    compact_mark = a.compact_mark +. b.compact_mark;
    compact_delete = a.compact_delete +. b.compact_delete;
    compact_insert = a.compact_insert +. b.compact_insert;
    query_exec = a.query_exec +. b.query_exec;
    persist = a.persist +. b.persist;
    policy_calls = a.policy_calls + b.policy_calls;
    rows_logged = a.rows_logged + b.rows_logged;
  }

let zero = create ()

let sum = List.fold_left add zero

let scale k s =
  {
    log_track = s.log_track *. k;
    policy_eval = s.policy_eval *. k;
    compact_mark = s.compact_mark *. k;
    compact_delete = s.compact_delete *. k;
    compact_insert = s.compact_insert *. k;
    query_exec = s.query_exec *. k;
    persist = s.persist *. k;
    policy_calls = int_of_float (float_of_int s.policy_calls *. k);
    rows_logged = int_of_float (float_of_int s.rows_logged *. k);
  }

let mean = function
  | [] -> zero
  | ss -> scale (1. /. float_of_int (List.length ss)) (sum ss)

(* Time an action, adding the elapsed seconds via [record]. Wall clock
   ([Unix.gettimeofday]) can step backwards under NTP adjustment; a
   negative delta would silently corrupt every aggregate built from
   these samples, so clamp to 0. *)
let timed (record : float -> unit) (f : unit -> 'a) : 'a =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let d = Unix.gettimeofday () -. t0 in
  record (if d > 0. then d else 0.);
  r

let ms x = x *. 1000.

let pp ppf s =
  Format.fprintf ppf
    "track %.3fms | eval %.3fms (%d calls) | compact %.3f/%.3f/%.3fms | persist \
     %.3fms | query %.3fms"
    (ms s.log_track) (ms s.policy_eval) s.policy_calls (ms s.compact_mark)
    (ms s.compact_delete) (ms s.compact_insert) (ms s.persist) (ms s.query_exec)
