(** Per-query timing breakdown, matching the phases the paper reports:
    usage tracking (log generation), policy evaluation, the three log
    compaction phases (mark / delete / insert), and the user query.
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

val create : unit -> t
val zero : t

(** Sum of the three compaction phases. *)
val compaction_total : t -> float

(** Everything except the user query. *)
val overhead : t -> float

val total : t -> float
val add : t -> t -> t

val sum : t list -> t
val scale : float -> t -> t
val mean : t list -> t

(** [timed record f] runs [f], passing the elapsed seconds to [record]. *)
val timed : (float -> unit) -> (unit -> 'a) -> 'a

(** Seconds to milliseconds. *)
val ms : float -> float

val pp : Format.formatter -> t -> unit
