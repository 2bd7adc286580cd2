(** In-memory span store for traced runs. A span is one timed call the
    benchmark made (or a phase the engine reported through [Stats]),
    tagged with the submission it belongs to. Spans are kept in memory
    and written out as JSON lines when the run ends. *)

type span = {
  sub_id : int;
  name : string;
  parent : string option;
  start_ms : float;  (** from the start of the timed window *)
  dur_ms : float;
  reported : bool;  (** a [Stats] phase: laid end to end, not clocked here *)
}

type t = { t0 : float; mutable spans : span list }

let create t0 = { t0; spans = [] }

let add t ~sub_id ?parent ?(reported = false) name ~start ~dur =
  t.spans <-
    { sub_id; name; parent; start_ms = Util.ms (start -. t.t0); dur_ms = Util.ms dur; reported }
    :: t.spans

(* Time [f] as span [name] of submission [sub_id]; returns the result
   and the elapsed seconds. *)
let span t ~sub_id ?parent name f =
  let start = Util.now () in
  let r = f () in
  let dur = Util.now () -. start in
  add t ~sub_id ?parent name ~start ~dur;
  (r, dur)

let write t path =
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc
        (Util.json_object
           [
             ("sub", string_of_int s.sub_id);
             ("span", Util.json_string s.name);
             ("parent", match s.parent with Some p -> Util.json_string p | None -> "null");
             ("start_ms", Util.json_float s.start_ms);
             ("dur_ms", Util.json_float s.dur_ms);
             ("reported", string_of_bool s.reported);
           ]);
      output_char oc '\n')
    (List.rev t.spans);
  close_out oc
