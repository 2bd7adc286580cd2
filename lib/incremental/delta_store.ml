(** Engine-owned state for incremental (delta-driven) policy evaluation.

    The store records, per policy, a {e base}: a proof marker that the
    policy's query was empty over the state current at some earlier
    submission boundary. The engine establishes bases after every
    accepted submission (acceptance means every active policy was
    proved empty over the now-committed state) and advances each log
    relation's {!Relational.Table.mark_delta_base} watermark at the
    same instant, so a valid base always refers to exactly the rows
    below the current watermarks.

    A base is valid while nothing that could break the emptiness proof
    has happened: the catalog generation must match (DDL, [set_config],
    policy registration and unification rebuilds all bump it via
    [Engine.invalidate]) and every referenced table's version counters
    must match the snapshot taken at establishment. Which counters a
    dependency folds into the snapshot is the branch classification's
    {!Relational.Optimizer.dep_kind}; the per-kind counter sets are all
    monotone, so the snapshot stores their {e sum} — equality of sums
    is equality of every component.

    Aggregate branches additionally carry per-group accumulator state
    ({!agg_state}), folded forward at each establishment from the rows
    the branch's delta streams emitted, and rebuilt from the full
    stream when the base was invalid. The accumulators reproduce
    {!Relational.Aggregate.compute} exactly: COUNT ignores NULL
    arguments, SUM folds {!Relational.Aggregate.sum_step}, MIN/MAX keep
    the first value on ties, DISTINCT keeps the sorted set of non-NULL
    arguments. *)

module Value = Relational.Value
module Ast = Relational.Ast
module Aggregate = Relational.Aggregate

type base = { gen : int; vers : (string * int) list }

(* Mirrors the set aggregate.ml folds DISTINCT arguments into, so
   element order (sorted) and dedup (Value.compare) match exactly. *)
module VSet = Set.Make (struct
  type t = Value.t

  let compare = Value.compare
end)

type acc = {
  mutable rows : int;  (** every folded row (COUNT star) *)
  mutable n : int;  (** non-NULL arguments (COUNT/AVG divisor) *)
  mutable sum : Value.t;  (** running {!Aggregate.sum_step} fold *)
  mutable mm : Value.t option;  (** running MIN/MAX, first-on-tie *)
  mutable set : VSet.t;  (** DISTINCT: the non-NULL argument set *)
}

type group = { key : Value.t array; accs : acc array }

type agg_state = { groups : (string, group) Hashtbl.t }

type t = {
  bases : (string, base) Hashtbl.t;
  agg : (string * int, agg_state) Hashtbl.t;  (** keyed (policy, branch) *)
  mutable delta_evals : int;
  mutable full_evals : int;
  mutable agg_rebuilds : int;
}

type stats = {
  bases : int;
  delta_evals : int;
  full_evals : int;
  agg_groups : int;
  agg_rebuilds : int;
}

let create () : t =
  {
    bases = Hashtbl.create 16;
    agg = Hashtbl.create 16;
    delta_evals = 0;
    full_evals = 0;
    agg_rebuilds = 0;
  }

let reset (t : t) =
  Hashtbl.reset t.bases;
  Hashtbl.reset t.agg;
  t.delta_evals <- 0;
  t.full_evals <- 0;
  t.agg_rebuilds <- 0

let snapshot (cat : Relational.Catalog.t)
    (deps : (string * Relational.Optimizer.dep_kind) list) :
    (string * int) list =
  List.map
    (fun (name, kind) ->
      match Relational.Catalog.find_opt cat name with
      | Some table ->
        let open Relational in
        let v =
          (* Summing is lossless here: every counter is monotone
             non-decreasing, so two equal sums have equal parts. *)
          match kind with
          | Optimizer.Dep_plain -> Table.ver_mut table
          | Optimizer.Dep_log -> Table.ver_unsafe table
          | Optimizer.Dep_log_exact ->
            Table.ver_unsafe table + Table.ver_del table
          | Optimizer.Dep_log_frozen ->
            Table.ver_unsafe table + Table.ver_del table
            + Table.ver_compact table
        in
        (name, v)
      | None -> (name, -1))
    deps

let establish (t : t) name ~gen ~vers =
  Hashtbl.replace t.bases name { gen; vers }

let valid (t : t) name ~gen ~vers =
  match Hashtbl.find_opt t.bases name with
  | None -> false
  | Some b -> b.gen = gen && b.vers = vers

(* Aggregate branch state ---------------------------------------------------- *)

let agg_state (t : t) ~policy ~branch : agg_state =
  let k = (policy, branch) in
  match Hashtbl.find_opt t.agg k with
  | Some s -> s
  | None ->
    let s = { groups = Hashtbl.create 16 } in
    Hashtbl.add t.agg k s;
    s

let agg_clear (s : agg_state) = Hashtbl.reset s.groups

let new_acc () =
  { rows = 0; n = 0; sum = Value.Null; mm = None; set = VSet.empty }

let clone_acc (a : acc) = { a with rows = a.rows }

let fold_row (specs : (Ast.agg * bool) array) ~(nkeys : int) (g : group)
    (row : Value.t array) : unit =
  Array.iteri
    (fun j (agg, distinct) ->
      let a = g.accs.(j) in
      let v = row.(nkeys + j) in
      a.rows <- a.rows + 1;
      if not (Value.is_null v) then
        if distinct then a.set <- VSet.add v a.set
        else begin
          a.n <- a.n + 1;
          match agg with
          | Ast.Sum | Ast.Avg -> a.sum <- Aggregate.sum_step a.sum v
          | Ast.Min -> (
            match a.mm with
            | None -> a.mm <- Some v
            | Some m -> if Value.compare v m < 0 then a.mm <- Some v)
          | Ast.Max -> (
            match a.mm with
            | None -> a.mm <- Some v
            | Some m -> if Value.compare v m > 0 then a.mm <- Some v)
          | Ast.Count | Ast.Count_star -> ()
        end)
    specs

let avg_of (s : Value.t) (len : int) : Value.t =
  if len = 0 then Value.Null
  else
    match s with
    | Value.Int i -> Value.Float (float_of_int i /. float_of_int len)
    | Value.Float f -> Value.Float (f /. float_of_int len)
    | _ -> Value.Null

let finish_acc ((agg, distinct) : Ast.agg * bool) (a : acc) : Value.t =
  if distinct then begin
    let elems = VSet.elements a.set in
    match agg with
    | Ast.Count_star -> Value.Int a.rows
    | Ast.Count -> Value.Int (List.length elems)
    | Ast.Sum -> List.fold_left Aggregate.sum_step Value.Null elems
    | Ast.Avg ->
      avg_of (List.fold_left Aggregate.sum_step Value.Null elems)
        (List.length elems)
    | Ast.Min -> ( match elems with [] -> Value.Null | v :: _ -> v)
    | Ast.Max -> (
      match elems with [] -> Value.Null | _ -> VSet.max_elt a.set)
  end
  else
    match agg with
    | Ast.Count_star -> Value.Int a.rows
    | Ast.Count -> Value.Int a.n
    | Ast.Sum -> a.sum
    | Ast.Avg -> avg_of a.sum a.n
    | Ast.Min | Ast.Max -> (
      match a.mm with None -> Value.Null | Some v -> v)

let group_of (s : agg_state) (specs : (Ast.agg * bool) array) ~nkeys row =
  let key = Array.sub row 0 nkeys in
  let ck = Value.canonical_key_of_array key in
  match Hashtbl.find_opt s.groups ck with
  | Some g -> g
  | None ->
    let g =
      { key; accs = Array.init (Array.length specs) (fun _ -> new_acc ()) }
    in
    Hashtbl.add s.groups ck g;
    g

let agg_absorb (s : agg_state) ~(specs : (Ast.agg * bool) array)
    ~(nkeys : int) (rows : Value.t array list) : unit =
  List.iter
    (fun row -> fold_row specs ~nkeys (group_of s specs ~nkeys row) row)
    rows

let agg_scratch (s : agg_state) ~(specs : (Ast.agg * bool) array)
    ~(nkeys : int) (rows : Value.t array list) :
    (Value.t array * Value.t array) list =
  let touched : (string, group) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun row ->
      let key = Array.sub row 0 nkeys in
      let ck = Value.canonical_key_of_array key in
      let g =
        match Hashtbl.find_opt touched ck with
        | Some g -> g
        | None ->
          let g =
            match Hashtbl.find_opt s.groups ck with
            | Some g0 -> { key = g0.key; accs = Array.map clone_acc g0.accs }
            | None ->
              {
                key;
                accs = Array.init (Array.length specs) (fun _ -> new_acc ());
              }
          in
          Hashtbl.add touched ck g;
          g
      in
      fold_row specs ~nkeys g row)
    rows;
  Hashtbl.fold
    (fun _ g out ->
      (g.key, Array.mapi (fun j a -> finish_acc specs.(j) a) g.accs) :: out)
    touched []

let note_agg_rebuild (t : t) = t.agg_rebuilds <- t.agg_rebuilds + 1

let note_delta_eval (t : t) = t.delta_evals <- t.delta_evals + 1

let note_full_eval (t : t) = t.full_evals <- t.full_evals + 1

let stats (t : t) : stats =
  {
    bases = Hashtbl.length t.bases;
    delta_evals = t.delta_evals;
    full_evals = t.full_evals;
    agg_groups =
      Hashtbl.fold (fun _ s acc -> acc + Hashtbl.length s.groups) t.agg 0;
    agg_rebuilds = t.agg_rebuilds;
  }
