(** Heap tables with maintained secondary indexes.

    A table stores rows in insertion order in a growable vector. Each row
    receives a monotonically increasing tuple id. Tables support:

    - appends (with cell type checking against the schema),
    - predicate and tid-set deletion (used by DML and by log compaction),
    - savepoints: since all mutation between a savepoint and its
      rollback is append-only in the DataLawyer engine (tentative log
      increments), a savepoint is just the current row count and rollback
      truncates to it. Taking a savepoint freezes deletions until it is
      released, enforced with [in_txn].

    Any column may carry declared secondary indexes ({!Index}); every
    mutation path — [insert], [bulk_load], [delete_where], [retain_tids],
    [update_where], [rollback_to], [clear] — keeps them exactly
    consistent with the heap. Index lookups return rows in tid order,
    which (rows being tid-sorted by construction) is heap scan order. *)

type t = {
  name : string;
  schema : Schema.t;
  rows : Row.t Vec.t;
  mutable next_tid : int;
  mutable in_txn : bool;
  mutable indexes : Index.t list;
  mutable delta_base : int;
      (* tid watermark for incremental policy evaluation: rows with
         tid >= delta_base form the delta (Δ) against the state the
         engine last proved its policies empty over *)
  mutable ver_mut : int;  (* bumped by every mutation *)
  mutable ver_unsafe : int;
      (* bumped only by the mutations that can grow a monotone query's
         result without appending new tids: update_where, clear,
         bulk_load (recovery reload) *)
  mutable ver_del : int;
      (* bumped only by predicate deletion (delete_where): arbitrary DML
         removals, which break carried aggregate state even though they
         cannot grow a monotone result *)
  mutable ver_compact : int;
      (* bumped only by tid-set deletion (retain_tids): witness-driven
         log compaction, which retains every tuple contributing to an
         active policy — running SUM/COUNT state survives it, while
         MIN/MAX state (which any removal can break) treats it like a
         delete *)
  mutable columnar : Column.t option;
      (* opt-in columnar mirror for batch scans, kept consistent with
         the heap by the same mutation hooks that maintain indexes *)
}

(* Extra consistency checks (tid monotonicity on insert); off by default,
   enabled by the test suite. *)
let debug_checks = ref false

let dummy_row = Row.make ~tid:(-1) [||]

let create ~name ~schema =
  {
    name;
    schema;
    rows = Vec.create ~dummy:dummy_row ();
    next_tid = 0;
    in_txn = false;
    indexes = [];
    delta_base = 0;
    ver_mut = 0;
    ver_unsafe = 0;
    ver_del = 0;
    ver_compact = 0;
    columnar = None;
  }

let name t = t.name

let schema t = t.schema

let row_count t = Vec.length t.rows

let check_cells t cells =
  let n = Schema.arity t.schema in
  if Array.length cells <> n then
    Errors.runtime_error "table %s expects %d columns, got %d" t.name n
      (Array.length cells);
  Array.iteri
    (fun i v ->
      match Value.type_of v with
      | None -> () (* NULL fits any column *)
      | Some ty ->
        let col = Schema.column t.schema i in
        let ok =
          Ty.equal ty col.Schema.ty
          || (ty = Ty.Int && col.Schema.ty = Ty.Float)
        in
        if not ok then
          Errors.type_error "table %s column %s: expected %s, got %s (%s)"
            t.name col.Schema.name
            (Ty.to_string col.Schema.ty)
            (Ty.to_string ty) (Value.to_string v))
    cells

(* Index maintenance hooks ------------------------------------------------- *)

(* Direct recursion rather than [List.iter] with a closure: these run once
   per inserted or rolled-back row and must not allocate. *)
let rec index_add_to ixs (row : Row.t) =
  match ixs with
  | [] -> ()
  | ix :: rest ->
    Index.add ix (Row.cell row (Index.column ix)) (Row.tid row);
    index_add_to rest row

let rec index_remove_from ixs (row : Row.t) =
  match ixs with
  | [] -> ()
  | ix :: rest ->
    Index.remove ix (Row.cell row (Index.column ix)) (Row.tid row);
    index_remove_from rest row

(* Refill one index from the heap, in tid order (each add appends). *)
let index_rebuild t ix =
  Index.clear ix;
  let col = Index.column ix in
  Vec.iter (fun row -> Index.add ix (Row.cell row col) (Row.tid row)) t.rows

(* Columnar-mirror maintenance hooks --------------------------------------- *)

let columnar t = t.columnar

(* Refill the mirror from the heap (deletion and in-place update paths,
   both cold relative to policy evaluation). *)
let columnar_rebuild t =
  match t.columnar with
  | None -> ()
  | Some store ->
    Column.rebuild store ~row_count:(Vec.length t.rows) (fun add ->
        Vec.iter (fun row -> add ~tid:(Row.tid row) (Row.cells row)) t.rows)

let enable_columnar t =
  match t.columnar with
  | Some store -> store
  | None ->
    let store = Column.create ~schema:t.schema in
    Vec.iter
      (fun row -> Column.append store ~tid:(Row.tid row) (Row.cells row))
      t.rows;
    t.columnar <- Some store;
    store

(* Insert a row; returns its tuple id. *)
let insert t cells =
  check_cells t cells;
  let tid = t.next_tid in
  t.next_tid <- tid + 1;
  t.ver_mut <- t.ver_mut + 1;
  (* Invariant: rows are tid-sorted (see [find_by_tid] and the index
     access paths). [next_tid] only grows, so appends preserve it; the
     assert guards any future bulk path that constructs rows directly. *)
  if !debug_checks && Vec.length t.rows > 0 then
    assert (Row.tid (Vec.get t.rows (Vec.length t.rows - 1)) < tid);
  let row = Row.make ~tid cells in
  Vec.push t.rows row;
  index_add_to t.indexes row;
  (match t.columnar with
  | None -> ()
  | Some store -> Column.append store ~tid cells);
  tid

let iter f t = Vec.iter f t.rows

let fold f init t = Vec.fold_left f init t.rows

let rows t = Vec.to_list t.rows

let to_seq t =
  let rec aux i () =
    if i >= Vec.length t.rows then Seq.Nil else Seq.Cons (Vec.get t.rows i, aux (i + 1))
  in
  aux 0

let find_by_tid t tid =
  (* Rows are sorted by tid (append-only ids; asserted in [insert] under
     [debug_checks]), so binary search works. *)
  let n = Vec.length t.rows in
  let rec go lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) / 2 in
      let r = Vec.get t.rows mid in
      if Row.tid r = tid then Some r
      else if Row.tid r < tid then go (mid + 1) hi
      else go lo mid
  in
  go 0 n

(* Indexes ----------------------------------------------------------------- *)

let indexes t = t.indexes

let find_index t iname =
  let l = String.lowercase_ascii iname in
  List.find_opt (fun ix -> String.lowercase_ascii (Index.name ix) = l) t.indexes

let index_on t ~column =
  List.filter (fun ix -> Index.column ix = column) t.indexes

let create_index t ~name ~column ~kind =
  (match find_index t name with
  | Some _ -> Errors.catalog_error "index %s already exists on %s" name t.name
  | None -> ());
  let col =
    match Schema.find_index t.schema column with
    | Some i -> i
    | None -> Errors.bind_error "no column %S in table %s" column t.name
  in
  let column_name = (Schema.column t.schema col).Schema.name in
  let ix = Index.create ~name ~column:col ~column_name kind in
  index_rebuild t ix;
  t.indexes <- t.indexes @ [ ix ];
  ix

let drop_index t iname =
  match find_index t iname with
  | None -> Errors.catalog_error "no index %s on table %s" iname t.name
  | Some ix -> t.indexes <- List.filter (fun i -> i != ix) t.indexes

(* Tids of a probe, ascending and deduplicated: monomorphic int sort plus
   in-place dedup (the polymorphic [List.sort_uniq compare] is
   measurable at large probes). Sorts [a] in place. *)
let sorted_uniq_tids (a : int array) =
  Array.sort Int.compare a;
  let n = Array.length a in
  if n = 0 then a
  else begin
    let k = ref 1 in
    for i = 1 to n - 1 do
      if a.(i) <> a.(!k - 1) then begin
        a.(!k) <- a.(i);
        incr k
      end
    done;
    if !k = n then a else Array.sub a 0 !k
  end

(* Fetch the rows behind ascending tids, in tid (= heap scan) order. *)
let rows_of_sorted_tids t (tids : int array) =
  Array.fold_right
    (fun tid acc ->
      match find_by_tid t tid with Some r -> r :: acc | None -> acc)
    tids []

(* Index buckets are already ascending and duplicate-free; a range
   concatenates several. *)
let index_lookup t ix v = rows_of_sorted_tids t (Index.lookup ix v)

let index_range t ix ?lo ?hi () =
  rows_of_sorted_tids t (sorted_uniq_tids (Index.range ix ?lo ?hi ()))

(* Tid-only probe variant: the same tids in the same (tid) order as the
   row-fetching version above, without materializing rows. The batch
   executor resolves these against the columnar mirror positionally. *)
let index_lookup_tids _t ix v = Index.lookup ix v

(* Deletion --------------------------------------------------------------- *)

let guard_no_txn t op =
  if t.in_txn then
    Errors.runtime_error "table %s: %s not allowed inside a savepoint" t.name op

let bulk_load t rows =
  guard_no_txn t "bulk_load";
  t.ver_unsafe <- t.ver_unsafe + 1;
  List.iter (fun cells -> ignore (insert t cells)) rows

(* Keep rows satisfying [keep_row] (called once per row); returns the
   number removed. Each index drops the removed rows in one
   [Index.remove_many] pass: every touched bucket is compacted once. *)
let filter_rows t keep_row =
  t.ver_mut <- t.ver_mut + 1;
  let dropped = ref [] in
  let keep =
    if t.indexes = [] then keep_row
    else fun r ->
      keep_row r
      || begin
           dropped := r :: !dropped;
           false
         end
  in
  let removed = Vec.filter_in_place keep t.rows in
  if removed > 0 then begin
    List.iter
      (fun ix ->
        let col = Index.column ix in
        Index.remove_many ix (fun f ->
            List.iter (fun r -> f (Row.cell r col) (Row.tid r)) !dropped))
      t.indexes;
    columnar_rebuild t
  end;
  removed

(* Delete all rows whose tid is NOT in [keep]; returns number removed. *)
let retain_tids t keep =
  guard_no_txn t "retain_tids";
  t.ver_compact <- t.ver_compact + 1;
  filter_rows t (fun r -> Hashtbl.mem keep (Row.tid r))

let delete_where t pred =
  guard_no_txn t "delete_where";
  t.ver_del <- t.ver_del + 1;
  filter_rows t (fun r -> not (pred r))

let clear t =
  guard_no_txn t "clear";
  t.ver_mut <- t.ver_mut + 1;
  t.ver_unsafe <- t.ver_unsafe + 1;
  List.iter Index.clear t.indexes;
  Vec.clear t.rows;
  match t.columnar with None -> () | Some store -> Column.clear store

(* Update ----------------------------------------------------------------- *)

(* An index whose key changes for some updated row is rebuilt from the
   heap once at the end (an updated row keeps its old tid, which an
   append-ordered bucket can't take cheaply one row at a time); an index
   whose keys all stay put needs nothing. The [finally] keeps indexes
   and mirror in sync with the rows already rewritten if [f] or the type
   check raises part-way. *)
let update_where t pred f =
  guard_no_txn t "update_where";
  t.ver_mut <- t.ver_mut + 1;
  t.ver_unsafe <- t.ver_unsafe + 1;
  let n = ref 0 in
  let stale = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter (index_rebuild t) !stale;
      if !n > 0 then columnar_rebuild t)
    (fun () ->
      Vec.iteri
        (fun i r ->
          if pred r then begin
            let cells = f (Row.cells r) in
            check_cells t cells;
            List.iter
              (fun ix ->
                let c = Index.column ix in
                if
                  (not (List.memq ix !stale))
                  && Value.compare (Row.cell r c) cells.(c) <> 0
                then stale := ix :: !stale)
              t.indexes;
            Vec.set t.rows i (Row.make ~tid:(Row.tid r) cells);
            incr n
          end)
        t.rows);
  !n

(* Savepoints ------------------------------------------------------------- *)

(* The tid counter is captured too: rolling back then restores it, so
   the tids a table hands out don't depend on how many tentative rows
   were appended and discarded along the way. (Deletions are blocked
   while a savepoint is outstanding, so no discarded tid can have
   leaked into provenance or an index.) *)
type savepoint = { sp_pos : int; sp_tid : int }

let savepoint t : savepoint =
  t.in_txn <- true;
  { sp_pos = Vec.length t.rows; sp_tid = t.next_tid }

let rollback_to t (sp : savepoint) =
  t.in_txn <- false;
  t.ver_mut <- t.ver_mut + 1;
  (* Newest first: each row's tid is the newest under its key in every
     index, so each step pops a bucket end — O(1), no allocation. *)
  if t.indexes <> [] then
    for i = Vec.length t.rows - 1 downto sp.sp_pos do
      index_remove_from t.indexes (Vec.get t.rows i)
    done;
  Vec.truncate t.rows sp.sp_pos;
  (match t.columnar with
  | None -> ()
  | Some store -> Column.truncate store sp.sp_pos);
  t.next_tid <- sp.sp_tid

let release t (_sp : savepoint) = t.in_txn <- false

let iter_since f t (sp : savepoint) =
  for i = sp.sp_pos to Vec.length t.rows - 1 do
    f (Vec.get t.rows i)
  done

let fold_since f init t (sp : savepoint) =
  let acc = ref init in
  for i = sp.sp_pos to Vec.length t.rows - 1 do
    acc := f !acc (Vec.get t.rows i)
  done;
  !acc

(* Delta watermark --------------------------------------------------------- *)

let delta_base t = t.delta_base

let mark_delta_base t = t.delta_base <- t.next_tid

let ver_mut t = t.ver_mut

let ver_unsafe t = t.ver_unsafe

let ver_del t = t.ver_del

let ver_compact t = t.ver_compact

(* Fold over the delta: rows with tid >= delta_base. Rows are tid-sorted
   (module invariant), so a binary lower bound finds the start. *)
let fold_delta f init t =
  let n = Vec.length t.rows in
  let base = t.delta_base in
  let rec lb lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if Row.tid (Vec.get t.rows mid) < base then lb (mid + 1) hi else lb lo mid
  in
  let acc = ref init in
  for i = lb 0 n to n - 1 do
    acc := f !acc (Vec.get t.rows i)
  done;
  !acc

(* Fold over the complement of the delta: rows with tid < delta_base.
   Same binary lower bound as [fold_delta], iterating the prefix. *)
let fold_below f init t =
  let n = Vec.length t.rows in
  let base = t.delta_base in
  let rec lb lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if Row.tid (Vec.get t.rows mid) < base then lb (mid + 1) hi else lb lo mid
  in
  let acc = ref init in
  for i = 0 to lb 0 n - 1 do
    acc := f !acc (Vec.get t.rows i)
  done;
  !acc

let pp ppf t =
  Format.fprintf ppf "%s%a [%d rows]" t.name Schema.pp t.schema (row_count t)
