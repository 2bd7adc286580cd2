(** Maintained secondary indexes.

    An index maps the value of one column to the tuple ids of the rows
    holding that value. Two physical shapes exist:

    - [Hash] — a hashtable keyed on the {!Value.t} itself (hash
      {!Value.hash}-compatible, equality {!Value.equal}), supporting
      equality lookups only;
    - [Sorted] — a balanced map ordered by {!Value.compare}, supporting
      equality lookups and range scans.

    Entry semantics follow {!Value.equal}: [Null] keys are stored (under
    their own key) and integral floats collapse onto the matching int, so
    a lookup returns exactly the rows whose cell is [Value.equal] to the
    probe. The one refinement is NaN, which both shapes treat as equal to
    itself (as {!Value.compare} does) so that a stored NaN can be found
    and removed again. SQL's NULL comparison rules (a predicate involving
    NULL is false) are the {e caller's} concern: the compiled access path
    gates NULL probes and range scans skip the [Null] key.

    Each key owns a bucket: its tids in ascending order, in a growable
    int array. Tids are handed out by a monotone counter, so inserts
    append at the bucket end and a savepoint rollback — which removes the
    newest tids first — pops it; neither walks the bucket nor allocates.
    Bulk removals ({!remove_many}) gather the doomed tids per bucket and
    compact each touched bucket once, in place.

    Indexes store tids, not rows: the owning {!Table} resolves tids back
    to rows (rows are tid-sorted, so bucket order is heap scan order).
    Maintenance is driven by the table; this module never sees the
    heap. *)

type kind = Hash | Sorted

(* Index key equality: [Value.equal] made reflexive on NaN, which is
   exactly [Value.compare a b = 0] — the Sorted shape's notion. *)
let key_equal (a : Value.t) (b : Value.t) =
  match a, b with
  | Float x, Float y -> Float.equal x y
  | _ -> Value.equal a b

(* Consistent with [key_equal] ([Value.hash] boxes a float for every
   int). Ints below 2^53 convert to floats exactly, so they and the
   integral floats they equal hash as that int; beyond it, both sides
   hash the (integral) float the int rounds to. *)
let exact_int_limit = 1 lsl 53

let key_hash (v : Value.t) =
  match v with
  | Int i when i > -exact_int_limit && i < exact_int_limit -> Hashtbl.hash i
  | Int i -> Hashtbl.hash (float_of_int i)
  | Float f
    when Float.is_integer f && Float.abs f < float_of_int exact_int_limit ->
    Hashtbl.hash (int_of_float f)
  | Float f -> Hashtbl.hash f (* the runtime hash normalizes NaN, -0.0 *)
  | Null | Bool _ | Str _ -> Value.hash v

module KeyTbl = Hashtbl.Make (struct
  type t = Value.t

  let equal = key_equal
  let hash = key_hash
end)

module VMap = Map.Make (struct
  type t = Value.t

  let compare = Value.compare
end)

type bucket = {
  mutable tids : int array;  (** ascending; slots [>= len] are junk *)
  mutable len : int;
  mutable doomed : int list;  (** tids queued by {!remove_many} *)
}

type store = H of bucket KeyTbl.t | S of bucket VMap.t ref

type t = {
  name : string;
  column : int;
  column_name : string;
  kind : kind;
  store : store;
  mutable entries : int;
}

let create ~name ~column ~column_name kind =
  let store =
    match kind with
    | Hash -> H (KeyTbl.create 64)
    | Sorted -> S (ref VMap.empty)
  in
  { name; column; column_name; kind; store; entries = 0 }

let name t = t.name

let column t = t.column

let column_name t = t.column_name

let kind t = t.kind

let entries t = t.entries

let kind_to_string = function Hash -> "hash" | Sorted -> "sorted"

(* Buckets ----------------------------------------------------------------- *)

(* Raises [Not_found] rather than returning an option: the rollback path
   probes once per removed row and must not allocate. *)
let find_bucket t v =
  match t.store with H tbl -> KeyTbl.find tbl v | S map -> VMap.find v !map

let drop_bucket t v =
  match t.store with
  | H tbl -> KeyTbl.remove tbl v
  | S map -> map := VMap.remove v !map

(* First position in [b] holding a tid >= [tid]. *)
let lower_bound b tid =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) lsr 1 in
      if b.tids.(mid) < tid then go (mid + 1) hi else go lo mid
  in
  go 0 b.len

(* Maintenance ------------------------------------------------------------- *)

(* Appending the newest tid is O(1) amortized; an older tid (the table
   never adds one, but the module stays correct if a caller does) is
   shifted into place. *)
let add t (v : Value.t) (tid : int) =
  (match find_bucket t v with
  | exception Not_found -> (
    let b = { tids = [| tid |]; len = 1; doomed = [] } in
    match t.store with
    | H tbl -> KeyTbl.replace tbl v b
    | S map -> map := VMap.add v b !map)
  | b ->
    if b.len = Array.length b.tids then begin
      let grown = Array.make (2 * b.len) 0 in
      Array.blit b.tids 0 grown 0 b.len;
      b.tids <- grown
    end;
    if b.len = 0 || b.tids.(b.len - 1) < tid then b.tids.(b.len) <- tid
    else begin
      let pos = lower_bound b tid in
      Array.blit b.tids pos b.tids (pos + 1) (b.len - pos);
      b.tids.(pos) <- tid
    end;
    b.len <- b.len + 1);
  t.entries <- t.entries + 1

(* Newest-first removal (rollback) hits the last slot: O(1), no
   allocation. Any other tid is found by binary search and the tail
   shifted down over it. *)
let remove t (v : Value.t) (tid : int) =
  match find_bucket t v with
  | exception Not_found -> ()
  | b ->
    let last = b.len - 1 in
    let pos =
      if last >= 0 && b.tids.(last) = tid then last else lower_bound b tid
    in
    if pos < b.len && b.tids.(pos) = tid then begin
      Array.blit b.tids (pos + 1) b.tids pos (last - pos);
      b.len <- last;
      t.entries <- t.entries - 1;
      if b.len = 0 then drop_bucket t v
    end

let rec drop_below tid = function
  | x :: rest when x < tid -> drop_below tid rest
  | l -> l

(* Compact [b] in place, dropping every tid of the ascending list
   [doomed]; returns how many were present. Slots below the first doomed
   tid cannot move, so the walk starts there. *)
let compact b doomed =
  match doomed with
  | [] -> 0
  | first :: _ ->
    let start = lower_bound b first in
    let j = ref start and d = ref doomed in
    for i = start to b.len - 1 do
      let tid = b.tids.(i) in
      d := drop_below tid !d;
      match !d with
      | x :: rest when x = tid -> d := rest
      | _ ->
        b.tids.(!j) <- tid;
        incr j
    done;
    let removed = b.len - !j in
    b.len <- !j;
    (* Give back the slack of a bucket that shrank to a quarter. *)
    if b.len > 0 && 4 * b.len < Array.length b.tids then
      b.tids <- Array.sub b.tids 0 (2 * b.len);
    removed

let rec strictly_ascending = function
  | a :: (b :: _ as rest) -> a < b && strictly_ascending rest
  | _ -> true

let remove_many t (iter : (Value.t -> int -> unit) -> unit) =
  let touched = ref [] in
  iter (fun v tid ->
      match find_bucket t v with
      | exception Not_found -> ()
      | b ->
        if b.doomed = [] then touched := (v, b) :: !touched;
        b.doomed <- tid :: b.doomed);
  List.iter
    (fun (v, b) ->
      (* Fed newest-first (the table's order), the queue is already
         strictly ascending; sort only when a caller fed otherwise. *)
      let doomed =
        if strictly_ascending b.doomed then b.doomed
        else List.sort_uniq Int.compare b.doomed
      in
      b.doomed <- [];
      t.entries <- t.entries - compact b doomed;
      if b.len = 0 then drop_bucket t v)
    !touched

let clear t =
  (match t.store with
  | H tbl -> KeyTbl.reset tbl
  | S map -> map := VMap.empty);
  t.entries <- 0

(* Lookups ----------------------------------------------------------------- *)

(* Tids whose cell is [Value.equal] to [v], ascending (a fresh array). *)
let lookup t (v : Value.t) : int array =
  match find_bucket t v with
  | exception Not_found -> [||]
  | b -> Array.sub b.tids 0 b.len

type bound = Value.t * bool  (** value, inclusive? *)

(* Tids whose (non-Null) cell lies within the bounds under
   {!Value.compare}; unsorted. Rows keyed [Null] are always excluded —
   every SQL comparison against NULL is false. *)
let range t ?(lo : bound option) ?(hi : bound option) () : int array =
  match t.store with
  | H _ ->
    Errors.runtime_error "index %s is a hash index and cannot serve ranges"
      t.name
  | S map ->
    let above v =
      match lo with
      | None -> true
      | Some (b, incl) ->
        let c = Value.compare v b in
        if incl then c >= 0 else c > 0
    in
    let below v =
      match hi with
      | None -> true
      | Some (b, incl) ->
        let c = Value.compare v b in
        if incl then c <= 0 else c < 0
    in
    (* Seek to the lower bound, then walk upward until past the upper. *)
    let seq =
      match lo with
      | Some (b, _) -> VMap.to_seq_from b !map
      | None -> VMap.to_seq !map
    in
    let hits = ref [] and total = ref 0 in
    let rec walk s =
      match s () with
      | Seq.Nil -> ()
      | Seq.Cons ((v, b), rest) ->
        if not (below v) then () (* keys ascend: nothing further matches *)
        else begin
          if (not (Value.is_null v)) && above v then begin
            hits := b :: !hits;
            total := !total + b.len
          end;
          walk rest
        end
    in
    walk seq;
    let out = Array.make !total 0 in
    ignore
      (List.fold_left
         (fun pos b ->
           Array.blit b.tids 0 out pos b.len;
           pos + b.len)
         0 !hits);
    out

let pp ppf t =
  Format.fprintf ppf "%s (%s on %s, %d entries)" t.name (kind_to_string t.kind)
    t.column_name t.entries
