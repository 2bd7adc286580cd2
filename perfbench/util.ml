(** Shared measurement helpers: clocks, order statistics, answer
    canonicalization, the result record every workload returns, and its
    JSON rendering. *)

let now = Unix.gettimeofday

let ms s = s *. 1000.

(* Deterministic 30-bit LCG: the benchmark's inputs depend on --seed and
   nothing else. *)
type rng = { mutable state : int }

let rng seed = { state = (seed * 2654435761 + 12345) land 0x3FFFFFFF }

let rand r bound =
  r.state <- ((r.state * 1103515245) + 12345) land 0x3FFFFFFF;
  (r.state lsr 4) mod bound

(* Order statistics ------------------------------------------------------ *)

(* Nearest-rank percentile of an ascending array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let k = int_of_float (Float.ceil (p *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (k - 1)))

let sorted_of_list xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs = percentile (sorted_of_list xs) 0.5

(* The tail: the highest rung of the p50/p90 ladder that still has at
   least ten samples above it, as (percentile, value). Higher rungs move
   with the host's scheduling delays far more than with the program: on
   a 2-core host p99 of the served round trip varied by a third from run
   to run while p90 tracked the median. *)
let tail sorted =
  let n = Array.length sorted in
  let beyond p = n - int_of_float (Float.ceil (p *. float_of_int n)) in
  let p =
    List.fold_left
      (fun best p -> if beyond p >= 10 then p else best)
      0.5
      [ 0.5; 0.9 ]
  in
  (p, percentile sorted p)

let mean xs =
  match xs with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let sum xs = List.fold_left ( +. ) 0.0 xs

(* Answers ------------------------------------------------------------- *)

(* A result as an order-insensitive multiset of rendered rows. *)
let canonical (r : Relational.Executor.result) =
  List.sort compare
    (List.map
       (fun (o : Relational.Executor.row_out) ->
         String.concat "\x1f"
           (Array.to_list (Array.map Relational.Value.to_sql o.Relational.Executor.values)))
       r.Relational.Executor.out_rows)

(* Rows of a log relation, without tids, as a sorted multiset. *)
let table_rows db rel =
  List.sort compare
    (Relational.Table.fold
       (fun acc row ->
         Array.to_list (Array.map Relational.Value.to_sql (Relational.Row.cells row))
         :: acc)
       []
       (Relational.Database.table db rel))

(* Files --------------------------------------------------------------- *)

(* Everything a run writes lives under this directory of the checkout. *)
let out_dir = ".perfbench_out"

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let dirs_made = ref 0

let fresh_dir name =
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  incr dirs_made;
  let dir =
    Filename.concat out_dir (Printf.sprintf "%s-%d-%d" name (Unix.getpid ()) !dirs_made)
  in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  dir

let dir_bytes dir =
  Array.fold_left
    (fun acc f -> acc + (Unix.stat (Filename.concat dir f)).Unix.st_size)
    0 (Sys.readdir dir)

(* Result ---------------------------------------------------------------- *)

type metric = { name : string; value : float; unit : string }

let metric name unit value = { name; value; unit }

type result = {
  attempted : int;
  failed : int;  (** wrong verdict, message or answer; raised; ERR *)
  problems : string list;  (** failed run-level checks (restart, plateau) *)
  e2e : metric list;
  layers : metric list;
  record : (string * string) list;  (** run record: key, JSON value *)
}

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_object fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

let json_metrics ms =
  json_object
    (List.map
       (fun m ->
         (m.name, json_object [ ("value", json_float m.value); ("unit", json_string m.unit) ]))
       ms)
