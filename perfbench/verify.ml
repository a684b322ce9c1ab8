(* Answer checking, done after the timed window.  Every answer is
   recomputed in-process with a fresh evaluation cache ([Eval.count]
   without [?cache]) against a model of the named databases that follows
   the script's own mutations; a seeded subset of evaluations is also
   checked against [Solver_ref], component by component.  A wrong,
   non-ok, cached or missing answer is a failed operation. *)

module Json = Bagcq_wire.Json
module Proto = Bagcq_wire.Proto
module Eval = Bagcq_hom.Eval
module Solver_ref = Bagcq_hom.Solver_ref
module Decomp = Bagcq_hom.Decomp
module Budget = Bagcq_guard.Budget
module Nat = Bagcq_bignum.Nat
module Structure = Bagcq_relational.Structure
module Query = Bagcq_cq.Query

type model = {
  dbs : (string, Structure.t) Hashtbl.t;
  regs : (string, Query.t list) Hashtbl.t;
}

let create () = { dbs = Hashtbl.create 8; regs = Hashtbl.create 8 }

type summary = {
  mutable failed : int;  (* timed operations *)
  mutable setup_failed : int;
  mutable messages : string list;  (* first few failures, for stderr *)
  mutable ref_checked : int;
  mutable ref_skipped : int;  (* reference enumeration over its fuel *)
}

let db model name =
  match Hashtbl.find_opt model.dbs name with
  | Some d -> d
  | None -> failwith ("no such database in the model: " ^ name)

(* Solver_ref enumerates homomorphisms one by one, so it runs per
   connected component (θ↑k would otherwise enumerate count^k maps) and
   under a fuel cap; components equal up to renaming are counted once. *)
let reference q d =
  let memo = Hashtbl.create 4 in
  List.fold_left
    (fun acc c ->
      let key = Query.to_string (Decomp.canonical c) in
      let n =
        match Hashtbl.find_opt memo key with
        | Some n -> n
        | None ->
            let n =
              Nat.of_int
                (Solver_ref.count ~budget:(Budget.create ~fuel:2_000_000 ()) c d)
            in
            Hashtbl.add memo key n;
            n
      in
      Nat.mul acc n)
    Nat.one (Query.components q)

let cross_check s q d want =
  match reference q d with
  | r ->
      s.ref_checked <- s.ref_checked + 1;
      if Nat.equal r want then Ok () else Error "Eval.count disagrees with Solver_ref"
  | exception Budget.Exhausted_ _ ->
      s.ref_skipped <- s.ref_skipped + 1;
      Ok ()

let expect_str name want resp =
  match Json.get_string name resp with
  | Some got when got = want -> Ok ()
  | Some got -> Error (Printf.sprintf "%s: got %s, want %s" name got want)
  | None -> Error ("missing " ^ name)

let expect_int name want resp =
  match Json.get_int name resp with
  | Some got when got = want -> Ok ()
  | Some got -> Error (Printf.sprintf "%s: got %d, want %d" name got want)
  | None -> Error ("missing " ^ name)

let expect_bool name want resp =
  match Json.get_bool name resp with
  | Some got when got = want -> Ok ()
  | _ -> Error (Printf.sprintf "%s is not %b" name want)

let ( let* ) = Result.bind

let rows_of resp =
  match Json.member "counts" resp with
  | Some (Json.List l) ->
      List.filter_map
        (fun r ->
          match (Json.get_string "query" r, Json.get_string "count" r) with
          | Some q, Some c -> Some (q, c)
          | _ -> None)
        l
  | _ -> []

(* Apply one request to the model and check its answer.  [full] is false
   for set-up requests, whose answers only need to be [ok];
   [with_ref] adds the Solver_ref cross-check. *)
let check model ~full ~with_ref s line response =
  let req =
    match Proto.decode_line line with
    | Ok r -> r
    | Error e -> failwith ("script line does not decode: " ^ e)
  in
  let apply () =
    match req.Proto.op with
    | Proto.Db_create { name; db } -> Hashtbl.replace model.dbs name db
    | Proto.Db_insert { name; fact = sym, tup } ->
        Hashtbl.replace model.dbs name (Structure.add_atom (db model name) sym tup)
    | Proto.Db_delete { name; fact = sym, tup } ->
        Hashtbl.replace model.dbs name (Structure.remove_atom (db model name) sym tup)
    | Proto.Register { name; query } ->
        let qs = Option.value ~default:[] (Hashtbl.find_opt model.regs name) in
        if not (List.exists (Query.equal query) qs) then
          Hashtbl.replace model.regs name (qs @ [ query ])
    | _ -> ()
  in
  apply ();
  let result =
    match response with
    | None -> Error "no answer"
    | Some text -> (
        match Json.parse text with
        | Error e -> Error ("unparsable answer: " ^ e)
        | Ok resp ->
            let* () = expect_str "status" "ok" resp in
            let* () =
              if Json.member "id" resp = req.Proto.id then Ok ()
              else Error "answer id does not match the request"
            in
            let* () =
              match Json.get_bool "cached" resp with
              | Some true -> Error "answered from the result memo"
              | _ -> Ok ()
            in
            if not full then Ok ()
            else
              match req.Proto.op with
              | Proto.Eval { query; db = dbref } ->
                  let d =
                    match dbref with
                    | Proto.Db_inline d -> d
                    | Proto.Db_named name -> db model name
                  in
                  let want = Eval.count query d in
                  let* () = expect_str "count" (Nat.to_string want) resp in
                  let* () = expect_bool "satisfied" (not (Nat.is_zero want)) resp in
                  if with_ref then cross_check s query d want else Ok ()
              | Proto.Db_insert { name; _ } | Proto.Db_delete { name; _ } ->
                  expect_int "atoms" (Structure.total_atoms (db model name)) resp
              | Proto.Counts { name } ->
                  let d = db model name in
                  let qs = Option.value ~default:[] (Hashtbl.find_opt model.regs name) in
                  let got = rows_of resp in
                  if List.length got <> List.length qs then Error "counts: wrong number of rows"
                  else
                    List.fold_left
                      (fun acc q ->
                        let* () = acc in
                        let n = Eval.count q d in
                        let want = Nat.to_string n in
                        match List.assoc_opt (Query.to_string q) got with
                        | Some c when c = want -> if with_ref then cross_check s q d n else Ok ()
                        | Some c -> Error (Printf.sprintf "counts %s: got %s, want %s" (Query.to_string q) c want)
                        | None -> Error ("counts: missing row " ^ Query.to_string q))
                      (Ok ()) qs
              | Proto.Hunt { samples; _ } ->
                  let* () = expect_bool "violated" false resp in
                  let* () = expect_bool "exhaustive_complete" true resp in
                  expect_int "tested_random" samples resp
              | _ -> Ok ())
  in
  match result with
  | Ok () -> ()
  | Error msg ->
      s.failed <- s.failed + 1;
      if List.length s.messages < 5 then
        s.messages <- Printf.sprintf "%s -> %s" (String.sub line 0 (min 160 (String.length line))) msg :: s.messages

(* Check a whole run: set-up answers for status only, timed answers
   fully, and a seeded 1 % of the timed evaluations against Solver_ref. *)
let run ~seed (script : Workload.t) ~setup_answers ~timed_answers =
  let model = create () in
  let s =
    { failed = 0; setup_failed = 0; messages = []; ref_checked = 0; ref_skipped = 0 }
  in
  let setup = script.Workload.fixtures @ script.Workload.warmup in
  List.iter2 (fun line a -> check model ~full:false ~with_ref:false s line a) setup setup_answers;
  s.setup_failed <- s.failed;
  s.failed <- 0;
  let st = Random.State.make [| seed; 7 |] in
  Array.iteri
    (fun i line ->
      let with_ref = Random.State.int st 100 < 1 in
      check model ~full:true ~with_ref s line timed_answers.(i))
    script.Workload.timed;
  s
