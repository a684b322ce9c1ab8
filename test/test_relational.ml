(* Tests for the relational-structure substrate: structures, operations of
   Section 5.1 (product, blow-up), generation, and the textual format. *)

open Bagcq_relational

let e = Symbol.make "E" 2
let u = Symbol.make "U" 1
let vi = Value.int

let structure_t = Alcotest.testable Structure.pp Structure.equal_atoms
let value_t = Alcotest.testable Value.pp Value.equal

(* a directed path 1 -> 2 -> 3 *)
let path3 =
  let d = Structure.empty Schema.empty in
  let d = Structure.add_fact d e [ vi 1; vi 2 ] in
  Structure.add_fact d e [ vi 2; vi 3 ]

(* ------------------------------------------------------------------ *)
(* Symbols, values, tuples, schemas                                    *)
(* ------------------------------------------------------------------ *)

let test_symbol () =
  Alcotest.(check string) "name" "E" (Symbol.name e);
  Alcotest.(check int) "arity" 2 (Symbol.arity e);
  Alcotest.(check bool) "equal" false (Symbol.equal e (Symbol.make "E" 3));
  Alcotest.check_raises "empty name" (Invalid_argument "Symbol.make: empty name") (fun () ->
      ignore (Symbol.make "" 1))

let test_value_order () =
  let vs = [ Value.sym "a"; vi 1; Value.pair (vi 1) (vi 2); Value.copy (vi 1) 2 ] in
  List.iter
    (fun v -> Alcotest.(check int) (Value.to_string v) 0 (Value.compare v v))
    vs;
  (* distinct values compare as distinct *)
  let rec all_pairs = function
    | [] -> []
    | x :: rest -> List.map (fun y -> (x, y)) rest @ all_pairs rest
  in
  List.iter
    (fun (a, b) ->
      Alcotest.(check bool)
        (Value.to_string a ^ " vs " ^ Value.to_string b)
        false (Value.equal a b))
    (all_pairs vs)

let test_tuple_rotate () =
  let t = Tuple.make [ vi 1; vi 2; vi 3 ] in
  Alcotest.(check bool) "rotate 0 = id" true (Tuple.equal t (Tuple.rotate t 0));
  Alcotest.(check bool) "rotate n = id" true (Tuple.equal t (Tuple.rotate t 3));
  let r1 = Tuple.rotate t 1 in
  Alcotest.check value_t "rotated head" (vi 3) (Tuple.get r1 0);
  Alcotest.check value_t "rotated snd" (vi 1) (Tuple.get r1 1);
  (* rotating p times in steps of 1 returns to start *)
  let r = ref t in
  for _ = 1 to 3 do
    r := Tuple.rotate !r 1
  done;
  Alcotest.(check bool) "full cycle" true (Tuple.equal t !r)

let test_tuple_constant () =
  Alcotest.(check bool) "const tuple" true
    (Tuple.is_constant_tuple (Tuple.make [ vi 5; vi 5; vi 5 ]));
  Alcotest.(check bool) "non-const" false
    (Tuple.is_constant_tuple (Tuple.make [ vi 5; vi 6 ]))

let test_schema () =
  let s = Schema.make ~constants:[ "a" ] [ e; u ] in
  Alcotest.(check bool) "mem E" true (Schema.mem_symbol s e);
  Alcotest.(check bool) "mem const" true (Schema.mem_constant s "a");
  Alcotest.(check int) "two symbols" 2 (List.length (Schema.symbols s));
  Alcotest.check_raises "arity clash"
    (Invalid_argument "Schema.add_symbol: E already present with arity 2") (fun () ->
      ignore (Schema.add_symbol s (Symbol.make "E" 3)));
  let s2 = Schema.make [ Symbol.make "F" 1 ] in
  Alcotest.(check bool) "disjoint" true (Schema.disjoint s s2);
  Alcotest.(check bool) "not disjoint" false (Schema.disjoint s s);
  let merged = Schema.union s s2 in
  Alcotest.(check int) "union size" 3 (List.length (Schema.symbols merged))

(* ------------------------------------------------------------------ *)
(* Structures                                                          *)
(* ------------------------------------------------------------------ *)

let test_structure_basics () =
  Alcotest.(check int) "atom count" 2 (Structure.atom_count path3 e);
  Alcotest.(check int) "total" 2 (Structure.total_atoms path3);
  Alcotest.(check int) "domain" 3 (Structure.domain_size path3);
  Alcotest.(check bool) "mem" true (Structure.mem_atom path3 e (Tuple.make [ vi 1; vi 2 ]));
  Alcotest.(check bool) "not mem" false
    (Structure.mem_atom path3 e (Tuple.make [ vi 2; vi 1 ]));
  (* adding a duplicate atom is a no-op: relations are sets *)
  let d = Structure.add_fact path3 e [ vi 1; vi 2 ] in
  Alcotest.(check int) "dedup" 2 (Structure.atom_count d e)

let test_structure_arity_check () =
  Alcotest.check_raises "arity" (Invalid_argument "Structure.add_atom: E expects 2 arguments, got 1")
    (fun () -> ignore (Structure.add_fact path3 e [ vi 1 ]))

let test_constants () =
  let d = Structure.empty Schema.empty in
  let d = Structure.declare_constant d "a" in
  Alcotest.check value_t "canonical" (Value.sym "a") (Structure.interpret_exn d "a");
  let d2 = Structure.bind_constant d "b" (vi 7) in
  Alcotest.check value_t "bound" (vi 7) (Structure.interpret_exn d2 "b");
  Alcotest.check_raises "rebind"
    (Invalid_argument "Structure.bind_constant: b already bound to #7") (fun () ->
      ignore (Structure.bind_constant d2 "b" (vi 8)));
  (* binding the same value again is fine *)
  Alcotest.(check bool) "idempotent" true
    (Structure.equal_atoms d2 (Structure.bind_constant d2 "b" (vi 7)))

let test_auto_bind () =
  (* mentioning a schema constant in an atom interprets it canonically *)
  let sch = Schema.make ~constants:[ "a" ] [ e ] in
  let d = Structure.add_fact (Structure.empty sch) e [ Value.sym "a"; vi 1 ] in
  Alcotest.check value_t "auto" (Value.sym "a") (Structure.interpret_exn d "a")

let test_nontrivial () =
  let d = Structure.empty Schema.empty in
  Alcotest.(check bool) "no constants" false (Structure.is_nontrivial d);
  let d = Structure.declare_constant d Consts.heart in
  Alcotest.(check bool) "only heart" false (Structure.is_nontrivial d);
  let d = Structure.declare_constant d Consts.spade in
  Alcotest.(check bool) "both distinct" true (Structure.is_nontrivial d);
  (* the "well of positivity": both constants on one element is trivial *)
  let w = Structure.bind_constant (Structure.empty Schema.empty) Consts.heart (vi 1) in
  let w = Structure.bind_constant w Consts.spade (vi 1) in
  Alcotest.(check bool) "identified" false (Structure.is_nontrivial w)

let test_union () =
  let d1 = Structure.add_fact (Structure.empty Schema.empty) e [ vi 1; vi 2 ] in
  let d2 = Structure.add_fact (Structure.empty Schema.empty) u [ vi 1 ] in
  let d = Structure.union d1 d2 in
  Alcotest.(check int) "atoms" 2 (Structure.total_atoms d);
  Alcotest.(check int) "domain" 2 (Structure.domain_size d)

let test_restrict () =
  let d = Structure.add_fact path3 u [ vi 1 ] in
  let r = Structure.restrict d ~keep:(fun s -> Symbol.equal s e) in
  Alcotest.(check int) "kept" 2 (Structure.total_atoms r);
  Alcotest.(check int) "U gone" 0 (Structure.atom_count r u);
  Alcotest.check structure_t "restrict to E = path3" path3 r

let test_map_values_quotient () =
  (* identify 3 with 1: the path closes into a 2-cycle *)
  let squash v = if Value.equal v (vi 3) then vi 1 else v in
  let q = Structure.map_values squash path3 in
  Alcotest.(check int) "domain shrinks" 2 (Structure.domain_size q);
  Alcotest.(check bool) "closing edge" true
    (Structure.mem_atom q e (Tuple.make [ vi 2; vi 1 ]))

let test_subsumes () =
  let bigger = Structure.add_fact path3 e [ vi 3; vi 1 ] in
  Alcotest.(check bool) "superset subsumes" true (Structure.subsumes bigger path3);
  Alcotest.(check bool) "subset does not" false (Structure.subsumes path3 bigger);
  Alcotest.(check bool) "self" true (Structure.subsumes path3 path3)

(* ------------------------------------------------------------------ *)
(* Ops: Lemma 22 supporting laws at structure level                    *)
(* ------------------------------------------------------------------ *)

let test_product_shape () =
  let p = Ops.product path3 path3 in
  (* pairs of edges: 2 × 2 *)
  Alcotest.(check int) "atoms" 4 (Structure.atom_count p e);
  Alcotest.(check bool) "diagonal edge" true
    (Structure.mem_atom p e
       (Tuple.make [ Value.pair (vi 1) (vi 1); Value.pair (vi 2) (vi 2) ]))

let test_product_constants () =
  let d1 = Structure.bind_constant path3 "a" (vi 1) in
  let d2 = Structure.bind_constant path3 "a" (vi 2) in
  let p = Ops.product d1 d2 in
  Alcotest.check value_t "paired interp" (Value.pair (vi 1) (vi 2))
    (Structure.interpret_exn p "a");
  (* when only one side interprets, the product does not *)
  let p2 = Ops.product d1 path3 in
  Alcotest.(check bool) "uninterpreted" true (Structure.interpretation p2 "a" = None)

let test_power () =
  let p = Ops.power path3 3 in
  Alcotest.(check int) "2^3 edges" 8 (Structure.atom_count p e);
  Alcotest.check structure_t "power 1 = id" path3 (Ops.power path3 1);
  Alcotest.check_raises "power 0" (Invalid_argument "Ops.power: k must be >= 1") (fun () ->
      ignore (Ops.power path3 0))

let test_blowup () =
  let b = Ops.blowup path3 2 in
  (* each edge becomes 2×2 copies *)
  Alcotest.(check int) "atoms" 8 (Structure.atom_count b e);
  Alcotest.(check int) "domain" 6 (Structure.domain_size b);
  let bc = Ops.blowup (Structure.bind_constant path3 "a" (vi 1)) 3 in
  Alcotest.check value_t "constant at copy 1" (Value.copy (vi 1) 1)
    (Structure.interpret_exn bc "a")

let test_disjoint_union () =
  let d = Ops.disjoint_union path3 path3 in
  Alcotest.(check int) "atoms" 4 (Structure.atom_count d e);
  Alcotest.(check int) "domain" 6 (Structure.domain_size d)

(* ------------------------------------------------------------------ *)
(* Generate                                                            *)
(* ------------------------------------------------------------------ *)

let test_generate_deterministic () =
  let sch = Schema.make [ e; u ] in
  let d1 = Generate.random (Random.State.make [| 42 |]) sch ~size:4 in
  let d2 = Generate.random (Random.State.make [| 42 |]) sch ~size:4 in
  Alcotest.check structure_t "same seed, same structure" d1 d2

let test_generate_density () =
  let sch = Schema.make [ e ] in
  let full = Generate.random ~density:1.0 (Random.State.make [| 1 |]) sch ~size:3 in
  Alcotest.(check int) "density 1 = all tuples" 9 (Structure.atom_count full e);
  let empty = Generate.random ~density:0.0 (Random.State.make [| 1 |]) sch ~size:3 in
  Alcotest.(check int) "density 0 = none" 0 (Structure.atom_count empty e)

let test_generate_nontrivial () =
  let sch = Schema.make [ e ] in
  let d = Generate.random_nontrivial (Random.State.make [| 7 |]) sch ~size:3 in
  Alcotest.(check bool) "nontrivial" true (Structure.is_nontrivial d)

let test_all_tuples () =
  let dom = [ vi 1; vi 2 ] in
  Alcotest.(check int) "2^3 triples" 8 (List.length (Generate.all_tuples dom 3));
  Alcotest.(check int) "arity 0" 1 (List.length (Generate.all_tuples dom 0))

(* ------------------------------------------------------------------ *)
(* Encode                                                              *)
(* ------------------------------------------------------------------ *)

let test_encode_roundtrip () =
  let d = Structure.bind_constant path3 "a" (vi 1) in
  let d = Structure.add_fact d u [ Value.sym "b" ] in
  let d' = Encode.parse_exn (Encode.to_string d) in
  Alcotest.check structure_t "roundtrip" d d'

let test_parse () =
  let d = Encode.parse_exn "E(1, 2).\nE(2, 3).\nconst a := 1.\n# comment\n" in
  Alcotest.(check int) "atoms" 2 (Structure.atom_count d e);
  Alcotest.check value_t "const" (vi 1) (Structure.interpret_exn d "a")

let test_parse_errors () =
  (match Encode.parse "E(1,2).\nE(1).\n" with
  | Error msg ->
      Alcotest.(check bool) "arity error mentions line" true
        (String.length msg > 0)
  | Ok _ -> Alcotest.fail "expected arity error");
  match Encode.parse "gibberish" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected parse error"

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let arb_structure =
  let gen st =
    let size = 1 + Random.State.int st 4 in
    let density = Random.State.float st 1.0 in
    Generate.random ~density st (Schema.make [ e; u ]) ~size
  in
  QCheck.make ~print:(Format.asprintf "%a" Structure.pp) gen

(* The printer's earlier spelling (one [Printf.sprintf] and one
   [String.concat] per fact), kept as the reference the buffer-writing
   printer must match byte for byte. *)
let reference_token = function
  | Value.Sym s -> s
  | Value.Int i -> string_of_int i
  | v -> Value.to_string v

let reference_fact ~sep sym tup =
  Printf.sprintf "%s(%s)" (Symbol.name sym)
    (String.concat sep (List.map reference_token (Tuple.to_list tup)))

let reference_to_string d =
  let buf = Buffer.create 256 in
  List.iter
    (fun c ->
      match Structure.interpretation d c with
      | Some v when Value.equal v (Value.sym c) ->
          Buffer.add_string buf (Printf.sprintf "const %s.\n" c)
      | Some v ->
          Buffer.add_string buf (Printf.sprintf "const %s := %s.\n" c (reference_token v))
      | None -> ())
    (Schema.constants (Structure.schema d));
  Structure.fold_atoms
    (fun sym tup () -> Buffer.add_string buf (reference_fact ~sep:", " sym tup ^ ".\n"))
    d ();
  Buffer.contents buf

(* Facts over named, anonymous (negative and many-digit ones included)
   and pair elements, a nullary symbol among them; then constants left
   out, declared, rebound to an arbitrary element, or declared and then
   rebound. *)
let arb_encodable =
  let z = Symbol.make "Z" 0 in
  let value st =
    match Random.State.int st 5 with
    | 0 -> Value.sym (List.nth [ "a"; "b"; "x_1" ] (Random.State.int st 3))
    | 1 -> Value.pair (vi (Random.State.int st 3)) (Value.sym "b")
    | 2 -> vi (Random.State.int st 200_000 - 100)
    | _ -> vi (Random.State.int st 12)
  in
  let gen st =
    let d = ref (Structure.empty Schema.empty) in
    for _ = 1 to Random.State.int st 10 do
      d :=
        match Random.State.int st 5 with
        | 0 -> Structure.add_fact !d u [ value st ]
        | 1 -> Structure.add_fact !d z []
        | _ -> Structure.add_fact !d e [ value st; value st ]
    done;
    List.iter
      (fun c ->
        match Random.State.int st 4 with
        | 0 -> d := Structure.declare_constant !d c
        | 1 -> d := Structure.rebind_constant !d c (value st)
        | 2 -> d := Structure.rebind_constant (Structure.declare_constant !d c) c (value st)
        | _ -> ())
      [ "a"; "c"; Consts.heart ];
    !d
  in
  QCheck.make ~print:reference_to_string gen

let properties =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"encode matches the reference spelling byte for byte"
         ~count:300 arb_encodable (fun d ->
           String.equal (Encode.to_string d) (reference_to_string d)
           && Structure.fold_atoms
                (fun sym tup ok ->
                  ok
                  && String.equal (Encode.fact_to_string sym tup)
                       (reference_fact ~sep:"," sym tup))
                d true));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"product commutes up to iso (atom counts)" ~count:100
         (QCheck.pair arb_structure arb_structure)
         (fun (d1, d2) ->
           Structure.atom_count (Ops.product d1 d2) e
           = Structure.atom_count (Ops.product d2 d1) e));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"blowup multiplies atom counts by k^arity" ~count:100
         (QCheck.pair arb_structure (QCheck.int_range 1 3))
         (fun (d, k) ->
           Structure.atom_count (Ops.blowup d k) e = k * k * Structure.atom_count d e
           && Structure.atom_count (Ops.blowup d k) u = k * Structure.atom_count d u));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"product atom counts multiply" ~count:100
         (QCheck.pair arb_structure arb_structure)
         (fun (d1, d2) ->
           Structure.atom_count (Ops.product d1 d2) e
           = Structure.atom_count d1 e * Structure.atom_count d2 e));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"encode roundtrips" ~count:100 arb_structure (fun d ->
           Structure.equal_atoms d (Encode.parse_exn (Encode.to_string d))));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"union is idempotent" ~count:100 arb_structure (fun d ->
           Structure.equal_atoms d (Structure.union d d)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"subsumes is reflexive and union-monotone" ~count:100
         (QCheck.pair arb_structure arb_structure)
         (fun (d1, d2) ->
           Structure.subsumes d1 d1 && Structure.subsumes (Structure.union d1 d2) d1));
  ]

let () =
  Alcotest.run "relational"
    [
      ( "symbols-values",
        [
          Alcotest.test_case "symbol" `Quick test_symbol;
          Alcotest.test_case "value order" `Quick test_value_order;
          Alcotest.test_case "tuple rotate" `Quick test_tuple_rotate;
          Alcotest.test_case "tuple constant" `Quick test_tuple_constant;
          Alcotest.test_case "schema" `Quick test_schema;
        ] );
      ( "structure",
        [
          Alcotest.test_case "basics" `Quick test_structure_basics;
          Alcotest.test_case "arity check" `Quick test_structure_arity_check;
          Alcotest.test_case "constants" `Quick test_constants;
          Alcotest.test_case "auto bind" `Quick test_auto_bind;
          Alcotest.test_case "nontrivial" `Quick test_nontrivial;
          Alcotest.test_case "union" `Quick test_union;
          Alcotest.test_case "restrict" `Quick test_restrict;
          Alcotest.test_case "quotient" `Quick test_map_values_quotient;
          Alcotest.test_case "subsumes" `Quick test_subsumes;
        ] );
      ( "ops",
        [
          Alcotest.test_case "product shape" `Quick test_product_shape;
          Alcotest.test_case "product constants" `Quick test_product_constants;
          Alcotest.test_case "power" `Quick test_power;
          Alcotest.test_case "blowup" `Quick test_blowup;
          Alcotest.test_case "disjoint union" `Quick test_disjoint_union;
        ] );
      ( "generate",
        [
          Alcotest.test_case "deterministic" `Quick test_generate_deterministic;
          Alcotest.test_case "density" `Quick test_generate_density;
          Alcotest.test_case "nontrivial" `Quick test_generate_nontrivial;
          Alcotest.test_case "all_tuples" `Quick test_all_tuples;
        ] );
      ( "encode",
        [
          Alcotest.test_case "roundtrip" `Quick test_encode_roundtrip;
          Alcotest.test_case "parse" `Quick test_parse;
          Alcotest.test_case "errors" `Quick test_parse_errors;
        ] );
      ("properties", properties);
    ]
