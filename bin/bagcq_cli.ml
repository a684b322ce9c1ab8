(* bagcq — bag-semantics conjunctive-query toolbox.

   Subcommands:
     eval      evaluate a query on a database under bag semantics
     contain   decidable containment checks (set semantics, bag equivalence)
     hunt      search for a bag-containment counterexample
     ucq       the same three questions for unions of CQs
     reduce    run the Theorem 1 reduction on a Diophantine polynomial
     multiply  build and validate the Theorem 3 multiplier gadget
     serve     answer the questions over NDJSON (stdio or TCP)
     store     named databases with maintained counts, on a server

   The query verbs (eval, contain, hunt, ucq eval|contain|hunt) and the
   store and metrics verbs each build one wire request and take the
   answer from the router [serve] runs: in process, or from a server
   with --port.  Budgets, validation and exit codes are therefore decided
   once: exit code 0 means a result (hunt: a counterexample) was
   produced, 1 means a hunt completed empty, 2 means the --fuel or
   --timeout-ms budget was exhausted (best-so-far statistics are
   printed), 3 means the input could not be read or the request was
   refused. *)

open Cmdliner
open Bagcq_relational
open Bagcq_cq
open Bagcq_reduction
module Nat = Bagcq_bignum.Nat
module Budget = Bagcq_guard.Budget
module Decomp = Bagcq_hom.Decomp
module Wcoj = Bagcq_hom.Wcoj
module Ghd = Bagcq_hom.Ghd
module Json = Bagcq_wire.Json
module Proto = Bagcq_wire.Proto
module Sampler = Bagcq_search.Sampler
module Pool = Bagcq_parallel.Pool
module Lemma11 = Bagcq_poly.Lemma11
module Router = Bagcq_server.Router
module Serve = Bagcq_server.Serve
module Load = Bagcq_server.Load
module Metrics = Bagcq_obs.Metrics
module Trace = Bagcq_obs.Trace

let query_conv =
  let parse s = match Parse.parse s with Ok q -> Ok q | Error e -> Error (`Msg e) in
  Arg.conv (parse, Query.pp)

let poly_conv =
  let parse s =
    match Bagcq_poly.Parse.parse s with Ok p -> Ok p | Error e -> Error (`Msg e)
  in
  Arg.conv (parse, Bagcq_poly.Polynomial.pp)

(* A file's text, or stdin's for '-'. *)
let read_text path =
  try
    Ok
      (match path with
      | "-" -> In_channel.input_all stdin
      | path -> In_channel.with_open_text path In_channel.input_all)
  with Sys_error e -> Error e

let read_database path = Result.bind (read_text path) Encode.parse

(* ---------------- one path to the engine ---------------- *)

let exit_found = 0
let exit_none = 1
let exit_exhausted = 2
let exit_input = 3

let budget_exits =
  [
    Cmd.Exit.info exit_found ~doc:"the computation completed (hunt: a counterexample was found).";
    Cmd.Exit.info exit_none ~doc:"the search completed without finding a counterexample.";
    Cmd.Exit.info exit_exhausted ~doc:"the $(b,--fuel) or $(b,--timeout-ms) budget was exhausted.";
    Cmd.Exit.info exit_input
      ~doc:"the input database could not be read, or the request was refused \
            (a malformed request, an overloaded or unreachable server, an \
            unparseable answer).";
    Cmd.Exit.info Cmd.Exit.cli_error ~doc:"command line parsing error.";
    Cmd.Exit.info Cmd.Exit.internal_error ~doc:"unexpected internal error.";
  ]

(* The answer line to one request: from the server on 127.0.0.1:[port]
   (after the ping capability handshake when [require_ops] is given), or
   from a fresh in-process router with no caps, so that only the
   request's own budget bounds it.  Either way it is the line [serve]
   answers. *)
let answer_line ?port ?require_ops ?hunt_jobs fields =
  let line = Json.to_string (Json.Obj fields) in
  match port with
  | None ->
      let caps = { Router.max_fuel = None; max_timeout_ms = None } in
      Ok (Router.handle_line (Router.create ~caps ?hunt_jobs ()) line)
  | Some port -> (
      match Load.connect ?require_ops ~port () with
      | Error e -> Error (Printf.sprintf "cannot connect to 127.0.0.1:%d: %s" port e)
      | Ok sock ->
          let ic = Unix.in_channel_of_descr sock in
          let oc = Unix.out_channel_of_descr sock in
          output_string oc (line ^ "\n");
          flush oc;
          let answer = In_channel.input_line ic in
          (try Unix.close sock with Unix.Unix_error _ -> ());
          Option.to_result ~none:"server closed the connection without answering" answer)

(* Every verb that sends a request: [print] renders the answer (its line
   and its parse), and the answer's status is the exit code — 0 for ok
   (1 for a hunt that found nothing), 2 for exhausted, 3 for anything
   refused, including no answer at all. *)
let ask ?port ?require_ops ?hunt_jobs ~print fields =
  let answer =
    Result.bind (answer_line ?port ?require_ops ?hunt_jobs fields) (fun line ->
        match Json.parse line with
        | Ok j -> Ok (line, j)
        | Error e -> Error (Printf.sprintf "unparseable answer %S: %s" line e))
  in
  match answer with
  | Error e ->
      Printf.eprintf "bagcq: %s\n" e;
      exit_input
  | Ok (line, j) -> (
      print line j;
      match Proto.status j with
      | Some "ok" when Json.get_bool "violated" j = Some false -> exit_none
      | Some "ok" -> exit_found
      | Some "exhausted" -> exit_exhausted
      | _ -> exit_input)

(* The wire verbs ([ucq], [store]): [op] with [fields] and the budget
   fields, answered by printing the answer line itself. *)
let ask_op ?port ?require_ops op fields budget =
  ask ?port ?require_ops
    ((("op", Json.Str op) :: fields) @ budget)
    ~print:(fun line _ -> print_endline line)

(* An answer's fields, read with a neutral default when absent. *)
let str name j = Option.value (Json.get_string name j) ~default:""
let int name j = Option.value (Json.get_int name j) ~default:0
let bool name j = Option.value (Json.get_bool name j) ~default:false

let num name j =
  match Json.member name j with
  | Some (Json.Float f) -> f
  | Some (Json.Int i) -> float_of_int i
  | _ -> 0.

(* ["budget exhausted (fuel): 2 ticks in 0ms (fuel left 0)"], from the
   reason and the budget snapshot an exhausted answer carries. *)
let exhausted_line j =
  let snapshot =
    {
      Budget.ticks = int "ticks" j;
      fuel_left = Json.get_int "fuel_left" j;
      elapsed_ms = num "elapsed_ms" j;
      tripped = None;
    }
  in
  Printf.sprintf "budget exhausted (%s): %s" (str "reason" j)
    (Budget.snapshot_to_string snapshot)

(* The text verbs' printer: [ok] and [exhausted] render those answers, a
   refusal prints its message on stderr. *)
let text ~ok ?(exhausted = fun j -> print_endline (exhausted_line j)) line j =
  match Proto.status j with
  | Some "ok" -> ok j
  | Some "exhausted" -> exhausted j
  | _ ->
      Printf.eprintf "bagcq: %s\n"
        (Option.value (Json.get_string "error" j) ~default:line)

let nonneg_int =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n >= 0 -> Ok n
    | Ok _ | Error _ ->
        Error (`Msg (Printf.sprintf "invalid value '%s', expected a non-negative integer" s))
  in
  Arg.conv ~docv:"N" (parse, Arg.conv_printer Arg.int)

(* --fuel and --timeout-ms, as the request's budget fields. *)
let budget_term =
  let fuel =
    Arg.(value & opt (some nonneg_int) None & info [ "fuel" ] ~docv:"N"
           ~doc:"Deterministic execution budget: at most $(docv) engine ticks \
                 (backtracking nodes, candidate databases, random samples). \
                 Exhaustion exits with code 2 and prints progress statistics. \
                 A server also clamps it to its own cap.")
  in
  let timeout_ms =
    Arg.(value & opt (some nonneg_int) None & info [ "timeout-ms" ] ~docv:"MS"
           ~doc:"Wall-clock deadline in milliseconds; checked every few \
                 thousand ticks. Exhaustion exits with code 2. A server also \
                 clamps it to its own cap.")
  in
  let field name = Option.fold ~none:[] ~some:(fun v -> [ (name, Json.Int v) ]) in
  Cmdliner.Term.(
    const (fun fuel timeout_ms -> field "fuel" fuel @ field "timeout_ms" timeout_ms)
    $ fuel $ timeout_ms)

(* --samples, --exhaustive-size and --seed of both hunts: the requested
   exhaustive size, and the request's strategy fields. *)
let strategy_term =
  let int_arg name ~default ~doc =
    Arg.(value & opt nonneg_int default & info [ name ] ~docv:"N" ~doc)
  in
  let samples = int_arg "samples" ~default:500 ~doc:"Random databases to try." in
  let max_size =
    int_arg "exhaustive-size" ~default:2
      ~doc:"Exhaustively enumerate databases up to this many elements first."
  in
  let seed = int_arg "seed" ~default:0x5eed ~doc:"Random seed." in
  Cmdliner.Term.(
    const (fun samples max_size seed ->
        ( max_size,
          [
            ("samples", Json.Int samples);
            ("exhaustive_size", Json.Int max_size);
            ("seed", Json.Int seed);
          ] ))
    $ samples $ max_size $ seed)

let small_arg =
  Arg.(required & opt (some query_conv) None & info [ "small" ] ~docv:"QUERY"
         ~doc:"The s-query (candidate containee).")

let big_arg =
  Arg.(required & opt (some query_conv) None & info [ "big" ] ~docv:"QUERY"
         ~doc:"The b-query (candidate container).")

let pair_fields op small big =
  [
    ("op", Json.Str op);
    ("small", Json.Str (Query.to_string small));
    ("big", Json.Str (Query.to_string big));
  ]

(* ---------------- eval ---------------- *)

let eval_cmd =
  let query =
    Arg.(required & opt (some query_conv) None & info [ "q"; "query" ] ~docv:"QUERY"
           ~doc:"The boolean conjunctive query, e.g. 'E(x,y) & E(y,z) & x != y'.")
  in
  let db =
    Arg.(value & opt string "-" & info [ "d"; "database" ] ~docv:"FILE"
           ~doc:"Database file in fact-list syntax ('-' for stdin).")
  in
  let run q path budget =
    match read_text path with
    | Error e ->
        Printf.eprintf "bagcq: %s\n" e;
        exit_input
    | Ok db ->
        let query_line () = Printf.printf "query: %s\n" (Query.to_string q) in
        ask
          ([
             ("op", Json.Str "eval");
             ("query", Json.Str (Query.to_string q));
             ("db", Json.Str db);
           ]
          @ budget)
          ~print:
            (text
               ~ok:(fun j ->
                 query_line ();
                 Printf.printf "bag count  ψ(D) = %s\n" (str "count" j);
                 Printf.printf "satisfied  D ⊨ ψ: %b\n" (bool "satisfied" j))
               ~exhausted:(fun j ->
                 query_line ();
                 print_endline (exhausted_line j)))
  in
  Cmd.v
    (Cmd.info "eval" ~exits:budget_exits
       ~doc:"Evaluate a query on a database under bag semantics.")
    Cmdliner.Term.(const run $ query $ db $ budget_term)

(* ---------------- explain ---------------- *)

let atom_str = Format.asprintf "%a" Atom.pp

(* The [class:] line groups the structural reason with the chosen engine —
   both halves are cram-pinned, so keep them stable. *)
let explain_class comp = function
  | Decomp.Dp _ -> "acyclic -> join-tree dynamic program"
  | Decomp.Wcoj _ ->
      if Query.has_neqs comp then
        "inequalities -> worst-case-optimal leapfrog join (filtered)"
      else "cyclic -> worst-case-optimal leapfrog join"
  | Decomp.Ghd g ->
      Printf.sprintf "cyclic -> hypertree decomposition (width %d) + join-tree DP"
        (Ghd.width g)
  | Decomp.Backtrack -> "backtracking kernel"

let explain_text groups =
  List.iteri
    (fun i (comp, mult) ->
      Printf.printf "component %d (x%d): %s\n" (i + 1) mult (Query.to_string comp);
      let s = Decomp.choose comp in
      Printf.printf "  class: %s\n" (explain_class comp s);
      let header, indent =
        match s with
        | Decomp.Dp _ -> ("  join tree:\n", "    ")
        | Decomp.Ghd _ -> ("  decomposition:\n", "    ")
        | Decomp.Wcoj _ | Decomp.Backtrack -> ("", "  ")
      in
      print_string header;
      List.iter (fun l -> Printf.printf "%s%s\n" indent l) (Decomp.render s))
    groups

(* The machine-readable plan report: stable field names, one object per
   component, the decomposition as a recursive bag tree — what the
   eval-farm batch runners consume. *)
let explain_json q groups =
  let strs l = Json.List (List.map (fun s -> Json.Str s) l) in
  let rec bag_json b =
    Json.Obj
      [
        ("vars", strs (Ghd.bag_vars b));
        ("cover", strs (List.map atom_str (Ghd.bag_cover b)));
        ("join_order", strs (List.map atom_str (Ghd.bag_atoms b)));
        ("variable_order", strs (Ghd.bag_order b));
        ("key", strs (Ghd.bag_key b));
        ("children", Json.List (List.map bag_json (Ghd.bag_children b)));
      ]
  in
  let comp_json (comp, mult) =
    let s = Decomp.choose comp in
    let strategy, fields =
      match s with
      | Decomp.Dp _ -> ("dp", [ ("join_tree", strs (Decomp.render s)) ])
      | Decomp.Wcoj w ->
          ( "wcoj",
            [
              ("variable_order", strs (Wcoj.variable_order w));
              ("domain_ranks", strs (Wcoj.domain_vars w));
            ] )
      | Decomp.Ghd g ->
          ( "ghd",
            [
              ("width", Json.Int (Ghd.width g));
              ("bags", Json.Int (Ghd.nbags g));
              ("decomposition", bag_json (Ghd.root g));
            ] )
      | Decomp.Backtrack -> ("backtrack", [])
    in
    Json.Obj
      ([
         ("query", Json.Str (Query.to_string comp));
         ("multiplicity", Json.Int mult);
         ("strategy", Json.Str strategy);
         ("class", Json.Str (explain_class comp s));
       ]
      @ fields)
  in
  Json.Obj
    [
      ("query", Json.Str (Query.to_string q));
      ("components", Json.List (List.map comp_json groups));
    ]

let explain_cmd =
  let query =
    Arg.(required & opt (some query_conv) None & info [ "q"; "query" ] ~docv:"QUERY"
           ~doc:"The boolean conjunctive query to plan.")
  in
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit the plan report as JSON instead of text.")
  in
  let run q json =
    let groups = Decomp.factor q in
    if json then print_string (Json.to_string_pretty (explain_json q groups))
    else begin
      Printf.printf "query: %s\n" (Query.to_string q);
      let total = List.fold_left (fun n (_, m) -> n + m) 0 groups in
      Printf.printf "components: %d (%d distinct)\n" total (List.length groups);
      if groups = [] then
        print_string "the empty conjunction: count is 1 on every database\n";
      explain_text groups
    end;
    `Ok 0
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Show the evaluation plan: connected components with \
             multiplicities (repeated components are counted once and \
             raised to their power), structural classification, and the \
             join tree, leapfrog variable order (domain ranks marked) or \
             hypertree decomposition per component.  $(b,--json) emits \
             the same report as JSON.")
    Cmdliner.Term.(ret (const run $ query $ json))

(* ---------------- contain ---------------- *)

let contain_cmd =
  let run small big budget =
    ask
      (pair_fields "contain" small big @ budget)
      ~print:
        (text ~ok:(fun j ->
             (match Json.get_bool "set_contains" j with
             | Some v -> Printf.printf "set-semantics containment (Chandra–Merlin): %b\n" v
             | None -> Printf.printf "set-semantics containment: n/a (inequalities present)\n");
             Printf.printf "bag equivalence (Chaudhuri–Vardi, isomorphism): %b\n"
               (bool "bag_equivalent" j);
             Printf.printf
               "bag containment: decidability open — use 'bagcq hunt' to search for\n\
                a counterexample database.\n"))
  in
  Cmd.v
    (Cmd.info "contain" ~exits:budget_exits
       ~doc:"Run the decidable containment checks on a pair of queries.")
    Cmdliner.Term.(const run $ small_arg $ big_arg $ budget_term)

(* ---------------- hunt ---------------- *)

let hunt_cmd =
  let jobs =
    let pos_int =
      let parse s =
        match Arg.conv_parser Arg.int s with
        | Ok n when n >= 1 -> Ok n
        | Ok _ | Error _ ->
            Error (`Msg (Printf.sprintf "invalid value '%s', expected a positive integer" s))
      in
      Arg.conv ~docv:"N" (parse, Arg.conv_printer Arg.int)
    in
    Arg.(value & opt (some pos_int) None & info [ "jobs" ] ~docv:"N"
           ~doc:"Worker domains for the exhaustive sweep and the random \
                 sampling phase. Defaults to $(b,BAGCQ_JOBS) if set, else the \
                 number of cores. The witness found is independent of $(docv).")
  in
  let run small big (max_size, strategy) jobs budget =
    let hunt_jobs =
      match jobs with
      | Some j -> j
      | None -> (
          try Pool.default_jobs ()
          with Invalid_argument msg ->
            Printf.eprintf "bagcq: %s\n" msg;
            exit exit_input)
    in
    let print_witness j =
      if bool "violated" j then
        Printf.printf "VIOLATED: small(D) = %s > big(D) = %s on:\n%s"
          (str "small_count" j) (str "big_count" j) (str "witness" j)
    in
    ask ~hunt_jobs
      (pair_fields "hunt" small big @ strategy @ budget)
      ~print:
        (text
           ~ok:(fun j ->
             if bool "violated" j then print_witness j
             else
               Printf.printf
                 "no counterexample found (exhaustive to size %d complete: %b; %d random samples)\n"
                 max_size (bool "exhaustive_complete" j) (int "tested_random" j))
           ~exhausted:(fun j ->
             print_witness j;
             Printf.printf
               "%s, %d databases tested (exhaustive complete to size %d; %d random samples)\n"
               (exhausted_line j) (int "databases_tested" j)
               (int "largest_size_completed" j) (int "tested_random" j)))
  in
  Cmd.v
    (Cmd.info "hunt" ~exits:budget_exits
       ~doc:"Hunt for a database witnessing small(D) > big(D).")
    Cmdliner.Term.(const run $ small_arg $ big_arg $ strategy_term $ jobs $ budget_term)

(* ---------------- reduce ---------------- *)

let reduce_cmd =
  let poly =
    Arg.(required & opt (some poly_conv) None & info [ "p"; "polynomial" ] ~docv:"POLY"
           ~doc:"Diophantine polynomial over x1, x2, …, e.g. 'x1^2 - 2x2^2 - 1'.")
  in
  let search_bound =
    Arg.(value & opt int 6 & info [ "bound" ] ~docv:"N"
           ~doc:"Grid bound for the violation search over valuations.")
  in
  let run q bound =
    Printf.printf "Q = %s\n" (Bagcq_poly.Polynomial.to_string q);
    let t1 = Theorem1.of_polynomial q in
    let t = t1.Theorem1.instance in
    Printf.printf
      "Lemma 11 instance: c = %d, %d monomials of degree %d, %d variables\n"
      t.Lemma11.c (Lemma11.num_monomials t) t.Lemma11.degree t.Lemma11.n_vars;
    Printf.printf "reduction constant ℂ = %s\n" (Nat.to_string t1.Theorem1.cc);
    Printf.printf "φ_s: Arena (%d ground atoms) ∧̄ π_s (%d atoms)\n"
      (Query.num_atoms t1.Theorem1.arena)
      (Query.num_atoms t1.Theorem1.pi_s);
    Printf.printf "φ_b: π_b (%d atoms) ∧̄ ζ_b (𝕜 = %d) ∧̄ δ_b (cycles %s, power ℂ)\n"
      (Query.num_atoms t1.Theorem1.pi_b)
      t1.Theorem1.zeta.Zeta.k
      (String.concat "," (List.map string_of_int (Delta.lengths t)));
    (match Lemma11.violation_search t ~max:bound with
    | Some xs ->
        Printf.printf "violating valuation found: Ξ = (%s)\n"
          (String.concat ", " (Array.to_list (Array.map string_of_int xs)));
        let d = Theorem1.violating_db t1 xs in
        Printf.printf
          "encoding database: %d elements, %d atoms — ℂ·φ_s(D) ≤ φ_b(D): %b\n"
          (Structure.domain_size d) (Structure.total_atoms d) (Theorem1.holds_on t1 d);
        Printf.printf "=> the containment ℂ·φ_s ≤ φ_b FAILS (Q has a zero)\n"
    | None ->
        Printf.printf
          "no violating valuation with entries ≤ %d — if Q has no zero at all,\n\
           the containment ℂ·φ_s(D) ≤ φ_b(D) holds for every non-trivial D\n"
          bound);
    `Ok 0
  in
  Cmd.v
    (Cmd.info "reduce"
       ~doc:"Run the Theorem 1 reduction from Hilbert's 10th problem to bag containment.")
    Cmdliner.Term.(ret (const run $ poly $ search_bound))

(* ---------------- multiply ---------------- *)

let multiply_cmd =
  let c =
    Arg.(required & opt (some int) None & info [ "c" ] ~docv:"C"
           ~doc:"The multiplication constant (≥ 2).")
  in
  let samples =
    Arg.(value & opt int 60 & info [ "samples" ] ~docv:"N"
           ~doc:"Random databases on which to validate condition (≤).")
  in
  let run c samples =
    if c < 2 then `Error (false, "c must be >= 2")
    else begin
      let pair = Multiplier.alpha ~c in
      let cs, cb = Multiplier.counts_on pair pair.Multiplier.witness in
      Printf.printf "α gadget for c = %d  (p = %d, m = %d)\n" c ((2 * c) - 1) (2 * c);
      Printf.printf "α_s: %d atoms, 0 inequalities;  α_b: %d atoms, %d inequality\n"
        (Query.num_atoms pair.Multiplier.qs)
        (Query.num_atoms pair.Multiplier.qb)
        (Query.num_neqs pair.Multiplier.qb);
      Printf.printf "witness: α_s = %s = %d·%s = c·α_b  — condition (=) holds\n"
        (Nat.to_string cs) c (Nat.to_string cb);
      let schema =
        Schema.union (Query.schema pair.Multiplier.qs) (Query.schema pair.Multiplier.qb)
      in
      let config = { Sampler.default with Sampler.samples; Sampler.sizes = [ 1; 2 ] } in
      let outcome =
        Sampler.check_all ~config ~schema (fun d -> Multiplier.check_le_on pair d)
      in
      (match outcome.Sampler.witness with
      | None ->
          Printf.printf "condition (≤) survived %d random non-trivial databases\n"
            outcome.Sampler.tested
      | Some _ -> Printf.printf "condition (≤) VIOLATED — please report this!\n");
      `Ok 0
    end
  in
  Cmd.v
    (Cmd.info "multiply" ~doc:"Build and validate the single-inequality ×c gadget of Theorem 3.")
    Cmdliner.Term.(ret (const run $ c $ samples))


(* ---------------- core ---------------- *)

let core_cmd =
  let query =
    Arg.(required & opt (some query_conv) None & info [ "q"; "query" ] ~docv:"QUERY"
           ~doc:"An inequality-free boolean CQ.")
  in
  let run q =
    if Query.has_neqs q then `Error (false, "core is defined for inequality-free CQs")
    else begin
      let c = Bagcq_hom.Morphism.core q in
      Printf.printf "query: %s\n" (Query.to_string q);
      Printf.printf "core : %s\n" (Query.to_string c);
      Printf.printf "minimised: %d -> %d atoms, %d -> %d variables\n"
        (Query.num_atoms q) (Query.num_atoms c) (Query.num_vars q) (Query.num_vars c);
      `Ok 0
    end
  in
  Cmd.v
    (Cmd.info "core" ~doc:"Minimise a CQ to its core (Chandra-Merlin).")
    Cmdliner.Term.(ret (const run $ query))

(* ---------------- answers ---------------- *)

let answers_cmd =
  let query =
    Arg.(required & opt (some query_conv) None & info [ "q"; "query" ] ~docv:"QUERY"
           ~doc:"The query body.")
  in
  let head =
    Arg.(value & opt (list string) [] & info [ "head" ] ~docv:"VARS"
           ~doc:"Comma-separated head variables (non-boolean evaluation).")
  in
  let db =
    Arg.(value & opt string "-" & info [ "d"; "database" ] ~docv:"FILE"
           ~doc:"Database file ('-' for stdin).")
  in
  let run q head path =
    match read_database path with
    | Error e -> `Error (false, e)
    | Ok d ->
        let head_terms = List.map (fun v -> Bagcq_cq.Term.var v) head in
        let bag = Bagcq_hom.Answers.answers ~head:head_terms q d in
        Printf.printf "answer bag (%s tuples with multiplicity):\n"
          (Nat.to_string (Bagcq_hom.Answers.cardinal bag));
        List.iter
          (fun tup ->
            Printf.printf "  %s  x%s\n"
              (Format.asprintf "%a" Tuple.pp tup)
              (Nat.to_string (Bagcq_hom.Answers.multiplicity bag tup)))
          (Bagcq_hom.Answers.support bag);
        `Ok 0
  in
  Cmd.v
    (Cmd.info "answers" ~doc:"Evaluate a non-boolean CQ to its bag of answer tuples.")
    Cmdliner.Term.(ret (const run $ query $ head $ db))

(* ---------------- hde ---------------- *)

let hde_cmd =
  let run small big =
    match Bagcq_search.Domination.estimate ~small ~big () with
    | est ->
        Printf.printf "domination exponent lower bound: %.4f (over %d usable samples)\n"
          est.Bagcq_search.Domination.lower_bound est.Bagcq_search.Domination.usable;
        if Bagcq_search.Domination.refutes_containment est then
          Printf.printf "> 1: bag containment small <= big is REFUTED\n"
        else Printf.printf "<= 1: no refutation from the exponent\n";
        `Ok 0
    | exception Invalid_argument msg -> `Error (false, msg)
  in
  Cmd.v
    (Cmd.info "hde"
       ~doc:"Estimate the homomorphism domination exponent (Kopparty-Rossman).")
    Cmdliner.Term.(ret (const run $ small_arg $ big_arg))

(* ---------------- serve ---------------- *)

let serve_cmd =
  let stdio =
    Arg.(value & flag & info [ "stdio" ]
           ~doc:"Serve NDJSON requests on stdin/stdout — one request per line, \
                 one response per line. This is the default when no $(b,--port) \
                 is given.")
  in
  let port =
    Arg.(value & opt (some int) None & info [ "port" ] ~docv:"PORT"
           ~doc:"Listen on 127.0.0.1:$(docv) instead of stdio (0 picks a free \
                 port; the actual port is printed to stderr).")
  in
  let max_fuel =
    Arg.(value & opt int 50_000_000 & info [ "max-fuel" ] ~docv:"N"
           ~doc:"Server-wide cap on per-request fuel; a request asking for more \
                 (or for none) is clamped to $(docv). 0 removes the cap.")
  in
  let max_timeout =
    Arg.(value & opt int 10_000 & info [ "max-timeout-ms" ] ~docv:"MS"
           ~doc:"Server-wide cap on per-request wall-clock budget. 0 removes \
                 the cap.")
  in
  let jobs =
    Arg.(value & opt int 1 & info [ "jobs" ] ~docv:"N"
           ~doc:"TCP mode: worker domains of the admission pool, which answer \
                 requests concurrently (stdio answers one at a time).")
  in
  let hunt_jobs =
    Arg.(value & opt int 1 & info [ "hunt-jobs" ] ~docv:"N"
           ~doc:"Worker domains inside a single hunt request.")
  in
  let max_connections =
    Arg.(value & opt (some int) None & info [ "max-connections" ] ~docv:"N"
           ~doc:"TCP mode: exit after serving $(docv) connections (for tests \
                 and demos; the default is to serve forever).")
  in
  let max_inflight =
    Arg.(value & opt int Bagcq_server.Admission.default_max_inflight
         & info [ "max-inflight" ] ~docv:"N"
             ~doc:"TCP mode: high-water mark on admitted-but-unanswered \
                   requests across all connections; arrivals past it are shed \
                   with a structured $(i,overloaded) response.")
  in
  let queue_depth =
    Arg.(value & opt int Bagcq_server.Admission.default_queue_depth
         & info [ "queue-depth" ] ~docv:"N"
             ~doc:"TCP mode: bound on requests waiting for a worker; arrivals \
                   past it are shed with a structured $(i,overloaded) \
                   response.")
  in
  let drain_ms =
    Arg.(value & opt int Serve.default_drain_ms & info [ "drain-ms" ] ~docv:"MS"
           ~doc:"TCP mode: on SIGINT/SIGTERM stop accepting and keep \
                 answering in-flight requests for up to $(docv) before \
                 closing.")
  in
  let idle_timeout =
    Arg.(value & opt int 0 & info [ "idle-timeout-ms" ] ~docv:"MS"
           ~doc:"TCP mode: close connections that have not completed a \
                 request line for $(docv) (slow-loris writers count as idle \
                 — partial frames are not activity). 0 disables.")
  in
  let max_line_bytes =
    Arg.(value & opt int 0 & info [ "max-line-bytes" ] ~docv:"N"
           ~doc:"Refuse request lines longer than $(docv) bytes with a \
                 structured $(i,bad_request) response and close the \
                 connection. 0 disables.")
  in
  let trace =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write one NDJSON span record per served request to $(docv) \
                 (span_id, parent_id, name, start_ms, dur_ms).")
  in
  let run stdio port max_fuel max_timeout jobs hunt_jobs max_conns
      max_inflight queue_depth drain_ms idle_timeout max_line_bytes trace =
    ignore stdio;
    if max_fuel < 0 || max_timeout < 0 then
      `Error (false, "--max-fuel and --max-timeout-ms must be non-negative")
    else if jobs < 1 || hunt_jobs < 1 then
      `Error (false, "--jobs and --hunt-jobs must be positive")
    else if max_inflight < 1 || queue_depth < 1 then
      `Error (false, "--max-inflight and --queue-depth must be positive")
    else if drain_ms < 0 || idle_timeout < 0 || max_line_bytes < 0 then
      `Error
        ( false,
          "--drain-ms, --idle-timeout-ms and --max-line-bytes must be \
           non-negative" )
    else begin
      let caps =
        {
          Router.max_fuel = (if max_fuel = 0 then None else Some max_fuel);
          Router.max_timeout_ms =
            (if max_timeout = 0 then None else Some max_timeout);
        }
      in
      let close_trace =
        match trace with
        | None -> Fun.id
        | Some path ->
            let oc = open_out path in
            let m = Mutex.create () in
            Trace.set_sink
              (Some
                 (fun r ->
                   Mutex.lock m;
                   Fun.protect
                     ~finally:(fun () -> Mutex.unlock m)
                     (fun () ->
                       output_string oc
                         (Json.to_string (Proto.trace_record_json r));
                       output_char oc '\n')));
            fun () ->
              Trace.set_sink None;
              close_out oc
      in
      let router = Router.create ~caps ~hunt_jobs () in
      let line_cap = if max_line_bytes = 0 then None else Some max_line_bytes in
      Fun.protect
        ~finally:(fun () -> close_trace ())
        (fun () ->
          match port with
          | None ->
              Serve.stdio ?max_line_bytes:line_cap router stdin stdout
          | Some p ->
              (* Graceful shutdown: a signal flips the stop flag, the
                 event loop's select returns with EINTR, and the drain
                 begins — the trace sink is flushed by the
                 [close_trace] finaliser once [Serve.tcp] returns. *)
              let stop = Atomic.make false in
              let install sg =
                try
                  ignore
                    (Sys.signal sg
                       (Sys.Signal_handle (fun _ -> Atomic.set stop true)))
                with Invalid_argument _ | Sys_error _ -> ()
              in
              install Sys.sigint;
              install Sys.sigterm;
              Serve.tcp ?max_connections:max_conns
                ~on_listen:(fun actual ->
                  Printf.eprintf "bagcq: listening on 127.0.0.1:%d\n%!" actual)
                ~workers:jobs ~queue_depth ~max_inflight
                ?max_line_bytes:line_cap
                ?idle_timeout_ms:
                  (if idle_timeout = 0 then None else Some idle_timeout)
                ~drain_ms ~stop router ~port:p ());
      `Ok 0
    end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve eval/contain/hunt/ping/stats/metrics requests over NDJSON, \
             with per-request budgets clamped by server-wide caps, admission \
             control that sheds excess load, and a shared result cache.")
    Cmdliner.Term.(
      ret
        (const run $ stdio $ port $ max_fuel $ max_timeout $ jobs $ hunt_jobs
        $ max_connections $ max_inflight $ queue_depth $ drain_ms $ idle_timeout
        $ max_line_bytes $ trace))

(* ---------------- client ---------------- *)

let client_cmd =
  let port =
    Arg.(required & opt (some int) None & info [ "port" ] ~docv:"PORT"
           ~doc:"Connect to a bagcq server on 127.0.0.1:$(docv).")
  in
  let n =
    Arg.(value & opt int 40 & info [ "n"; "requests" ] ~docv:"N"
           ~doc:"Number of scripted requests to send.")
  in
  let malformed =
    Arg.(value & opt int 0 & info [ "malformed-every" ] ~docv:"K"
           ~doc:"Make every $(docv)-th line deliberately malformed, checking \
                 the server answers with a structured error and keeps going.")
  in
  let retries =
    Arg.(value & opt int 0 & info [ "retries" ] ~docv:"K"
           ~doc:"Retry a refused connection up to $(docv) times with \
                 exponential backoff and jitter before giving up.")
  in
  let backoff =
    Arg.(value & opt int 50 & info [ "backoff-ms" ] ~docv:"MS"
           ~doc:"Base of the exponential retry backoff: the $(i,k)-th retry \
                 waits about $(docv)·2^$(i,k).")
  in
  let open_loop =
    Arg.(value & flag & info [ "open-loop" ]
           ~doc:"Send every request as fast as the socket accepts instead of \
                 waiting for each answer — the overload generator. Shed \
                 responses are counted separately in the summary.")
  in
  let run port n malformed retries backoff open_loop =
    if n < 0 || malformed < 0 || retries < 0 || backoff < 0 then
      `Error
        ( false,
          "--requests, --malformed-every, --retries and --backoff-ms must be \
           non-negative" )
    else
      match Load.connect ~retries ~backoff_ms:backoff ~port () with
      | Error e ->
          `Error
            (false, Printf.sprintf "cannot connect to 127.0.0.1:%d: %s" port e)
      | Ok sock ->
          let ic = Unix.in_channel_of_descr sock in
          let oc = Unix.out_channel_of_descr sock in
          let drive = if open_loop then Load.drive_open else Load.drive in
          let summary =
            drive oc ic (Load.script ~malformed_every:malformed ~n ())
          in
          (try Unix.close sock with Unix.Unix_error _ -> ());
          print_endline (Load.summary_to_string summary);
          if summary.Load.unparsed = 0 then `Ok 0
          else `Error (false, "server returned unparseable responses")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Drive a scripted request mix against a TCP bagcq server and \
             report throughput and response statistics.")
    Cmdliner.Term.(
      ret (const run $ port $ n $ malformed $ retries $ backoff $ open_loop))

(* ---------------- metrics ---------------- *)

(* Reconstruct registry rows from the wire so the human rendering is the
   library's own {!Metrics.render_table} — the CLI and an in-process dump
   can never drift apart. *)
let row_of_json j =
  let labels =
    match Json.member "labels" j with
    | Some (Json.Obj kvs) ->
        List.map
          (fun (k, v) ->
            (k, match v with Json.Str s -> s | _ -> ""))
          kvs
    | _ -> []
  in
  let value =
    match str "kind" j with
    | "gauge" -> Metrics.Gauge_v (int "value" j)
    | "histogram" ->
        Metrics.Histogram_v
          {
            Metrics.count = int "count" j;
            sum_ms = num "sum_ms" j;
            p50_ms = num "p50_ms" j;
            p95_ms = num "p95_ms" j;
            p99_ms = num "p99_ms" j;
            max_ms = num "max_ms" j;
          }
    | _ -> Metrics.Counter_v (int "value" j)
  in
  { Metrics.name = str "name" j; labels; value }

let port_arg ~doc = Arg.(required & opt (some int) None & info [ "port" ] ~docv:"PORT" ~doc)

let metrics_cmd =
  let port = port_arg ~doc:"Query a bagcq server on 127.0.0.1:$(docv)." in
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Print the raw metrics response (one JSON object) instead of \
                 the human table.")
  in
  let run port json =
    ask ~port [ ("op", Json.Str "metrics") ] ~print:(fun line j ->
        match Json.member "metrics" j with
        | Some (Json.List rows) when not json ->
            print_string (Metrics.render_table (List.map row_of_json rows))
        | _ -> print_endline line)
  in
  Cmd.v
    (Cmd.info "metrics" ~exits:budget_exits
       ~doc:"Dump a running server's metrics registry — request counters, \
             latency histograms, cache and engine counters — as a table or \
             JSON.")
    Cmdliner.Term.(const run $ port $ json)

(* ---------------- store (data-plane client) ---------------- *)

(* Each verb is one request to the server; the answer line is printed
   verbatim (it is already the machine-readable answer).  Fact and query
   arguments ship as raw text — the server is the single validator, so a
   syntax error comes back as the same structured bad_request every other
   client sees. *)
let store_cmd =
  let port = port_arg ~doc:"Talk to a bagcq server on 127.0.0.1:$(docv)." in
  let name_pos =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME"
           ~doc:"Database name.")
  in
  let text_pos docv ~doc = Arg.(required & pos 1 (some string) None & info [] ~docv ~doc) in
  let fact_pos = text_pos "FACT" ~doc:"One fact in database syntax, e.g. 'E(1,2)'." in
  let query_pos = text_pos "QUERY" ~doc:"Conjunctive query, e.g. 'E(x,y) & E(y,z)'." in
  let create_cmd =
    let db =
      Arg.(value & opt (some string) None & info [ "db" ] ~docv:"FILE"
             ~doc:"Initial contents: a database file in fact-list syntax \
                   ('-' for stdin). Empty when omitted.")
    in
    let run port name db budget =
      match Option.map read_text db with
      | Some (Error e) ->
          Printf.eprintf "bagcq: %s\n" e;
          exit_input
      | Some (Ok text) ->
          ask_op ~port "db_create" [ ("name", Json.Str name); ("db", Json.Str text) ] budget
      | None -> ask_op ~port "db_create" [ ("name", Json.Str name) ] budget
    in
    Cmd.v
      (Cmd.info "create" ~exits:budget_exits
         ~doc:"Create a named database on the server.")
      Cmdliner.Term.(const run $ port $ name_pos $ db $ budget_term)
  in
  (* A verb taking the name and one more text argument [arg], sent as
     the request's [field]. *)
  let with_text_cmd op ~cmd_name ~field arg ~doc =
    let run port name text budget =
      ask_op ~port op [ ("name", Json.Str name); (field, Json.Str text) ] budget
    in
    Cmd.v
      (Cmd.info cmd_name ~exits:budget_exits ~doc)
      Cmdliner.Term.(const run $ port $ name_pos $ arg $ budget_term)
  in
  let counts_cmd =
    let run port name budget = ask_op ~port "counts" [ ("name", Json.Str name) ] budget in
    Cmd.v
      (Cmd.info "counts" ~exits:budget_exits
         ~doc:"Read every registered count of a database (repairing stale \
               ones first).")
      Cmdliner.Term.(const run $ port $ name_pos $ budget_term)
  in
  Cmd.group
    (Cmd.info "store"
       ~doc:"Data-plane client: named databases on a running server, \
             mutated tuple by tuple, with registered bag-semantics counts \
             maintained incrementally under the deltas.")
    [
      create_cmd;
      with_text_cmd "db_insert" ~cmd_name:"insert" ~field:"fact" fact_pos
        ~doc:"Insert one tuple, folding the delta into every registered \
              count.";
      with_text_cmd "db_delete" ~cmd_name:"delete" ~field:"fact" fact_pos
        ~doc:"Delete one tuple (present, or the request is rejected), \
              folding the delta into every registered count.";
      with_text_cmd "register" ~cmd_name:"register" ~field:"query" query_pos
        ~doc:"Register a query so its bag count is maintained under \
              mutations.";
      with_text_cmd "unregister" ~cmd_name:"unregister" ~field:"query" query_pos
        ~doc:"Drop a registered count.";
      counts_cmd;
    ]

(* ---------------- ucq (union queries) ---------------- *)

(* Each verb prints the answer line: from an in-process router by
   default, or from a server with --port, after the ping capability
   handshake ([Load.connect ~require_ops]) that refuses to send ucq_* to
   a server that does not advertise it.  The unions ship as raw text, so
   the router is their one validator. *)
let ucq_cmd =
  let port =
    Arg.(value & opt (some int) None & info [ "port" ] ~docv:"PORT"
           ~doc:"Ship the request to a bagcq server on 127.0.0.1:$(docv) \
                 (after a ping capability handshake) instead of answering it \
                 in process.")
  in
  let send port op = ask_op ?port ~require_ops:[ op ] op in
  let eval_cmd =
    let query =
      Arg.(required & opt (some string) None & info [ "q"; "query" ] ~docv:"UCQ"
             ~doc:"The union of boolean conjunctive queries, disjuncts \
                   separated by '|', e.g. '(E(x,y)) | (E(x,y) & E(y,z))'.")
    in
    let db =
      Arg.(value & opt string "-" & info [ "d"; "database" ] ~docv:"FILE"
             ~doc:"Database file in fact-list syntax ('-' for stdin). \
                   Ignored when $(b,--db-name) is given.")
    in
    let db_name =
      Arg.(value & opt (some string) None & info [ "db-name" ] ~docv:"NAME"
             ~doc:"Evaluate against a named data-plane database, which only \
                   a server holds (so with $(b,--port)).")
    in
    let run text path db_name port budget =
      let query = ("query", Json.Str text) in
      match db_name with
      | Some name -> send port "ucq_eval" [ query; ("db_name", Json.Str name) ] budget
      | None -> (
          match read_text path with
          | Error e ->
              Printf.eprintf "bagcq: %s\n" e;
              exit_input
          | Ok db -> send port "ucq_eval" [ query; ("db", Json.Str db) ] budget)
    in
    Cmd.v
      (Cmd.info "eval" ~exits:budget_exits
         ~doc:"Evaluate a union of CQs under bag semantics: the sum of the \
               disjunct counts.")
      Cmdliner.Term.(const run $ query $ db $ db_name $ port $ budget_term)
  in
  let pair_term =
    let union name ~doc =
      Arg.(required & opt (some string) None & info [ name ] ~docv:"UCQ" ~doc)
    in
    Cmdliner.Term.(
      const (fun small big -> [ ("small", Json.Str small); ("big", Json.Str big) ])
      $ union "small" ~doc:"The candidate containee union."
      $ union "big" ~doc:"The candidate container union.")
  in
  let contain_cmd =
    let run pair port budget = send port "ucq_contain" pair budget in
    Cmd.v
      (Cmd.info "contain" ~exits:budget_exits
         ~doc:"Decide set-semantics UCQ containment (every disjunct of \
               $(b,--small) is Chandra–Merlin contained in some disjunct of \
               $(b,--big)) and bag equivalence.")
      Cmdliner.Term.(const run $ pair_term $ port $ budget_term)
  in
  let hunt_cmd =
    let run pair (_, strategy) port budget =
      send port "ucq_hunt" (pair @ strategy) budget
    in
    Cmd.v
      (Cmd.info "hunt" ~exits:budget_exits
         ~doc:"Hunt for a database where the summed disjunct counts of \
               $(b,--small) exceed those of $(b,--big) — one instance of \
               the undecidable bag-UCQ containment problem.")
      Cmdliner.Term.(const run $ pair_term $ strategy_term $ port $ budget_term)
  in
  Cmd.group
    (Cmd.info "ucq"
       ~doc:"Unions of conjunctive queries as a first-class workload: \
             bag-semantics evaluation, the decidable set-semantics ∀∃ \
             containment, and bag-UCQ counterexample hunts — each printing \
             the wire answer, in process or from a running server.")
    [ eval_cmd; contain_cmd; hunt_cmd ]

let main_cmd =
  let doc = "bag-semantics conjunctive query containment toolbox (PODS 2024 reproduction)" in
  Cmd.group
    (Cmd.info "bagcq" ~version:"1.0.0" ~doc)
    [ eval_cmd; explain_cmd; contain_cmd; hunt_cmd; ucq_cmd; reduce_cmd; multiply_cmd; core_cmd; answers_cmd; hde_cmd; serve_cmd; client_cmd; metrics_cmd; store_cmd ]

let () = exit (Cmd.eval' main_cmd)
