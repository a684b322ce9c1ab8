let value_of_token tok =
  if String.length tok > 0 && String.for_all (fun c -> c >= '0' && c <= '9') tok then
    Value.int (int_of_string tok)
  else Value.sym tok

let strip s = String.trim s

let split_args s =
  String.split_on_char ',' s |> List.map strip |> List.filter (fun s -> s <> "")

exception Parse_error of string

let valid_token tok =
  tok <> ""
  && String.for_all
       (fun ch ->
         (ch >= 'a' && ch <= 'z')
         || (ch >= 'A' && ch <= 'Z')
         || (ch >= '0' && ch <= '9')
         || ch = '_' || ch = '$' || ch = '~' || ch = '@' || ch = '#')
       tok

let parse_statement lineno d line =
  let fail msg = raise (Parse_error (Printf.sprintf "line %d: %s" lineno msg)) in
  let line = strip line in
  if line = "" then d
  else begin
    if String.length line >= 6 && String.sub line 0 6 = "const " then begin
      let rest = strip (String.sub line 6 (String.length line - 6)) in
      match String.index_opt rest ':' with
      | Some i when i + 1 < String.length rest && rest.[i + 1] = '=' ->
          let c = strip (String.sub rest 0 i) in
          let v = strip (String.sub rest (i + 2) (String.length rest - i - 2)) in
          if c = "" || v = "" then fail "malformed constant binding";
          Structure.bind_constant d c (value_of_token v)
      | _ ->
          if rest = "" then fail "malformed constant declaration";
          Structure.declare_constant d rest
    end
    else begin
      match String.index_opt line '(' with
      | None -> fail "expected R(...) fact or const declaration"
      | Some i ->
          let name = strip (String.sub line 0 i) in
          if name = "" then fail "missing relation name";
          if line.[String.length line - 1] <> ')' then fail "missing closing parenthesis";
          let inner = String.sub line (i + 1) (String.length line - i - 2) in
          let args = split_args inner in
          List.iter
            (fun tok -> if not (valid_token tok) then fail (Printf.sprintf "bad element name %S" tok))
            args;
          let sym =
            match Schema.find_symbol (Structure.schema d) name with
            | Some sym ->
                if Symbol.arity sym <> List.length args then
                  fail
                    (Printf.sprintf "%s used with arity %d, previously %d" name
                       (List.length args) (Symbol.arity sym));
                sym
            | None -> Symbol.make name (List.length args)
          in
          Structure.add_fact d sym (List.map value_of_token args)
    end
  end

let parse text =
  let lines = String.split_on_char '\n' text in
  try
    let d, _ =
      List.fold_left
        (fun (d, n) line ->
          (* drop comments, then split the line into '.'-terminated
             statements — several facts may share a line *)
          let line =
            match String.index_opt line '#' with
            | Some i -> String.sub line 0 i
            | None -> line
          in
          let statements = String.split_on_char '.' line in
          (List.fold_left (fun d stmt -> parse_statement n d stmt) d statements, n + 1))
        (Structure.empty Schema.empty, 1)
        lines
    in
    Ok d
  with Parse_error msg -> Error msg

let parse_exn text =
  match parse text with Ok d -> d | Error msg -> invalid_arg ("Encode.parse: " ^ msg)

(* [string_of_int] without its format parsing and intermediate string:
   anonymous elements make up most of a database, and on a ~5 KB one
   [string_of_int] took two thirds of the printer's time. *)
let rec add_nat buf n =
  if n >= 10 then add_nat buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let add_token buf = function
  | Value.Sym s -> Buffer.add_string buf s
  | Value.Int i when i >= 0 -> add_nat buf i
  | Value.Int i -> Buffer.add_string buf (string_of_int i)
  | v -> Buffer.add_string buf (Value.to_string v)

(* [R(a<sep>b<sep>...)], written straight into [buf]. *)
let add_fact buf ~sep sym tup =
  Buffer.add_string buf (Symbol.name sym);
  Buffer.add_char buf '(';
  Array.iteri
    (fun i v ->
      if i > 0 then Buffer.add_string buf sep;
      add_token buf v)
    tup;
  Buffer.add_char buf ')'

let fact_to_string sym tup =
  let buf = Buffer.create 16 in
  add_fact buf ~sep:"," sym tup;
  Buffer.contents buf

let to_string d =
  let buf = Buffer.create 256 in
  List.iter
    (fun c ->
      match Structure.interpretation d c with
      | Some v ->
          Buffer.add_string buf "const ";
          Buffer.add_string buf c;
          if not (Value.equal v (Value.sym c)) then begin
            Buffer.add_string buf " := ";
            add_token buf v
          end;
          Buffer.add_string buf ".\n"
      | None -> ())
    (Schema.constants (Structure.schema d));
  Structure.fold_atoms
    (fun sym tup () ->
      add_fact buf ~sep:", " sym tup;
      Buffer.add_string buf ".\n")
    d ();
  Buffer.contents buf
