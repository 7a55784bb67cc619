type syntax = [ `Fltl | `Psl | `Auto ]

type error = { line : int; col : int; message : string; input : string }

exception Parse_error of error

let error_to_string error =
  Printf.sprintf "%d:%d: %s in %S" error.line error.col error.message
    error.input

let pp_error fmt error = Format.pp_print_string fmt (error_to_string error)

(* PSL-only keywords decide [`Auto]; [until]/[release] are valid in both
   grammars and keep their FLTL reading (see the interface). *)
let psl_only = function
  | Fltl_lexer.KW_ALWAYS | Fltl_lexer.KW_NEVER | Fltl_lexer.KW_EVENTUALLY
  | Fltl_lexer.KW_NEXT ->
    true
  | _ -> false

let detect_syntax text =
  match Fltl_lexer.tokenize text with
  | tokens ->
    if List.exists (fun (token, _) -> psl_only token) tokens then `Psl
    else `Fltl
  | exception Fltl_lexer.Lex_error _ -> `Fltl

let parse ?(syntax = `Auto) text =
  let chosen =
    match syntax with `Auto -> detect_syntax text | (`Fltl | `Psl) as s -> s
  in
  let structured message (pos : Fltl_lexer.position) =
    Error { line = pos.Fltl_lexer.line; col = pos.Fltl_lexer.column; message;
            input = text }
  in
  match
    (* the one sanctioned caller of the two grammars: their deprecation
       alert keeps every other caller out *)
    match chosen with
    | `Fltl -> (Fltl_parser.parse [@alert "-deprecated"]) text
    | `Psl -> (Psl.parse [@alert "-deprecated"]) text
  with
  | formula -> Ok formula
  | exception Fltl_parser.Parse_error (message, pos) -> structured message pos
  | exception Psl.Parse_error (message, pos) -> structured message pos
  | exception Fltl_lexer.Lex_error (message, pos) -> structured message pos

let parse_exn ?syntax text =
  match parse ?syntax text with
  | Ok formula -> formula
  | Error error -> raise (Parse_error error)

let () =
  Printexc.register_printer (function
    | Parse_error error ->
      Some (Printf.sprintf "Sctc.Prop.Parse_error (%s)" (error_to_string error))
    | _ -> None)
