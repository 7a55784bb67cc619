(* Exported values of lib/*/*.mli that nothing outside their own module
   uses.

   Usage (from the repository root): dead_exports [ROOT]

   Every [val] of every lib/DIR/M.mli, and of the [sig ... end] modules
   nested in it, must be used by an OCaml file under lib, bin, bench, test
   or examples other than M.ml and M.mli, or by a cram file under test.
   A use is a value path whose module part ends with the value's own
   ([M.v], [Lib.M.v], [M.Sub.v]), where the path's head may be the name
   of a [module X = ...] alias declared in the same file, or a path
   relative to a module the file opens ([open], [include], [let open],
   [M.( ... )]), down to the bare name [v]. Comments, string and
   character literals, type annotations and type declarations are not
   searched, and neither are interfaces: a path there names a type. A
   functor application is not a use it can see.

   tools/dead_exports.allow lists the values kept without such a use,
   one [M.v] per line ([#] starts a comment). Prints each unused value
   that the allowlist does not name, and each allowlist entry that is
   not an unused export, and exits 1 if it printed anything. *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let is_upper c = c >= 'A' && c <= 'Z'
let is_lower c = c >= 'a' && c <= 'z'
let is_ident_start c = is_upper c || is_lower c || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9') || c = '\''

(* A dotted identifier path, flagged when a local open [.(], [.[] or
   [.{] follows it, or a symbol: [::], [:=], [:>], [->] or one
   punctuation character. *)
type token = Path of string list * bool | Sym of string

let tokens text =
  let n = String.length text in
  let at i = if i < n then text.[i] else '\000' in
  let acc = ref [] in
  let rec skip_string i =
    if i >= n then n
    else
      match text.[i] with
      | '\\' -> skip_string (i + 2)
      | '"' -> i + 1
      | _ -> skip_string (i + 1)
  in
  (* [{id|...|id}]: [i] is just past the opening [|] *)
  let skip_quoted id i =
    let close = "|" ^ id ^ "}" in
    let m = String.length close in
    let rec go i =
      if i + m > n then n
      else if String.sub text i m = close then i + m
      else go (i + 1)
    in
    go i
  in
  let quoted_id i =
    let j = ref (i + 1) in
    while !j < n && (text.[!j] = '_' || is_lower text.[!j]) do
      incr j
    done;
    if at !j = '|' then Some (String.sub text (i + 1) (!j - i - 1), !j + 1)
    else None
  in
  (* a character literal, or else the quote of a type variable *)
  let skip_char i =
    if at (i + 1) = '\\' then
      let j = ref (i + 2) in
      while !j < n && text.[!j] <> '\'' do
        incr j
      done;
      !j + 1
    else if at (i + 2) = '\'' then i + 3
    else i + 1
  in
  let rec skip_comment depth i =
    if i >= n then n
    else if depth = 0 then i
    else
      match text.[i] with
      | '(' when at (i + 1) = '*' -> skip_comment (depth + 1) (i + 2)
      | '*' when at (i + 1) = ')' -> skip_comment (depth - 1) (i + 2)
      | '"' -> skip_comment depth (skip_string (i + 1))
      | '\'' -> skip_comment depth (skip_char i)
      | '{' -> (
          match quoted_id i with
          | Some (id, j) -> skip_comment depth (skip_quoted id j)
          | None -> skip_comment depth (i + 1))
      | _ -> skip_comment depth (i + 1)
  in
  let ident i =
    let j = ref i in
    while !j < n && is_ident_char text.[!j] do
      incr j
    done;
    (String.sub text i (!j - i), !j)
  in
  let rec path parts i =
    let id, j = ident i in
    let parts = id :: parts in
    if at j = '.' && is_ident_start (at (j + 1)) then path parts (j + 1)
    else
      let local_open =
        is_upper id.[0] && at j = '.' && String.contains "([{" (at (j + 1))
      in
      acc := Path (List.rev parts, local_open) :: !acc;
      j
  in
  let rec go i =
    if i < n then
      match text.[i] with
      | '(' when at (i + 1) = '*' -> go (skip_comment 1 (i + 2))
      | '"' -> go (skip_string (i + 1))
      | '\'' -> go (skip_char i)
      | '{' -> (
          match quoted_id i with
          | Some (id, j) -> go (skip_quoted id j)
          | None ->
              acc := Sym "{" :: !acc;
              go (i + 1))
      | '0' .. '9' ->
          let j = ref i in
          while !j < n && (is_ident_char text.[!j] || text.[!j] = '.') do
            incr j
          done;
          go !j
      | c when is_ident_start c -> go (path [] i)
      | ' ' | '\t' | '\n' | '\r' -> go (i + 1)
      | ':' when String.contains ":=>" (at (i + 1)) -> two i
      | '-' when at (i + 1) = '>' -> two i
      | c ->
          acc := Sym (String.make 1 c) :: !acc;
          go (i + 1)
  and two i =
    acc := Sym (String.sub text i 2) :: !acc;
    go (i + 2)
  in
  go 0;
  List.rev !acc

(* What one file can reach: the value paths it names, split into their
   module part and value name, the modules it opens, and its aliases. *)
type uses = {
  refs : (string, string list) Hashtbl.t;  (** value -> its module parts *)
  opens : string list list;
  aliases : (string * string list) list;
}

let capitalized s = is_upper s.[0]

(* Where the scan is: in code, in a type annotation (after [:], [:>] or
   [of], up to the delimiter that closes it), or in a type declaration
   (up to the next structure item), with its bracket depth. A path in a
   type names a type, not a value. *)
type context = Code | Annot of int | Decl of int

let closes_decl =
  [ "let"; "module"; "open"; "include"; "exception"; "external"; "end" ]

let closes_annot =
  closes_decl
  @ [ "in"; "and"; "type"; "val"; "with"; "then"; "else"; "do"; "done";
      "begin"; "match"; "fun"; "function"; "if" ]

let uses_of text =
  let refs = Hashtbl.create 256 in
  let opens = ref [] and aliases = ref [] in
  let add_ref parts =
    let rec split mods = function
      | m :: rest when capitalized m -> split (m :: mods) rest
      | v :: _ -> Hashtbl.add refs v (List.rev mods)
      | [] -> ()
    in
    split [] parts
  in
  let keyword among = function
    | Path ([ kw ], _) :: _ -> List.mem kw among
    | _ -> false
  in
  let rec scan context tokens =
    match (context, tokens) with
    | _, [] -> ()
    | ( Code,
        Path ([ ("open" | "include") ], _)
        :: (Sym "!" :: (Path (p, _) :: _ as rest) | (Path (p, _) :: _ as rest))
      )
      when capitalized (List.hd p) ->
        opens := p :: !opens;
        scan Code rest
    | ( Code,
        Path ([ "module" ], _)
        :: Path ([ x ], _)
        :: Sym "="
        :: Path (p, false)
        :: rest )
      when capitalized x
           && List.for_all capitalized p
           && (match rest with Sym "(" :: _ -> false | _ -> true) ->
        aliases := (x, p) :: !aliases;
        scan Code rest
    (* a label ([~l:], [?l:]) or a locally abstract type ([(type a)]) *)
    | Code, Sym ("~" | "?") :: Path ([ _ ], _) :: Sym ":" :: rest
    | Code, Sym "(" :: Path ([ "type" ], _) :: rest ->
        scan Code rest
    | Code, (Sym (":" | ":>") | Path ([ "of" ], _)) :: rest ->
        scan (Annot 0) rest
    | Code, Path ([ "type" ], _) :: rest -> scan (Decl 0) rest
    | Code, Path (p, local_open) :: rest ->
        if local_open then opens := p :: !opens;
        add_ref p;
        scan Code rest
    | Code, Sym _ :: rest -> scan Code rest
    | Annot 0, Sym (")" | "]" | "}" | "=" | ";" | "|" | ",") :: _ ->
        scan Code tokens
    | Annot 0, _ when keyword closes_annot tokens -> scan Code tokens
    | Decl 0, _ when keyword closes_decl tokens -> scan Code tokens
    | (Annot d | Decl d), Sym (("(" | "[" | "{" | ")" | "]" | "}") as b) :: rest
      ->
        let d = if String.contains "([{" b.[0] then d + 1 else max 0 (d - 1) in
        scan (match context with Annot _ -> Annot d | _ -> Decl d) rest
    | (Annot _ | Decl _), _ :: rest -> scan context rest
  in
  scan Code (tokens text);
  { refs; opens = !opens; aliases = !aliases }

let expand aliases mods =
  let rec go depth = function
    | x :: rest as mods when depth > 0 -> (
        match List.assoc_opt x aliases with
        | Some p -> go (depth - 1) (p @ rest)
        | None -> mods)
    | mods -> mods
  in
  go 8 mods

let rec ends_with suffix l =
  List.length l >= List.length suffix
  && (l = suffix || match l with [] -> false | _ :: t -> ends_with suffix t)

let uses_value u (mods, v) =
  match Hashtbl.find_all u.refs v with
  | [] -> false
  | found ->
      let opens = List.map (expand u.aliases) u.opens in
      List.exists
        (fun m ->
          let m = expand u.aliases m in
          ends_with mods m
          || List.exists (fun o -> ends_with mods (o @ m)) opens)
        found

(* The [val]s of an interface with their module path and line, skipping
   module types (a signature's values are not exports). *)
let exports ~modname text =
  let lines = String.split_on_char '\n' text in
  let words line =
    String.split_on_char ' ' (String.trim line) |> List.filter (( <> ) "")
  in
  let rec go lineno stack acc = function
    | [] -> List.rev acc
    | line :: rest -> (
        let lineno = lineno + 1 in
        match words line with
        | "module" :: "type" :: _ when not (List.mem "end" (words line)) ->
            go lineno (None :: stack) acc rest
        | "module" :: name :: ":" :: "sig" :: _ ->
            go lineno (Some name :: stack) acc rest
        | [ "end" ] -> (
            match stack with
            | _ :: outer -> go lineno outer acc rest
            | [] -> go lineno [] acc rest)
        | "val" :: name :: _ when List.for_all Option.is_some stack ->
            let name =
              match String.index_opt name ':' with
              | Some k -> String.sub name 0 k
              | None -> name
            in
            let mods = modname :: List.rev_map Option.get stack in
            go lineno stack ((mods, name, lineno) :: acc) rest
        | _ -> go lineno stack acc rest)
  in
  go 0 [] [] lines

let rec files_under dir =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun name ->
           let path = Filename.concat dir name in
           if Sys.is_directory path then
             if name = "_build" || name.[0] = '.' then [] else files_under path
           else [ path ])

let read_allowlist path =
  if not (Sys.file_exists path) then []
  else
    read_file path |> String.split_on_char '\n'
    |> List.filter_map (fun line ->
           let line =
             match String.index_opt line '#' with
             | Some k -> String.sub line 0 k
             | None -> line
           in
           match String.trim line with "" -> None | entry -> Some entry)

let () =
  let root = if Array.length Sys.argv > 1 then Sys.argv.(1) else "." in
  let under dir = files_under (Filename.concat root dir) in
  let sources =
    List.concat_map under [ "lib"; "bin"; "bench"; "test"; "examples" ]
    |> List.filter (fun path ->
           Filename.check_suffix path ".ml" || Filename.check_suffix path ".t")
    |> List.map (fun path -> (path, uses_of (read_file path)))
  in
  let allow =
    read_allowlist (Filename.concat root "tools/dead_exports.allow")
  in
  let unused =
    under "lib"
    |> List.filter (fun path -> Filename.check_suffix path ".mli")
    |> List.concat_map (fun mli ->
           let base = Filename.chop_suffix mli ".mli" in
           let modname = String.capitalize_ascii (Filename.basename base) in
           let used value (path, uses) =
             path <> base ^ ".ml" && uses_value uses value
           in
           exports ~modname (read_file mli)
           |> List.filter_map (fun (mods, v, line) ->
                  if List.exists (used (mods, v)) sources then None
                  else
                    Some (mli, line, String.concat "." (mods @ [ v ]))))
  in
  let problems =
    List.filter_map
      (fun (mli, line, name) ->
        if List.mem name allow then None
        else
          Some
            (Printf.sprintf
               "%s:%d: %s is exported but unused outside its module" mli line
               name))
      unused
    @ List.filter_map
        (fun name ->
          if List.exists (fun (_, _, n) -> n = name) unused then None
          else
            Some
              (Printf.sprintf
                 "tools/dead_exports.allow: %s is not an unused export" name))
        allow
  in
  List.iter print_endline problems;
  if problems <> [] then exit 1;
  Printf.printf "dead_exports: every exported value has a user (%d allowed)\n"
    (List.length allow)
