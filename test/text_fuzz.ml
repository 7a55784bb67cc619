(* Mutation fuzzing of the text front ends, modelled on test_obs's JSONL
   fuzz: a corpus text after one to three byte flips, truncations and
   token splices, and the contract every front end keeps under
   [Loc.catch] — it returns [Ok], or an error whose line and column lie
   inside the input (the column just past a line's end included); no
   other exception escapes, and no input takes longer than [cap_s]. *)

let cap_s = 1.0

(* [tokens]: lexemes of the front end's language, spliced in whole *)
let mutant ~tokens corpus =
  let open QCheck.Gen in
  let pick = oneofa corpus in
  let punctuation = List.of_seq (String.to_seq "0129 ;:([{-\n") in
  let flip s =
    if s = "" then return s
    else
      map2
        (fun i c -> String.mapi (fun j d -> if j = i then c else d) s)
        (int_bound (String.length s - 1))
        (frequency [ (2, oneofl punctuation); (1, char) ])
  in
  let truncate s =
    map (fun i -> String.sub s 0 i) (int_bound (String.length s))
  in
  let splice s =
    map2
      (fun i token ->
        String.sub s 0 i ^ token ^ String.sub s i (String.length s - i))
      (int_bound (String.length s))
      (oneofl tokens)
  in
  let cross s =
    pick >>= fun t ->
    map2
      (fun i j -> String.sub s 0 i ^ String.sub t j (String.length t - j))
      (int_bound (String.length s))
      (int_bound (String.length t))
  in
  let rec mutate k s =
    if k = 0 then return s
    else
      frequency [ (3, flip s); (1, truncate s); (3, splice s); (1, cross s) ]
      >>= mutate (k - 1)
  in
  pick >>= fun s -> int_range 1 3 >>= fun k -> mutate k s

let inside text { Loc.line; column } =
  let lines = String.split_on_char '\n' text in
  line >= 1
  && line <= List.length lines
  && column >= 1
  && column <= String.length (List.nth lines (line - 1)) + 1

let total ?(count = 500) ~name ~tokens corpus front_end =
  QCheck.Test.make ~count ~name
    (QCheck.make ~print:String.escaped (mutant ~tokens corpus))
    (fun text ->
      let started = Unix.gettimeofday () in
      let result =
        match Loc.catch (fun () -> front_end text) with
        | Ok _ -> true
        | Error error ->
          inside text error.Loc.pos
          || QCheck.Test.fail_reportf "error outside the input: %s"
               (Loc.to_string error)
        | exception e ->
          QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e)
      in
      let elapsed = Unix.gettimeofday () -. started in
      result
      && (elapsed <= cap_s
         || QCheck.Test.fail_reportf "took %.2fs (cap %.1fs)" elapsed cap_s))
