module Coverage = Sctc.Coverage

type property = {
  property : string;
  verdict : Verdict.t;
  first_final_at : int option;
}

type t = {
  backend : string;
  properties : property list;
  triggers : int;
  time_units : int;
  vt_seconds : float;
  synthesis_seconds : float;
  test_cases : int option;
  timeouts : int;
  coverage : Sctc.Coverage.t option;
  trace_events : int;
}

let find_opt result name =
  List.find_opt (fun p -> String.equal p.property name) result.properties

let find caller result name =
  match find_opt result name with
  | Some p -> p
  | None ->
    invalid_arg
      (Printf.sprintf "Verif.Result.%s: unknown property %S (known: %s)" caller
         name
         (match List.map (fun p -> p.property) result.properties with
         | [] -> "none"
         | names -> String.concat ", " names))

let verdict result name = (find "verdict" result name).verdict
let first_final_at result name = (find "first_final_at" result name).first_final_at

let overall result =
  List.fold_left
    (fun acc p -> Verdict.combine acc p.verdict)
    Verdict.True result.properties

let completed_cases result =
  match result.test_cases with Some n -> n | None -> 0

let coverage_percent result =
  match result.coverage with Some c -> Coverage.percent c | None -> 0.0

let missing_returns result =
  match result.coverage with Some c -> Coverage.missing c | None -> []

let pp fmt result =
  Format.fprintf fmt "@[<v>%s: V.T.=%.3fs (synth %.3fs)  triggers=%d  units=%d"
    result.backend result.vt_seconds result.synthesis_seconds result.triggers
    result.time_units;
  (match result.test_cases with
  | Some cases -> Format.fprintf fmt "  T.C.=%d  timeouts=%d" cases result.timeouts
  | None -> ());
  (match result.coverage with
  | Some coverage -> Format.fprintf fmt "  C=%.1f%%" (Coverage.percent coverage)
  | None -> ());
  List.iter
    (fun p ->
      Format.fprintf fmt "@,  %-24s %-8s%s" p.property
        (Verdict.to_string p.verdict)
        (match p.first_final_at with
        | Some tu -> Printf.sprintf "  (final at %d)" tu
        | None -> ""))
    result.properties;
  Format.fprintf fmt "@]"
