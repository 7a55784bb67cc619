(* Spans the traced run records around its own calls into each layer.
   They are kept in memory, turned into a self-time partition of the
   campaign wall clock, and written as JSONL when the run ends. *)

type span = { name : string; start : float; stop : float }

(* One traced campaign call. [jobs.(p)] holds the spans of the job at
   position [p], its "job" span first. [outside] holds the spans between
   jobs, tagged with their job position: sink calls, and the hand-off
   from a job's end to its first sink call. *)
type round = {
  index_base : int;  (** campaign job index of position 0 *)
  mutable call : span;
  jobs : span list array;
  mutable outside : (int * span) list;
}

let now = Unix.gettimeofday

let round ~index_base ~jobs =
  {
    index_base;
    call = { name = "campaign"; start = 0.0; stop = 0.0 };
    jobs = Array.make jobs [];
    outside = [];
  }

let time name f =
  let start = now () in
  let result = f () in
  (result, { name; start; stop = now () })

(* record a span into job slot [p], also when [f] raises *)
let in_job round p name f =
  let start = now () in
  Fun.protect
    ~finally:(fun () ->
      round.jobs.(p) <- { name; start; stop = now () } :: round.jobs.(p))
    f

let add_outside round p span = round.outside <- (p, span) :: round.outside

let in_sink round p name f =
  let start = now () in
  Fun.protect ~finally:(fun () -> add_outside round p { name; start; stop = now () }) f

let duration span = span.stop -. span.start

(* length of the union of [spans], clipped to [within] *)
let covered ~within spans =
  let intervals =
    List.filter_map
      (fun s ->
        let lo = Float.max s.start within.start
        and hi = Float.min s.stop within.stop in
        if hi > lo then Some (lo, hi) else None)
      spans
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, last) (lo, hi) ->
        match last with
        | Some (l, h) when lo <= h -> (total, Some (l, Float.max h hi))
        | Some (l, h) -> (total +. (h -. l), Some (lo, hi))
        | None -> (total, Some (lo, hi)))
      (0.0, None) intervals
  in
  match last with Some (l, h) -> total +. (h -. l) | None -> total

let job_span spans = List.find (fun s -> s.name = "job") spans

(* Self seconds by layer, summed over [rounds]: a span's duration minus
   the part of it that its children cover. The campaign call's children
   are the job spans and the spans between jobs; a job's children are
   the layer calls inside it. The entries add up to the wall clock of
   the calls. *)
let self_times rounds =
  let add name seconds acc =
    let previous = Option.value ~default:0.0 (List.assoc_opt name acc) in
    (name, previous +. seconds) :: List.remove_assoc name acc
  in
  let add_span acc s = add s.name (duration s) acc in
  List.fold_left
    (fun acc round ->
      let jobs = Array.to_list round.jobs |> List.filter (fun spans -> spans <> []) in
      let outside = List.map snd round.outside in
      let tops = List.map job_span jobs @ outside in
      let acc =
        add "campaign.other" (duration round.call -. covered ~within:round.call tops) acc
      in
      let acc =
        List.fold_left
          (fun acc spans ->
            let job = job_span spans in
            let children = List.filter (fun s -> s != job) spans in
            let acc = add "job.other" (duration job -. covered ~within:job children) acc in
            List.fold_left add_span acc children)
          acc jobs
      in
      List.fold_left add_span acc outside)
    [] rounds

(* JSONL, one span per line: id, name, start and end (seconds since
   [origin]), parent span id and campaign job index *)
let write path ~origin rounds =
  let oc = open_out_bin path in
  let next_id = ref 0 in
  let module Json = Verif.Trace.Json in
  let emit ?parent ?job span =
    let id = !next_id in
    incr next_id;
    let seconds t = Printf.sprintf "%.6f" (t -. origin) in
    output_string oc
      (Json.obj
         [
           ("id", Json.int id);
           ("name", Json.string span.name);
           ("start", seconds span.start);
           ("end", seconds span.stop);
           ("parent", Json.option Json.int parent);
           ("job", Json.option Json.int job);
         ]);
    output_char oc '\n';
    id
  in
  List.iter
    (fun round ->
      let root = emit round.call in
      Array.iteri
        (fun p spans ->
          if spans <> [] then begin
            let job = round.index_base + p in
            let top = job_span spans in
            let parent = emit ~parent:root ~job top in
            List.iter
              (fun s -> if s != top then ignore (emit ~parent ~job s))
              (List.rev spans)
          end)
        round.jobs;
      List.iter
        (fun (p, s) -> ignore (emit ~parent:root ~job:(round.index_base + p) s))
        (List.rev round.outside))
    rounds;
  close_out oc
