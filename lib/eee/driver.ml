module Mailbox = Platform.Mailbox
module Checker = Sctc.Checker
module Coverage = Sctc.Coverage
module Prng = Stimuli.Prng
module Session = Verif.Session
module Trace = Verif.Trace

type config = {
  test_cases : int;
  watchdog_chunks : int;
  bound : int option;
  engine : Checker.engine;
  seed : int;
}

let default_config =
  {
    test_cases = 200;
    watchdog_chunks = 200;
    bound = None;
    engine = Sctc.Engine.default;
    seed = 7;
  }

let max_id = 16 (* must match MAX_ID in the software *)

let install_spec ?(bound = None) ?(engine = Sctc.Engine.default)
    session ops =
  let checker = Session.checker session in
  let mbox = Session.mailbox session in
  List.iter
    (fun op ->
      (* "<op>_called": entering the operation's implementation function *)
      let called =
        Proposition.rose (Eee_spec.called_prop op)
          (Session.in_function session (Eee_spec.entry_function op))
      in
      Checker.register_proposition checker called;
      (* "<op>_ret_<code>": a response for this op with that code is
         currently posted in the mailbox *)
      List.iter
        (fun code ->
          let name = Eee_spec.return_prop op code in
          let sample () =
            Mailbox.response_ready mbox
            && Session.read_var session "eee_done_op" = Eee_spec.op_code op
            && Session.read_var session "eee_done_ret" = code
          in
          Checker.register_proposition checker (Proposition.make name sample))
        (Eee_spec.expected_returns op);
      Checker.add_property_text ~engine ~syntax:`Fltl checker
        ~name:(Eee_spec.property_name op)
        (Eee_spec.property_text ?bound op))
    ops

(* constrained-random arguments per operation *)
let random_args prng op =
  let random_id () =
    if Prng.chance prng 0.12 then
      (* out-of-range stimulus to exercise EEE_ERR_PARAMETER *)
      Prng.pick prng [ -3; -1; max_id; max_id + 7 ]
    else Prng.int_range prng ~lo:0 ~hi:(max_id - 1)
  in
  match op with
  | Eee_spec.Read -> (random_id (), 0)
  | Eee_spec.Write -> (random_id (), Prng.int_range prng ~lo:0 ~hi:1_000_000)
  | Eee_spec.Startup1 | Eee_spec.Startup2 | Eee_spec.Format
  | Eee_spec.Prepare | Eee_spec.Refresh ->
    (0, 0)

(* issue one operation and wait for its response (or the watchdog); when
   [case] is given and the session traces, the test-case boundary and any
   watchdog expiry are published on the bus *)
let issue ?case session config prng op =
  let trace = Session.trace session in
  let tracing = Trace.enabled trace in
  let mbox = Session.mailbox session in
  let arg0, arg1 = random_args prng op in
  (match case with
  | Some index when tracing ->
    Trace.emit trace
      (Trace.Test_case_begin { index; op = Eee_spec.op_name op })
  | _ -> ());
  Mailbox.post_request mbox ~op:(Eee_spec.op_code op) ~arg0 ~arg1;
  let rec wait chunk =
    if Mailbox.response_ready mbox then Some (Mailbox.take_response mbox)
    else if chunk >= config.watchdog_chunks || not (Session.alive session) then
      None
    else begin
      Session.advance session;
      wait (chunk + 1)
    end
  in
  let response = wait 0 in
  (match case with
  | Some index when tracing ->
    (match response with
    | None ->
      Trace.emit trace
        (Trace.Watchdog_fired { index; op = Eee_spec.op_name op })
    | Some _ -> ());
    Trace.emit trace
      (Trace.Test_case_end
         { index; result = Option.map Eee_spec.return_name response })
  | _ -> ());
  response

(* a context operation to walk the emulation through its state space;
   weights favour the operations that change global state *)
let context_op prng =
  Prng.pick_weighted prng
    [
      (3, Eee_spec.Write);
      (2, Eee_spec.Read);
      (2, Eee_spec.Prepare);
      (2, Eee_spec.Refresh);
      (1, Eee_spec.Format);
      (1, Eee_spec.Startup1);
      (1, Eee_spec.Startup2);
    ]

let run_campaign session config op =
  let prng = Prng.create ~seed:config.seed in
  let coverage =
    Coverage.create ~name:(Eee_spec.op_name op)
      ~expected:(List.map Eee_spec.return_name (Eee_spec.expected_returns op))
  in
  let timeouts = ref 0 in
  let completed = ref 0 in
  Session.restart_timer session;
  (* bootstrap: bring the emulation up once, as an application would; the
     campaign's context operations (startup1 downgrades, failed formats)
     reopen the uninitialized states afterwards *)
  List.iter
    (fun boot -> ignore (issue session config prng boot))
    [ Eee_spec.Format; Eee_spec.Startup1; Eee_spec.Startup2 ];
  for case = 1 to config.test_cases do
    if Session.alive session then begin
      (* frequently reshuffle the emulation state first *)
      if Prng.chance prng 0.5 then
        ignore (issue session config prng (context_op prng));
      (* back-to-back issue right after a state-changing op maximizes the
         chance of catching the background erase (EEE_BUSY) *)
      match issue ~case session config prng op with
      | Some ret ->
        incr completed;
        Coverage.observe coverage (Eee_spec.return_name ret)
      | None -> incr timeouts
    end
  done;
  Session.result ~test_cases:!completed ~timeouts:!timeouts ~coverage session
