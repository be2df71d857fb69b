type config = {
  cases : int;
  seed : int;
  j : int;
  mutate : bool;
  artifacts : string option;
}

type case_failure = {
  key : string;
  oracles : string list;
  summary : string;
  bundle_path : string option;
}

type summary = {
  total : int;
  passed : int;
  failed : int;
  failures : case_failure list;
  events : int;
  delivered : int;
  injected : int;
}

let oracle_names =
  [
    "no-crash";
    "sup-legal";
    "invariants";
    "recovery";
    "conservation";
    "io-health";
    "busy-loop";
    "determinism";
  ]

let case_key i = Printf.sprintf "soak/%04d" i

(* ------------------------------------------------------------------ *)
(* Case generation                                                     *)

type kind = Steady | Death | Close

let kind_name = function
  | Steady -> "steady"
  | Death -> "death"
  | Close -> "close"

type case = {
  id : string;
  sub_seed : int;  (* drives shapers, fault streams, backoff jitter *)
  kind : kind;
  fault_end : float;  (* all timed fault windows end by here *)
  duration : float;  (* fault_end + recovery window *)
  close_at : float;  (* Close kind: when the sender starts teardown *)
  t_mbi : float;
  app_limit : float;
  shaper : Wire.Shaper.config;
  snd_plan : Wire.Faultio.plan;  (* sender socket: data sends, feedback pulls *)
  rcv_plan : Wire.Faultio.plan;  (* receiver socket: feedback sends, data pulls *)
}

(* Low-probability background syscall noise. Per-side fate probabilities
   stay well under 1 and exclude persistent hard errnos: hard failures
   come only from timed blackout windows, so they are guaranteed to
   clear and the recovery oracle can demand re-establishment. *)
let gen_noise rng =
  let maybe p bound =
    if Engine.Rng.bool rng ~p then Engine.Rng.float rng bound else 0.
  in
  {
    Wire.Faultio.no_faults with
    send_eagain = maybe 0.5 0.05;
    send_enobufs = maybe 0.3 0.03;
    send_eintr = maybe 0.5 0.05;
    send_refused = maybe 0.3 0.03;
    recv_drop = maybe 0.5 0.05;
    recv_truncate = maybe 0.5 0.05;
    recv_eintr = maybe 0.5 0.05;
    recv_refused = maybe 0.3 0.03;
  }

let generate ~id rng =
  let sub_seed = Engine.Rng.int rng 1_000_000 in
  let kind =
    let d = Engine.Rng.float rng 1. in
    if d < 0.45 then Death else if d < 0.65 then Close else Steady
  in
  let t_mbi = 0.25 +. Engine.Rng.float rng 0.25 in
  let app_limit = 4_000. +. Engine.Rng.float rng 12_000. in
  let shaper =
    {
      Wire.Shaper.loss =
        (if Engine.Rng.bool rng ~p:0.5 then Engine.Rng.float rng 0.15 else 0.);
      delay = 0.002 +. Engine.Rng.float rng 0.01;
      jitter = Engine.Rng.float rng 0.005;
      reorder = 0.;
    }
  in
  let snd_plan = gen_noise rng in
  let rcv_plan = gen_noise rng in
  let t0 = 0.5 +. Engine.Rng.float rng 1.0 in
  let snd_plan, fault_end =
    match kind with
    | Death ->
        (* A send blackout long enough that the no-feedback machinery
           demonstrably halves to the floor and the supervisor declares
           the peer dead at least once: halving to min_rate takes at
           most ~initial_nofb + 6 * t_mbi, then dead_expiries more. *)
        let t1 = t0 +. 5.5 +. Engine.Rng.float rng 2.5 in
        ({ snd_plan with Wire.Faultio.send_blackout = Some (t0, t1) }, t1)
    | Steady | Close ->
        (* A short receiver-side delivery blackout: data frames pulled
           in the window are discarded at the syscall boundary. *)
        let t1 = t0 +. 0.5 +. Engine.Rng.float rng 0.5 in
        (snd_plan, t1)
  in
  let rcv_plan =
    match kind with
    | Steady | Close ->
        { rcv_plan with Wire.Faultio.recv_blackout = Some (t0, fault_end) }
    | Death -> rcv_plan
  in
  let close_at = fault_end +. 3.0 in
  let duration = fault_end +. 6.0 in
  {
    id;
    sub_seed;
    kind;
    fault_end;
    duration;
    close_at;
    t_mbi;
    app_limit;
    shaper;
    snd_plan;
    rcv_plan;
  }

let case_summary c =
  Printf.sprintf
    "%s kind=%s dur=%.1f fault_end=%.1f t_mbi=%.2f app=%.0f loss=%.2f \
     delay=%.3f sub_seed=%d"
    c.id (kind_name c.kind) c.duration c.fault_end c.t_mbi c.app_limit
    c.shaper.Wire.Shaper.loss c.shaper.Wire.Shaper.delay c.sub_seed

(* ------------------------------------------------------------------ *)
(* One execution                                                       *)

type verdict = { oracle : string; detail : string }

type run_stats = {
  r_failures : verdict list;
  r_events : int;
  r_delivered : int;
  r_injected : int;
  r_digest : Engine.Trace.digest;
  r_counters : string;
  r_tail : string list;
}

(* Supervisor thresholds tuned for soak time scales: quick health
   sampling, short bounded backoff so several death/restart cycles fit
   in one fault window. *)
let soak_sup =
  {
    Wire.Supervisor.default_config with
    backoff_base = 0.25;
    backoff_max = 2.;
    close_timeout = 0.5;
    health_period = 0.05;
  }

let run_once ?sink ~mutate (c : case) =
  let bus = Engine.Trace.create ~ring:40 () in
  let checker = Tfrc.Invariants.create () in
  Tfrc.Invariants.attach checker bus;
  let digest_sink, digest = Engine.Trace.digest_sink () in
  Engine.Trace.add_sink bus digest_sink;
  Option.iter (Engine.Trace.add_sink bus) sink;
  let loop = Wire.Loop.create ~trace:bus ~mode:`Warp () in
  let rt = Wire.Loop.runtime loop in
  let snd_fio =
    Wire.Faultio.wrap rt ~seed:c.sub_seed ~plan:c.snd_plan (Wire.Netio.unix ())
  in
  let rcv_fio =
    Wire.Faultio.wrap rt ~seed:(c.sub_seed + 1) ~plan:c.rcv_plan
      (Wire.Netio.unix ())
  in
  let snd_udp = Wire.Udp.create loop ~netio:(Wire.Faultio.netio snd_fio) () in
  let rcv_udp = Wire.Udp.create loop ~netio:(Wire.Faultio.netio rcv_fio) () in
  Fun.protect
    ~finally:(fun () ->
      Wire.Udp.close snd_udp;
      Wire.Udp.close rcv_udp)
  @@ fun () ->
  let snd_addr = Wire.Udp.addr ~port:(Wire.Udp.port snd_udp) in
  let rcv_addr = Wire.Udp.addr ~port:(Wire.Udp.port rcv_udp) in
  (* Every frame (data and control, both directions) goes through a
     shaper, so each socket send happens in its own timer callback —
     that is what keeps cross-socket trace interleaving deterministic
     under the warp settle. [data_out]/[fb_out] count frames the shaper
     actually handed to the send path (sent minus dropped minus still
     in flight at the end). *)
  let data_out = ref 0 and fb_out = ref 0 in
  let data_shaper =
    Wire.Shaper.create rt ~seed:(c.sub_seed + 2) ~config:c.shaper
      ~deliver:(fun frame ->
        incr data_out;
        Wire.Udp.send snd_udp ~dest:rcv_addr frame)
      ()
  in
  let fb_shaper =
    Wire.Shaper.create rt ~seed:(c.sub_seed + 3) ~config:c.shaper
      ~deliver:(fun frame ->
        incr fb_out;
        Wire.Udp.send rcv_udp ~dest:snd_addr frame)
      ()
  in
  let tfrc_config =
    Tfrc.Tfrc_config.default ~initial_rtt:0.05 ~min_rate:500. ~t_mbi:c.t_mbi
      ~initial_nofb_timeout:(2. *. c.t_mbi) ()
  in
  let sup =
    Wire.Supervisor.create loop snd_udp ~config:tfrc_config ~sup:soak_sup
      ~flow:1 ~dest:rcv_addr
      ~send:(Wire.Shaper.send data_shaper)
      ~seed:(c.sub_seed + 4) ~mutate ()
  in
  let rcv =
    Wire.Supervisor.Receiver.create loop rcv_udp ~config:tfrc_config ~flow:1
      ~send:(Wire.Shaper.send fb_shaper)
      ()
  in
  Tfrc.Tfrc_sender.set_app_limit
    (Wire.Supervisor.machine sup)
    (Some c.app_limit);
  Wire.Supervisor.start sup ~at:0.;
  if c.kind = Close then
    ignore
      (Wire.Loop.after loop c.close_at (fun () -> Wire.Supervisor.close sup));
  let crash =
    try
      Wire.Loop.run loop ~until:c.duration;
      None
    with e -> Some { oracle = "no-crash"; detail = Printexc.to_string e }
  in
  (* Finalize: freeze both endpoints, then flush the shapers' in-flight
     frames and the kernel's in-flight datagrams so the counter chains
     close. Frames arriving after the freeze land in post_quiesce. *)
  Wire.Supervisor.quiesce sup;
  Wire.Supervisor.Receiver.quiesce rcv;
  let grace =
    c.duration +. c.shaper.Wire.Shaper.delay +. c.shaper.Wire.Shaper.jitter
    +. 0.05
  in
  let crash =
    match crash with
    | Some _ -> crash
    | None -> (
        try
          Wire.Loop.run loop ~until:grace;
          Wire.Loop.settle_io loop;
          None
        with e -> Some { oracle = "no-crash"; detail = Printexc.to_string e })
  in
  let giveups = Wire.Loop.io_giveups loop in
  let st = Wire.Supervisor.state sup in
  let transitions = Wire.Supervisor.transitions sup in
  let recovery_failures =
    let established_after =
      st = Wire.Supervisor.Established
      || List.exists
           (fun (time, from, to_) ->
             time > c.fault_end
             && (to_ = Wire.Supervisor.Established
                || from = Wire.Supervisor.Established))
           transitions
    in
    let fail detail = [ { oracle = "recovery"; detail } ] in
    let progress = Wire.Supervisor.Receiver.packets_received rcv in
    if progress = 0 then fail "no data packet ever reached the receiver"
    else
      match c.kind with
      | Close ->
          if st <> Wire.Supervisor.Closed then
            fail
              (Printf.sprintf "graceful close ended in %s, not closed"
                 (Wire.Supervisor.state_name st))
          else []
      | Death ->
          if Wire.Supervisor.restarts sup < 1 || Wire.Supervisor.epoch sup < 2
          then
            fail
              (Printf.sprintf
                 "death case never restarted (restarts=%d epoch=%d)"
                 (Wire.Supervisor.restarts sup)
                 (Wire.Supervisor.epoch sup))
          else if not established_after then
            fail
              (Printf.sprintf
                 "not re-established after faults cleared at %.1f (final \
                  state %s)"
                 c.fault_end
                 (Wire.Supervisor.state_name st))
          else []
      | Steady ->
          if not established_after then
            fail
              (Printf.sprintf
                 "not established after faults cleared at %.1f (final state \
                  %s)"
                 c.fault_end
                 (Wire.Supervisor.state_name st))
          else []
  in
  (* Counter chains. Each is exact once the kernel and shapers drained;
     a settle give-up means the kernel lost a datagram under us, which
     io-health reports separately (and makes the cross-kernel links
     unreliable, so they are skipped). *)
  let conservation_failures =
    let errs = ref [] in
    let check name lhs rhs =
      if lhs <> rhs then
        errs :=
          {
            oracle = "conservation";
            detail = Printf.sprintf "%s: %d <> %d" name lhs rhs;
          }
          :: !errs
    in
    let checkge name lhs rhs =
      if lhs < rhs then
        errs :=
          {
            oracle = "conservation";
            detail = Printf.sprintf "%s: %d < %d" name lhs rhs;
          }
          :: !errs
    in
    (* shaper output lands in exactly one send bucket *)
    check "data: shaper-out = tx + drops + errors" !data_out
      (Wire.Udp.datagrams_sent snd_udp
      + Wire.Udp.send_drops snd_udp
      + Wire.Udp.send_errors snd_udp);
    check "fb: shaper-out = tx + drops + errors" !fb_out
      (Wire.Udp.datagrams_sent rcv_udp
      + Wire.Udp.send_drops rcv_udp
      + Wire.Udp.send_errors rcv_udp);
    (* shaper residue (still in flight when the run ended) is never
       negative *)
    checkge "data: shaper sent >= dropped + out"
      (Wire.Shaper.sent data_shaper)
      (Wire.Shaper.dropped data_shaper + !data_out);
    checkge "fb: shaper sent >= dropped + out"
      (Wire.Shaper.sent fb_shaper)
      (Wire.Shaper.dropped fb_shaper + !fb_out);
    if giveups = 0 then begin
      (* every datagram handed to the kernel was pulled by the peer *)
      check "data: tx = peer pulls"
        (Wire.Udp.datagrams_sent snd_udp)
        (Wire.Faultio.pulled rcv_fio);
      check "fb: tx = peer pulls"
        (Wire.Udp.datagrams_sent rcv_udp)
        (Wire.Faultio.pulled snd_fio)
    end;
    (* every pulled datagram was a fault drop or reached the handler *)
    check "data: pulls = fault drops + rx"
      (Wire.Faultio.pulled rcv_fio)
      (Wire.Faultio.drops rcv_fio + Wire.Udp.datagrams_received rcv_udp);
    check "fb: pulls = fault drops + rx"
      (Wire.Faultio.pulled snd_fio)
      (Wire.Faultio.drops snd_fio + Wire.Udp.datagrams_received snd_udp);
    (* every handled datagram decoded into exactly one bucket *)
    check "data: rx = delivered + stale + ctrl + post_quiesce + decode_errors"
      (Wire.Udp.datagrams_received rcv_udp)
      (Wire.Supervisor.Receiver.delivered rcv
      + Wire.Supervisor.Receiver.stale_frames rcv
      + Wire.Supervisor.Receiver.ctrl_frames rcv
      + Wire.Supervisor.Receiver.post_quiesce rcv
      + Wire.Supervisor.Receiver.decode_errors rcv);
    check "fb: rx = feedback + stale + ctrl + post_quiesce + decode_errors"
      (Wire.Udp.datagrams_received snd_udp)
      (Wire.Supervisor.feedback_delivered sup
      + Wire.Supervisor.stale_frames sup
      + Wire.Supervisor.ctrl_frames sup
      + Wire.Supervisor.post_quiesce sup
      + Wire.Supervisor.decode_errors sup);
    List.rev !errs
  in
  let io_failures =
    if giveups = 0 then []
    else
      [
        {
          oracle = "io-health";
          detail =
            Printf.sprintf "warp settle gave up on %d datagram(s)" giveups;
        };
      ]
  in
  let busy_failures =
    let polls = Wire.Loop.polls loop and fired = Wire.Loop.fired loop in
    let bound = 2_000 + (20 * fired) + (300 * giveups) in
    if polls > bound then
      [
        {
          oracle = "busy-loop";
          detail =
            Printf.sprintf "%d select calls for %d timer fires (bound %d)"
              polls fired bound;
        };
      ]
    else if fired > 500_000 then
      [
        {
          oracle = "busy-loop";
          detail = Printf.sprintf "%d timer fires — runaway timer loop" fired;
        };
      ]
    else []
  in
  let sup_failures, inv_failures =
    if Tfrc.Invariants.ok checker then ([], [])
    else begin
      let all = Tfrc.Invariants.violations checker in
      let sup_v, other =
        List.partition
          (fun (v : Tfrc.Invariants.violation) -> v.rule = "wire-sup-legal")
          all
      in
      let render oracle = function
        | [] -> []
        | vs ->
            let shown = List.filteri (fun i _ -> i < 3) vs in
            [
              {
                oracle;
                detail =
                  Printf.sprintf "%d violation(s): %s" (List.length vs)
                    (String.concat " | "
                       (List.map
                          (fun (v : Tfrc.Invariants.violation) ->
                            Printf.sprintf "[%.4f] %s: %s" v.time v.rule
                              v.detail)
                          shown));
              };
            ]
      in
      (render "sup-legal" sup_v, render "invariants" other)
    end
  in
  let injected = Wire.Faultio.injected snd_fio + Wire.Faultio.injected rcv_fio in
  let delivered = Wire.Supervisor.Receiver.packets_received rcv in
  let counters =
    Printf.sprintf
      "st=%s restarts=%d epoch=%d trans=%d fb=%d stale=%d/%d ctrl=%d/%d \
       dec=%d/%d pq=%d/%d sent=%d recv=%d fbs=%d sh=%d/%d,%d/%d out=%d/%d \
       tx=%d/%d txd=%d/%d txe=%d/%d rx=%d/%d pulls=%d/%d fdrop=%d/%d \
       trunc=%d/%d inj=%d"
      (Wire.Supervisor.state_name st)
      (Wire.Supervisor.restarts sup)
      (Wire.Supervisor.epoch sup)
      (List.length transitions)
      (Wire.Supervisor.feedback_delivered sup)
      (Wire.Supervisor.stale_frames sup)
      (Wire.Supervisor.Receiver.stale_frames rcv)
      (Wire.Supervisor.ctrl_frames sup)
      (Wire.Supervisor.Receiver.ctrl_frames rcv)
      (Wire.Supervisor.decode_errors sup)
      (Wire.Supervisor.Receiver.decode_errors rcv)
      (Wire.Supervisor.post_quiesce sup)
      (Wire.Supervisor.Receiver.post_quiesce rcv)
      (Wire.Supervisor.data_packets_sent sup)
      delivered
      (Wire.Supervisor.Receiver.feedbacks_sent rcv)
      (Wire.Shaper.sent data_shaper)
      (Wire.Shaper.dropped data_shaper)
      (Wire.Shaper.sent fb_shaper)
      (Wire.Shaper.dropped fb_shaper)
      !data_out !fb_out
      (Wire.Udp.datagrams_sent snd_udp)
      (Wire.Udp.datagrams_sent rcv_udp)
      (Wire.Udp.send_drops snd_udp)
      (Wire.Udp.send_drops rcv_udp)
      (Wire.Udp.send_errors snd_udp)
      (Wire.Udp.send_errors rcv_udp)
      (Wire.Udp.datagrams_received snd_udp)
      (Wire.Udp.datagrams_received rcv_udp)
      (Wire.Faultio.pulled snd_fio)
      (Wire.Faultio.pulled rcv_fio)
      (Wire.Faultio.drops snd_fio)
      (Wire.Faultio.drops rcv_fio)
      (Wire.Faultio.truncated snd_fio)
      (Wire.Faultio.truncated rcv_fio)
      injected
  in
  let failures =
    (match crash with Some v -> [ v ] | None -> [])
    @ sup_failures @ inv_failures @ recovery_failures @ conservation_failures
    @ io_failures @ busy_failures
  in
  {
    r_failures = failures;
    r_events = Engine.Trace.emitted bus;
    r_delivered = delivered;
    r_injected = injected;
    r_digest = digest;
    r_counters = counters;
    r_tail = List.map Engine.Trace.to_json (Engine.Trace.recent bus);
  }

type outcome = {
  failures : verdict list;
  events : int;
  delivered : int;
  injected : int;
  counters : string;
  tail : string list;
}

(* Run twice: the virtual-time schedule, fault draws and counter chains
   must replay identically even though the kernel's real-time delivery
   of loopback datagrams differs between runs. *)
let run_case ~mutate c =
  let a = run_once ~mutate c in
  let b = run_once ~mutate c in
  let da = Engine.Trace.digest_value a.r_digest
  and db = Engine.Trace.digest_value b.r_digest in
  let determinism =
    if da = db && a.r_events = b.r_events && a.r_counters = b.r_counters then []
    else
      let replay sink = ignore (run_once ~sink ~mutate c : run_stats) in
      [
        {
          oracle = "determinism";
          detail =
            Printf.sprintf "run A: %d events, digest %x, {%s}; run B: %d events, digest \
               %x, {%s}; %s"
              a.r_events da a.r_counters b.r_events db b.r_counters
              (Engine.Trace.divergence_report a.r_digest b.r_digest ~replay_a:replay
                 ~replay_b:replay);
        };
      ]
  in
  {
    failures = a.r_failures @ determinism;
    events = a.r_events;
    delivered = a.r_delivered;
    injected = a.r_injected;
    counters = a.r_counters;
    tail = a.r_tail;
  }

let failed_oracles failures =
  List.fold_left
    (fun acc v -> if List.mem v.oracle acc then acc else acc @ [ v.oracle ])
    [] failures

(* ------------------------------------------------------------------ *)
(* Repro bundles                                                       *)

let bundle_filename key =
  String.map (fun ch -> if ch = '/' then '-' else ch) key ^ ".soak"

let bundle_sexp ~key ~index ~seed ~mutate ~oracles ~details ~summary ~counters
    =
  Sexp.List
    [
      Sexp.Atom "wire-soak-bundle";
      Sexp.List [ Sexp.Atom "case"; Sexp.Atom key ];
      Sexp.List [ Sexp.Atom "index"; Sexp.Atom (string_of_int index) ];
      Sexp.List [ Sexp.Atom "seed"; Sexp.Atom (string_of_int seed) ];
      Sexp.List [ Sexp.Atom "mutate"; Sexp.Atom (string_of_bool mutate) ];
      Sexp.List
        [
          Sexp.Atom "oracles";
          Sexp.List (List.map (fun o -> Sexp.Atom o) oracles);
        ];
      Sexp.List
        [
          Sexp.Atom "details";
          Sexp.List (List.map (fun d -> Sexp.Atom d) details);
        ];
      Sexp.List [ Sexp.Atom "summary"; Sexp.Atom summary ];
      Sexp.List [ Sexp.Atom "counters"; Sexp.Atom counters ];
    ]

let save_bundle ~dir sx key =
  Exp.Checkpoint.ensure_dir dir;
  let path = Filename.concat dir (bundle_filename key) in
  (match open_out_bin path with
  | oc ->
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc (Sexp.to_string_hum sx))
  | exception Sys_error msg ->
      failwith (Printf.sprintf "cannot write soak bundle %s: %s" path msg));
  path

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)

let case_job ~mutate i =
  let key = case_key i in
  Exp.Job.make key (fun rng ->
      let c = generate ~id:key rng in
      let o = run_case ~mutate c in
      [
        ("ok", Exp.Job.b (o.failures = []));
        ("oracles", Exp.Job.strs (failed_oracles o.failures));
        ( "details",
          Exp.Job.strs (List.map (fun v -> v.detail) o.failures) );
        ("events", Exp.Job.i o.events);
        ("delivered", Exp.Job.i o.delivered);
        ("injected", Exp.Job.i o.injected);
        ("summary", Exp.Job.s (case_summary c));
        ("counters", Exp.Job.s o.counters);
        ("tail", Exp.Job.strs o.tail);
      ])

let run ~out cfg =
  (* No worker count, no wall clock: stdout must be byte-identical at
     any -j, so CI can diff parallel against sequential runs. *)
  Format.fprintf out "wire soak: %d cases, seed %d%s@." cfg.cases cfg.seed
    (if cfg.mutate then ", mutate (self-test)" else "");
  let jobs = List.init cfg.cases (case_job ~mutate:cfg.mutate) in
  let outcomes, _report =
    Exp.Runner.run_jobs_supervised ~j:cfg.j ~seed:cfg.seed jobs
  in
  let events = ref 0 and delivered = ref 0 and injected = ref 0 in
  let index_of key = Scanf.sscanf key "soak/%d" (fun i -> i) in
  let failures =
    List.filter_map
      (fun (key, outcome) ->
        match outcome with
        | Exp.Runner.Completed r when Exp.Job.get_bool r "ok" ->
            events := !events + Exp.Job.get_int r "events";
            delivered := !delivered + Exp.Job.get_int r "delivered";
            injected := !injected + Exp.Job.get_int r "injected";
            None
        | Exp.Runner.Completed r ->
            events := !events + Exp.Job.get_int r "events";
            delivered := !delivered + Exp.Job.get_int r "delivered";
            injected := !injected + Exp.Job.get_int r "injected";
            let oracles = Exp.Job.get_strs r "oracles" in
            let details = Exp.Job.get_strs r "details" in
            let summary = Exp.Job.get_str r "summary" in
            Format.fprintf out "%s FAIL [%s] %s@." key
              (String.concat ", " oracles)
              summary;
            List.iter (fun d -> Format.fprintf out "  %s@." d) details;
            let bundle_path =
              match cfg.artifacts with
              | None -> None
              | Some dir ->
                  let sx =
                    bundle_sexp ~key ~index:(index_of key) ~seed:cfg.seed
                      ~mutate:cfg.mutate ~oracles ~details ~summary
                      ~counters:(Exp.Job.get_str r "counters")
                  in
                  let path = save_bundle ~dir sx key in
                  Format.fprintf out "  bundle: %s@." path;
                  Some path
            in
            Some { key; oracles; summary; bundle_path }
        | Exp.Runner.Gave_up f ->
            Format.fprintf out "%s FAIL [harness] %s@." key
              (Exp.Runner.failure_summary f);
            Some
              {
                key;
                oracles = [ "harness" ];
                summary = "";
                bundle_path = None;
              })
      outcomes
  in
  let failed = List.length failures in
  let summary =
    {
      total = cfg.cases;
      passed = cfg.cases - failed;
      failed;
      failures;
      events = !events;
      delivered = !delivered;
      injected = !injected;
    }
  in
  Format.fprintf out
    "wire soak: %d/%d passed, %d failed (%d trace events, %d data packets \
     delivered, %d faults injected)@."
    summary.passed summary.total summary.failed summary.events
    summary.delivered summary.injected;
  summary

let mutate_ok s =
  s.failed > 0
  && List.for_all (fun f -> f.oracles = [ "sup-legal" ]) s.failures

let replay ~out path =
  let contents =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let sx = Sexp.of_string contents in
  (match sx with
  | Sexp.List (Sexp.Atom "wire-soak-bundle" :: _) -> ()
  | _ -> failwith (path ^ ": not a wire-soak bundle"));
  let key = Sexp.atom_field "case" sx in
  let seed = Sexp.int_field "seed" sx in
  let mutate = bool_of_string (Sexp.atom_field "mutate" sx) in
  let recorded =
    List.map
      (function Sexp.Atom a -> a | _ -> failwith "malformed oracles")
      (Sexp.list_field "oracles" sx)
  in
  let c = generate ~id:key (Engine.Rng.for_key ~seed key) in
  Format.fprintf out "replay %s: %s@." key (case_summary c);
  Format.fprintf out "recorded verdict: [%s]@."
    (String.concat ", " recorded);
  let o = run_case ~mutate c in
  let fresh = failed_oracles o.failures in
  Format.fprintf out "replayed verdict: [%s]@." (String.concat ", " fresh);
  List.iter
    (fun v -> Format.fprintf out "  %s: %s@." v.oracle v.detail)
    o.failures;
  let matches = List.sort compare fresh = List.sort compare recorded in
  Format.fprintf out
    (if matches then "verdict reproduced@."
     else
       "VERDICT MISMATCH: the bundle does not replay to its recorded \
        verdict@.");
  matches
