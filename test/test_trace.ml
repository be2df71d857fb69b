(* Tests for the structured trace bus (Engine.Trace) and the online
   RFC 3448 invariant checker (Tfrc.Invariants). *)

let checkf ?(eps = 1e-9) msg = Alcotest.check (Alcotest.float eps) msg
let qtest t = QCheck_alcotest.to_alcotest t

let ev ?(time = 0.) kind = { Engine.Trace.time; kind }

(* --- Bus ------------------------------------------------------------------ *)

let test_memory_sink_order () =
  let bus = Engine.Trace.create () in
  let sink, events = Engine.Trace.memory_sink () in
  Engine.Trace.add_sink bus sink;
  Engine.Trace.emit bus ~time:1. Engine.Event.Sim_created;
  Engine.Trace.emit bus ~time:2. (Engine.Event.Sim_sweep { before = 7; after = 0 });
  let evs = events () in
  Alcotest.(check int) "two events" 2 (List.length evs);
  let e1 = List.nth evs 0 and e2 = List.nth evs 1 in
  checkf "first time" 1. e1.Engine.Trace.time;
  Alcotest.(check (pair string string)) "first kind" ("sim", "created")
    (Engine.Event.names e1.Engine.Trace.kind);
  Alcotest.(check int) "field survives" 7
    (match e2.Engine.Trace.kind with Sim_sweep { before; _ } -> before | _ -> 0);
  Alcotest.(check int) "emitted counter" 2 (Engine.Trace.emitted bus)

let test_inactive_bus_noop () =
  let bus = Engine.Trace.create () in
  Alcotest.(check bool) "no sinks: inactive" false (Engine.Trace.active bus);
  Engine.Trace.emit bus ~time:1. Engine.Event.Sim_created;
  Alcotest.(check int) "nothing counted" 0 (Engine.Trace.emitted bus);
  Alcotest.(check (list reject)) "no ring" []
    (List.map (fun _ -> ()) (Engine.Trace.recent bus))

let test_ring_oldest_first () =
  let bus = Engine.Trace.create ~ring:3 () in
  Alcotest.(check bool) "ring makes bus active" true (Engine.Trace.active bus);
  for i = 1 to 5 do
    Engine.Trace.emit bus ~time:(float_of_int i) (Engine.Event.Queue_sample { len = i })
  done;
  let times =
    List.map (fun e -> e.Engine.Trace.time) (Engine.Trace.recent bus)
  in
  Alcotest.(check (list (float 1e-9))) "last three, oldest first"
    [ 3.; 4.; 5. ] times

let test_to_json_exact () =
  let json time kind = Engine.Trace.to_json (ev ~time kind) in
  Alcotest.(check string) "json line"
    "{\"t\":1.5,\"cat\":\"link\",\"ev\":\"drop\",\"link\":\"bottleneck-fwd\",\"id\":3,\"flow\":1,\"seq\":42,\"size\":1000,\"reason\":\"outage\"}"
    (json 1.5
       (Link_drop
          { link = "bottleneck-fwd"; id = 3; flow = 1; seq = 42; size = 1000; reason = Outage }));
  Alcotest.(check string) "floats and bools"
    "{\"t\":0.1,\"cat\":\"tfrc\",\"ev\":\"start\",\"flow\":2,\"rate\":2.25,\"s\":1000,\"min_rate\":0.333333333333,\"rv\":false,\"t_mbi\":1e999}"
    (json 0.1
       (Tfrc_start
          { flow = 2; rate = 2.25; s = 1000.; min_rate = 1. /. 3.; rv = false; t_mbi = infinity }));
  Alcotest.(check string) "no fields"
    "{\"t\":0,\"cat\":\"sim\",\"ev\":\"created\"}"
    (json 0. Sim_created);
  Alcotest.(check string) "nan renders as null"
    "{\"t\":0,\"cat\":\"sim\",\"ev\":\"run_start\",\"until\":null}"
    (json 0. (Sim_run_start { until = Float.nan }));
  Alcotest.(check string) "strings escaped"
    "{\"t\":0,\"cat\":\"sim\",\"ev\":\"budget_exhausted\",\"detail\":\"a\\\"b\\n\\u0001\"}"
    (json 0. (Sim_budget_exhausted { detail = "a\"b\n\001" }))

let test_file_sink_jsonl () =
  let path = Filename.temp_file "trace_test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let bus = Engine.Trace.create () in
      Engine.Trace.add_sink bus (Engine.Trace.file_sink path);
      Engine.Trace.emit bus ~time:0.5 (Engine.Event.Queue_sample { len = 1 });
      Engine.Trace.emit bus ~time:1.5 Engine.Event.Sim_created;
      Engine.Trace.close bus;
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let lines = List.rev !lines in
      Alcotest.(check int) "two lines" 2 (List.length lines);
      Alcotest.(check string) "first line"
        "{\"t\":0.5,\"cat\":\"queue\",\"ev\":\"sample\",\"len\":1}" (List.nth lines 0))

let test_remove_sink_physical_eq () =
  let bus = Engine.Trace.create () in
  let s1, events1 = Engine.Trace.memory_sink () in
  let s2, events2 = Engine.Trace.memory_sink () in
  Engine.Trace.add_sink bus s1;
  Engine.Trace.add_sink bus s2;
  Engine.Trace.emit bus ~time:1. Engine.Event.Sim_created;
  Engine.Trace.remove_sink bus s1;
  Engine.Trace.emit bus ~time:2. Engine.Event.Sim_created;
  Alcotest.(check int) "detached sink stops receiving" 1
    (List.length (events1 ()));
  Alcotest.(check int) "other sink keeps receiving" 2
    (List.length (events2 ()));
  Engine.Trace.remove_sink bus s2;
  Alcotest.(check bool) "bus inactive again" false (Engine.Trace.active bus)

(* --- Digest --------------------------------------------------------------- *)

let digest evs =
  let sink, d = Engine.Trace.digest_sink () in
  List.iter sink.Engine.Trace.emit evs;
  Engine.Trace.digest_value d

let rate_update ?(time = 1.) ?(rate = 1000.) ?(p = 0.01) ?(rtt = 0.1) () =
  ev ~time
    (Tfrc_rate_update { flow = 1; rate; prev_rate = 900.; recv_rate = 800.; p; rtt })

let stream () =
  [
    ev Engine.Event.Sim_created;
    rate_update ();
    ev ~time:2. (Link_send { link = "l0"; id = 1; flow = 1; seq = 0; size = 1000 });
  ]

let test_digest_equal_streams () =
  Alcotest.(check int) "same events, same digest" (digest (stream ())) (digest (stream ()));
  Alcotest.(check bool) "empty differs from non-empty" true
    (digest [] <> digest (stream ()))

let differs msg a b = Alcotest.(check bool) msg true (digest a <> digest b)

let test_digest_float_bits () =
  let r = 1000. in
  differs "one ulp in a float field" [ rate_update ~rate:r () ]
    [ rate_update ~rate:(Float.succ r) () ];
  differs "one ulp in the time" [ rate_update ~time:1. () ]
    [ rate_update ~time:(Float.succ 1.) () ];
  differs "0. vs -0." [ rate_update ~p:0. () ] [ rate_update ~p:(-0.) () ];
  (* The JSONL cannot tell these apart; the digest must. *)
  let a = rate_update ~rate:r () and b = rate_update ~rate:(Float.succ r) () in
  Alcotest.(check string) "%.12g merges them" (Engine.Trace.to_json a)
    (Engine.Trace.to_json b)

let test_digest_field_position () =
  differs "same value in another field"
    [ rate_update ~p:0.1 ~rtt:0.2 () ]
    [ rate_update ~p:0.2 ~rtt:0.1 () ];
  differs "swapped ints" [ ev (Sim_sweep { before = 3; after = 5 }) ]
    [ ev (Sim_sweep { before = 5; after = 3 }) ]

let test_digest_constructor () =
  differs "same ints, other constructor" [ ev (Sim_sweep { before = 3; after = 5 }) ]
    [ ev (Wire_sweep { before = 3; after = 5 }) ];
  differs "same fields, send vs deliver"
    [ ev (Link_send { link = "l0"; id = 1; flow = 1; seq = 0; size = 1000 }) ]
    [ ev (Link_deliver { link = "l0"; id = 1; flow = 1; seq = 0; size = 1000 }) ]

let test_digest_order () =
  let s = stream () in
  differs "swapped event order" s (List.rev s)

(* The digest runs on every event of every fuzz case: it must not
   allocate. *)
let test_digest_no_alloc () =
  let sink, d = Engine.Trace.digest_sink () in
  let evs = Array.of_list (stream ()) in
  let w0 = Gc.minor_words () in
  for i = 0 to 29_999 do
    sink.Engine.Trace.emit evs.(i mod 3)
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "events digested" 30_000 (Engine.Trace.digest_events d);
  Alcotest.(check bool) (Printf.sprintf "%.0f words for 30k events" words) true (words < 200.)

(* --- First divergence ----------------------------------------------------- *)

(* A 3000-event run closure. Its even-numbered invocations play run B,
   whose event [bad_at] carries a changed field (or which stops at
   [bad_at] when [truncate]). *)
let two_runs ?(truncate = false) ~bad_at () =
  let calls = ref 0 in
  fun (sink : Engine.Trace.sink) ->
    incr calls;
    let run_b = !calls mod 2 = 0 in
    let n = if run_b && truncate then bad_at else 3000 in
    for i = 0 to n - 1 do
      let len = if run_b && i = bad_at then -1 else i in
      sink.emit (ev ~time:(float_of_int i) (Queue_sample { len }))
    done

let diverge ?truncate ~bad_at () =
  let run = two_runs ?truncate ~bad_at () in
  let sa, da = Engine.Trace.digest_sink () in
  run sa;
  let sb, db = Engine.Trace.digest_sink () in
  run sb;
  (da, db, run)

let len_of = function
  | Some { Engine.Trace.kind = Engine.Event.Queue_sample { len }; _ } -> len
  | _ -> min_int

let test_first_divergence () =
  let da, db, run = diverge ~bad_at:1500 () in
  match Engine.Trace.first_divergence da db ~replay_a:run ~replay_b:run with
  | None -> Alcotest.fail "divergence not found"
  | Some d ->
      Alcotest.(check int) "index" 1500 d.index;
      Alcotest.(check int) "run A's event" 1500 (len_of d.a);
      Alcotest.(check int) "run B's event" (-1) (len_of d.b);
      Alcotest.(check (list int)) "the two before it" [ 1498; 1499 ]
        (List.map (fun e -> len_of (Some e)) d.before)

let test_divergence_report () =
  let da, db, run = diverge ~bad_at:1500 () in
  let report = Engine.Trace.divergence_report da db ~replay_a:run ~replay_b:run in
  Alcotest.(check bool) report true
    (Astring.String.is_prefix ~affix:"first divergence at event 1500: A " report)

let test_divergence_shorter_run () =
  let da, db, run = diverge ~truncate:true ~bad_at:2500 () in
  match Engine.Trace.first_divergence da db ~replay_a:run ~replay_b:run with
  | None -> Alcotest.fail "divergence not found"
  | Some d ->
      Alcotest.(check int) "index where B ended" 2500 d.index;
      Alcotest.(check bool) "B has no event there" true (d.b = None)

let test_no_divergence () =
  let da, db, run = diverge ~bad_at:5000 () in
  Alcotest.(check bool) "equal runs" true
    (Engine.Trace.first_divergence da db ~replay_a:run ~replay_b:run = None)

(* --- Sim integration ------------------------------------------------------ *)

let test_sim_lifecycle_events () =
  let bus = Engine.Trace.create () in
  let sink, events = Engine.Trace.memory_sink () in
  Engine.Trace.add_sink bus sink;
  let sim = Engine.Sim.create ~trace:bus () in
  ignore (Engine.Sim.at sim 1. (fun () -> ()));
  Engine.Sim.run sim ~until:2.;
  let names = List.map (fun e -> Engine.Event.names e.Engine.Trace.kind) (events ()) in
  Alcotest.(check bool) "sim/created" true
    (List.mem ("sim", "created") names);
  Alcotest.(check bool) "sim/run_start" true
    (List.mem ("sim", "run_start") names);
  Alcotest.(check bool) "sim/run_end" true (List.mem ("sim", "run_end") names)

(* --- Invariant checker units ---------------------------------------------- *)

(* One-shot per-flow config event: the checker reads s/min_rate/rv/t_mbi
   from this, so every sender-rule test starts with it. *)
let start_ev ?(time = 0.) ?(flow = 1) ?(rate = 1000.) ?(seg = 1000.)
    ?(min_rate = 100.) ?(rv = true) ?(t_mbi = 64.) () =
  ev ~time (Tfrc_start { flow; rate; s = seg; min_rate; rv; t_mbi })

let rate_update_ev ?(time = 1.) ?(flow = 1) ~rate ~prev_rate ~recv_rate ~p
    ~rtt () =
  ev ~time (Tfrc_rate_update { flow; rate; prev_rate; recv_rate; p; rtt })

let test_checker_clean_rate_update () =
  let t = Tfrc.Invariants.create () in
  Tfrc.Invariants.check_event t (start_ev ());
  Tfrc.Invariants.check_event t
    (rate_update_ev ~rate:1800. ~prev_rate:1000. ~recv_rate:1000. ~p:0.05
       ~rtt:0.1 ());
  Alcotest.(check bool) "clean update passes" true (Tfrc.Invariants.ok t);
  Alcotest.(check int) "events counted" 2 (Tfrc.Invariants.n_events t)

(* Acceptance: a sender pushing rate > 2·X_recv under rate validation is
   flagged. *)
let test_checker_broken_sender () =
  let t = Tfrc.Invariants.create () in
  Tfrc.Invariants.check_event t (start_ev ());
  Tfrc.Invariants.check_event t
    (rate_update_ev ~rate:5000. ~prev_rate:1000. ~recv_rate:1000. ~p:0.1
       ~rtt:0.1 ());
  Alcotest.(check bool) "violation detected" false (Tfrc.Invariants.ok t);
  match Tfrc.Invariants.violations t with
  | [ v ] ->
      Alcotest.(check string) "rule name" "sender-rate-bound"
        v.Tfrc.Invariants.rule
  | l -> Alcotest.failf "expected one violation, got %d" (List.length l)

let nofb_ev ?(time = 1.) ?(flow = 1) ~rate ~interval ~consecutive () =
  ev ~time (Tfrc_nofb_expiry { flow; rate; interval; consecutive })

let test_checker_nofb_exceeds_t_mbi () =
  let t = Tfrc.Invariants.create () in
  Tfrc.Invariants.check_event t (start_ev ~t_mbi:64. ());
  Tfrc.Invariants.check_event t
    (nofb_ev ~rate:500. ~interval:100. ~consecutive:1 ());
  Alcotest.(check bool) "interval above t_mbi flagged" false
    (Tfrc.Invariants.ok t)

let test_checker_nofb_shrinking_backoff () =
  let t = Tfrc.Invariants.create () in
  Tfrc.Invariants.check_event t (start_ev ());
  Tfrc.Invariants.check_event t
    (nofb_ev ~time:1. ~rate:500. ~interval:20. ~consecutive:1 ());
  Alcotest.(check bool) "first expiry fine" true (Tfrc.Invariants.ok t);
  Tfrc.Invariants.check_event t
    (nofb_ev ~time:2. ~rate:500. ~interval:10. ~consecutive:2 ());
  Alcotest.(check bool) "shrinking consecutive interval flagged" false
    (Tfrc.Invariants.ok t)

let test_checker_nofb_below_floor () =
  let t = Tfrc.Invariants.create () in
  Tfrc.Invariants.check_event t (start_ev ~min_rate:100. ());
  Tfrc.Invariants.check_event t
    (nofb_ev ~rate:50. ~interval:1. ~consecutive:1 ());
  Alcotest.(check bool) "rate below configured floor flagged" false
    (Tfrc.Invariants.ok t)

let feedback_ev ?(time = 1.) ?(flow = 1) ~p ~recv_rate ~n_closed ~avg () =
  ev ~time (Tfrc_feedback { flow; p; recv_rate; n_closed; avg_interval = avg })

let test_checker_loss_rate_range () =
  let t = Tfrc.Invariants.create () in
  Tfrc.Invariants.check_event t
    (feedback_ev ~p:1.5 ~recv_rate:1000. ~n_closed:0 ~avg:0. ());
  Alcotest.(check bool) "p > 1 flagged" false (Tfrc.Invariants.ok t)

let test_checker_loss_rate_zero_with_history () =
  let t = Tfrc.Invariants.create () in
  Tfrc.Invariants.check_event t
    (feedback_ev ~p:0. ~recv_rate:1000. ~n_closed:3 ~avg:50. ());
  Alcotest.(check bool) "p = 0 despite closed intervals flagged" false
    (Tfrc.Invariants.ok t)

let test_checker_time_monotone () =
  let t = Tfrc.Invariants.create () in
  Tfrc.Invariants.check_event t (ev ~time:5. (Queue_sample { len = 0 }));
  Tfrc.Invariants.check_event t (ev ~time:4. (Queue_sample { len = 0 }));
  Alcotest.(check bool) "time going backwards flagged" false
    (Tfrc.Invariants.ok t);
  (* A new simulation resets the watermark: time restarting at 0 after a
     sim/created event is not a violation. *)
  let t2 = Tfrc.Invariants.create () in
  Tfrc.Invariants.check_event t2 (ev ~time:5. (Queue_sample { len = 0 }));
  Tfrc.Invariants.check_event t2 (ev ~time:0. Sim_created);
  Tfrc.Invariants.check_event t2 (ev ~time:0.5 (Queue_sample { len = 0 }));
  Alcotest.(check bool) "new sim resets watermark" true
    (Tfrc.Invariants.ok t2)

let test_checker_link_conservation () =
  let t = Tfrc.Invariants.create () in
  let send = ev ~time:1. (Link_send { link = "l0"; id = 1; flow = 1; seq = 0; size = 1000 })
  and deliver =
    ev ~time:1. (Link_deliver { link = "l0"; id = 1; flow = 1; seq = 0; size = 1000 })
  in
  Tfrc.Invariants.check_event t send;
  Tfrc.Invariants.check_event t deliver;
  Alcotest.(check bool) "balanced link fine" true (Tfrc.Invariants.ok t);
  Tfrc.Invariants.check_event t deliver;
  Alcotest.(check bool) "delivery without send flagged" false
    (Tfrc.Invariants.ok t)

let test_checker_queue_conservation () =
  (* link/queue snapshots carry the queue's own counters, which admit an
     exact balance: arrivals = departures + drops + queued. *)
  let queue_ev ~arrivals ~departures ~drops ~queued =
    ev ~time:1. (Link_queue { link = "l0"; arrivals; departures; drops; queued })
  in
  let t = Tfrc.Invariants.create () in
  Tfrc.Invariants.check_event t
    (queue_ev ~arrivals:10 ~departures:6 ~drops:2 ~queued:2);
  Alcotest.(check bool) "balanced snapshot fine" true (Tfrc.Invariants.ok t);
  Tfrc.Invariants.check_event t
    (queue_ev ~arrivals:10 ~departures:6 ~drops:2 ~queued:1);
  Alcotest.(check bool) "off-by-one imbalance flagged" false
    (Tfrc.Invariants.ok t);
  (match Tfrc.Invariants.violations t with
  | [ v ] ->
      Alcotest.(check string) "rule name" "queue-conservation"
        v.Tfrc.Invariants.rule
  | vs -> Alcotest.failf "expected exactly one violation, got %d"
            (List.length vs))

let test_checker_report_format () =
  let t = Tfrc.Invariants.create () in
  Tfrc.Invariants.check_event t (start_ev ());
  Tfrc.Invariants.check_event t
    (rate_update_ev ~rate:5000. ~prev_rate:1000. ~recv_rate:1000. ~p:0.1
       ~rtt:0.1 ());
  let txt = Format.asprintf "%a" Tfrc.Invariants.report t in
  let has sub =
    let n = String.length sub in
    let rec scan i =
      i + n <= String.length txt && (String.sub txt i n = sub || scan (i + 1))
    in
    scan 0
  in
  Alcotest.(check bool) "report names the rule" true (has "sender-rate-bound");
  Alcotest.(check bool) "report counts violations" true (has "1 VIOLATIONS")

(* --- Checker against a real simulation ------------------------------------ *)

(* A clean TFRC transfer over a dumbbell, traced on a private bus. Mirrors
   the resilience wiring minus the faults. *)
let run_dumbbell_checked ~seed ~rogue =
  let bus = Engine.Trace.create () in
  let checker = Tfrc.Invariants.create () in
  Tfrc.Invariants.attach checker bus;
  let sim = Engine.Sim.create ~trace:bus () in
  ignore seed;
  let db =
    Netsim.Dumbbell.create (Engine.Sim.runtime sim) ~bandwidth:(Engine.Units.mbps 2.) ~delay:0.01
      ~queue:(Netsim.Dumbbell.Droptail_q 20) ()
  in
  let flow = 1 in
  Netsim.Dumbbell.add_flow db ~flow ~rtt_base:0.04;
  let config = Tfrc.Tfrc_config.default ~initial_rtt:0.1 ~min_rate:1000. () in
  let receiver =
    Tfrc.Tfrc_receiver.create (Engine.Sim.runtime sim) ~config ~flow
      ~transmit:(Netsim.Dumbbell.dst_sender db ~flow)
      ()
  in
  Netsim.Dumbbell.set_dst_recv db ~flow (Tfrc.Tfrc_receiver.recv receiver);
  let sender =
    Tfrc.Tfrc_sender.create (Engine.Sim.runtime sim) ~config ~flow
      ~transmit:(Netsim.Dumbbell.src_sender db ~flow)
      ()
  in
  Netsim.Dumbbell.set_src_recv db ~flow (Tfrc.Tfrc_sender.recv sender);
  Tfrc.Tfrc_sender.start sender ~at:0.;
  if rogue then
    (* A fabricated flow that violates the 2·X_recv bound mid-run: the
       checker must catch it inside an otherwise clean trace. *)
    ignore
      (Engine.Sim.at sim 30. (fun () ->
           let now = Engine.Sim.now sim in
           Engine.Trace.emit bus ~time:now
             (Tfrc_start
                { flow = 99; rate = 1000.; s = 1000.; min_rate = 100.; rv = true; t_mbi = 64. });
           Engine.Trace.emit bus ~time:now
             (Tfrc_rate_update
                {
                  flow = 99;
                  rate = 5000.;
                  prev_rate = 1000.;
                  recv_rate = 1000.;
                  p = 0.1;
                  rtt = 0.1;
                })));
  Engine.Sim.run sim ~until:60.;
  Tfrc.Invariants.detach checker bus;
  checker

let prop_clean_run_satisfies_invariants =
  QCheck.Test.make ~name:"clean dumbbell run satisfies all invariants"
    ~count:3
    QCheck.(int_range 1 1000)
    (fun seed ->
      let checker = run_dumbbell_checked ~seed ~rogue:false in
      Tfrc.Invariants.ok checker && Tfrc.Invariants.n_events checker > 100)

let test_rogue_flow_caught () =
  let checker = run_dumbbell_checked ~seed:1 ~rogue:true in
  Alcotest.(check bool) "rogue rate update caught" false
    (Tfrc.Invariants.ok checker);
  Alcotest.(check bool) "exactly the injected violations" true
    (Tfrc.Invariants.n_violations checker >= 1)

(* --- Queue sampler tracing ------------------------------------------------ *)

let test_sampler_traces_and_stops () =
  let bus = Engine.Trace.create () in
  let sink, events = Engine.Trace.memory_sink () in
  Engine.Trace.add_sink bus sink;
  let sim = Engine.Sim.create ~trace:bus () in
  let q = Netsim.Droptail.create ~limit_pkts:100 in
  let sampler = Netsim.Flowmon.Queue_sampler.start (Engine.Sim.runtime sim) ~period:0.1 ~queue:q in
  ignore
    (Engine.Sim.at sim 0.45 (fun () ->
         Netsim.Flowmon.Queue_sampler.stop sampler));
  Engine.Sim.run sim ~until:1.;
  let is_sample e =
    match e.Engine.Trace.kind with Engine.Event.Queue_sample _ -> true | _ -> false
  in
  let samples = List.filter is_sample (events ()) in
  Alcotest.(check bool) "t0 sample emitted" true
    (match samples with e :: _ -> e.Engine.Trace.time = 0. | [] -> false);
  (* Samples at 0.0 .. 0.4 only: stop at 0.45 cancels the pending timer. *)
  Alcotest.(check int) "no samples after stop" 5 (List.length samples);
  Engine.Sim.run sim ~until:2.;
  Alcotest.(check int) "still none later" 5
    (List.length (List.filter is_sample (events ())))

let () =
  Alcotest.run "trace"
    [
      ( "bus",
        [
          Alcotest.test_case "memory sink order" `Quick test_memory_sink_order;
          Alcotest.test_case "inactive bus no-op" `Quick test_inactive_bus_noop;
          Alcotest.test_case "ring oldest first" `Quick test_ring_oldest_first;
          Alcotest.test_case "to_json exact" `Quick test_to_json_exact;
          Alcotest.test_case "file sink jsonl" `Quick test_file_sink_jsonl;
          Alcotest.test_case "remove sink physical eq" `Quick
            test_remove_sink_physical_eq;
        ] );
      ( "digest",
        [
          Alcotest.test_case "equal streams" `Quick test_digest_equal_streams;
          Alcotest.test_case "float bits" `Quick test_digest_float_bits;
          Alcotest.test_case "field position" `Quick test_digest_field_position;
          Alcotest.test_case "constructor" `Quick test_digest_constructor;
          Alcotest.test_case "event order" `Quick test_digest_order;
          Alcotest.test_case "no allocation" `Quick test_digest_no_alloc;
          Alcotest.test_case "first divergence" `Quick test_first_divergence;
          Alcotest.test_case "divergence report" `Quick test_divergence_report;
          Alcotest.test_case "divergence, shorter run" `Quick
            test_divergence_shorter_run;
          Alcotest.test_case "no divergence" `Quick test_no_divergence;
        ] );
      ( "sim",
        [
          Alcotest.test_case "lifecycle events" `Quick
            test_sim_lifecycle_events;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "clean rate update" `Quick
            test_checker_clean_rate_update;
          Alcotest.test_case "broken sender caught" `Quick
            test_checker_broken_sender;
          Alcotest.test_case "nofb above t_mbi" `Quick
            test_checker_nofb_exceeds_t_mbi;
          Alcotest.test_case "nofb shrinking backoff" `Quick
            test_checker_nofb_shrinking_backoff;
          Alcotest.test_case "nofb below floor" `Quick
            test_checker_nofb_below_floor;
          Alcotest.test_case "loss rate out of range" `Quick
            test_checker_loss_rate_range;
          Alcotest.test_case "loss rate zero with history" `Quick
            test_checker_loss_rate_zero_with_history;
          Alcotest.test_case "time monotone" `Quick test_checker_time_monotone;
          Alcotest.test_case "link conservation" `Quick
            test_checker_link_conservation;
          Alcotest.test_case "queue conservation" `Quick
            test_checker_queue_conservation;
          Alcotest.test_case "report format" `Quick test_checker_report_format;
        ] );
      ( "end-to-end",
        [
          qtest prop_clean_run_satisfies_invariants;
          Alcotest.test_case "rogue flow caught" `Quick test_rogue_flow_caught;
          Alcotest.test_case "sampler traces and stops" `Quick
            test_sampler_traces_and_stops;
        ] );
    ]
