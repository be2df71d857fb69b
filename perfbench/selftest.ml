(* Self-test of the span recorder: spans nest, self times are >= 0, the
   layers' self times fit inside the traced wall time, a mismatched exit
   is reported, and tracing a short simulation leaves its behaviour
   fingerprint unchanged. Runs in a second or two. *)

open Perfbench

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

let expect_clean what sp =
  match Spans.problems sp with
  | [] -> ()
  | ps -> fail "%s: %s" what (String.concat "; " ps)

let spin n =
  let r = ref 0 in
  for i = 1 to n do
    r := !r + (i land 7)
  done;
  ignore (Sys.opaque_identity !r)

let hand_built () =
  let sp = Spans.create () in
  Spans.with_root sp (fun () ->
      spin 1000;
      Spans.within sp Spans.link
        (fun () ->
          spin 1000;
          Spans.within sp Spans.queue spin 1000;
          Spans.within sp Spans.queue spin 1000)
        ();
      Spans.within sp Spans.tcp spin 1000);
  expect_clean "hand-built nesting" sp;
  if Spans.count sp Spans.queue <> 2 then fail "queue spans: %d" (Spans.count sp Spans.queue);
  if sp.Spans.count.(Spans.idx Spans.queue Spans.link) <> 2 then
    fail "queue spans not caused by link";
  let layers = ref 0 in
  for l = 1 to Spans.n_layers - 1 do
    layers := !layers + Spans.self_ns sp l
  done;
  if !layers > sp.wall_ns then fail "layer self times exceed wall";
  (* A mismatched exit must be reported. *)
  let bad = Spans.create () in
  Spans.with_root bad (fun () ->
      Spans.enter bad Spans.link;
      Spans.exit bad Spans.tcp);
  if Spans.problems bad = [] then fail "mismatched exit not reported";
  (* An exception unwinds its span. *)
  let ex = Spans.create () in
  (try Spans.with_root ex (fun () -> Spans.within ex Spans.tfrc (fun () -> raise Exit) ())
   with Exit -> ());
  expect_clean "exception" ex

(* Timers scheduled inside a layer's span are charged to that layer. *)
let timer_tagging () =
  let sp = Spans.create () in
  let sim = Engine.Sim.create ~trace:(Engine.Trace.create ()) () in
  let rt = Spans.tag_runtime sp (Engine.Sim.runtime sim) in
  Spans.with_root sp (fun () ->
      Spans.within sp Spans.tfrc
        (fun () -> ignore (Engine.Runtime.after rt 1. (fun () -> spin 100)))
        ();
      Spans.within sp Spans.sched (fun () -> Engine.Sim.run sim ~until:2.) ());
  expect_clean "timer tagging" sp;
  if sp.count.(Spans.idx Spans.tfrc Spans.sched) <> 1 then
    fail "timer callback not charged to the scheduling layer";
  if Spans.timer_events sp <> 1 then fail "timer events: %d" (Spans.timer_events sp)

(* A short traced simulation reproduces the untraced one's counts. *)
let traced_matches_plain name build =
  let plain = Flows.sim_unit Work.plain ~build ~duration:6. in
  let sp = Spans.create () in
  let traced =
    Spans.with_root sp (fun () ->
        Flows.sim_unit { Work.spans = Some sp; check = None } ~build ~duration:6.)
  in
  expect_clean name sp;
  if plain.counts <> traced.counts then fail "%s: traced counts differ" name;
  List.iter (fun (c, ok) -> if not ok then fail "%s: %s" name c) traced.checks;
  if Spans.timer_events sp = 0 || Spans.count sp Spans.link = 0 then
    fail "%s: no spans recorded" name

let () =
  hand_built ();
  timer_tagging ();
  traced_matches_plain "dumbbell" (Dumbbell.build ~seed:11);
  traced_matches_plain "routed_wan" (Routed_wan.build ~seed:11);
  print_endline "perfbench selftest: ok"
