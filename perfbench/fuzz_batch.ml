(* The seeded fuzz batch: 24 cases, as six [Fuzz.Driver.run] calls of
   four cases (no shrinking, one worker), each on its own sub-seed. Short
   calls let the harness's reference runs interleave with the batch,
   instead of once per multi-second batch; four cases a call keep the
   peak heap after the warm-up call from hanging on one case's size,
   which is heavy-tailed. Each case is generated from its own
   [Rng.for_key] stream and judged by [Fuzz.Oracle.run], which simulates
   it twice with the invariant checker and the run-twice digest on an
   active trace bus.

   Case sizes are heavy-tailed (one case can hold a quarter of a batch's
   trace events), so raw cases per second swings with the seed. Throughput
   is therefore counted in standard cases of [standard_events] judged
   trace events each; a unit of work is a batch of 24 standard cases. The
   raw batch size (cases, simulated milliseconds, events) is in the
   fingerprint. *)

let batch = 6
let cases = 4
let standard_events = 20_000

(* Simulated seconds in a standard case: both oracle runs of a scenario
   of the generator's mean duration (uniform 8-25 s). *)
let standard_sim_s = 2. *. 16.5

let null_ppf = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

let config ~seed =
  {
    Fuzz.Driver.cases;
    seed;
    j = 1;
    shrink = false;
    mutate = false;
    artifacts = None;
    max_shrink_runs = 0;
  }

let generate ~seed i =
  let key = Fuzz.Driver.case_key i in
  Fuzz.Scenario.generate ~id:key (Engine.Rng.for_key ~seed key)

(* [sim_ms]: the cases' raw simulated time, both oracle runs. *)
let outcome ~setup_ns ~run_ns ~run_words ~sim_ms ~events ~delivered ~failed =
  let std = float_of_int events /. float_of_int standard_events in
  {
    Work.counts =
      [ ("fuzz.cases", cases); ("fuzz.sim_ms", sim_ms); ("fuzz.events", events);
        ("fuzz.delivered", delivered); ("fuzz.failed", failed) ];
    checks = [ ("fuzz call: no failed case", failed = 0) ];
    units = std /. float_of_int (batch * cases);
    cases = std;
    sim_s = std *. standard_sim_s;
    setup_ns;
    run_ns;
    run_words;
  }

(* Untraced: [Fuzz.Driver.run] itself. Traced: the same cases through the
   public generator and oracle, one span each. *)
let run mode ~seed =
  let t0 = Work.now_ns () in
  let scenarios = Array.init cases (generate ~seed) in
  let setup_ns = Work.now_ns () - t0 in
  let sim_ms =
    Array.fold_left
      (fun acc (sc : Fuzz.Scenario.t) -> acc + int_of_float (2000. *. sc.duration))
      0 scenarios
  in
  match mode.Work.spans with
  | None ->
      let s = ref None in
      let run_ns, run_words =
        Work.timed (fun () ->
            s := Some (Fuzz.Driver.run ~out:null_ppf (config ~seed)))
      in
      let s = Option.get !s in
      outcome ~setup_ns ~run_ns ~run_words ~sim_ms ~events:s.events
        ~delivered:s.delivered ~failed:s.failed
  | Some sp ->
      let events = ref 0 and delivered = ref 0 and failed = ref 0 in
      let run_ns, run_words =
        Work.timed (fun () ->
            for i = 0 to cases - 1 do
              let sc = Spans.within sp Spans.fuzz_gen (generate ~seed) i in
              let o =
                Spans.within sp Spans.fuzz_oracle
                  (fun sc -> Fuzz.Oracle.run sc)
                  sc
              in
              events := !events + o.events;
              delivered := !delivered + o.delivered;
              if o.failures <> [] then incr failed
            done)
      in
      outcome ~setup_ns ~run_ns ~run_words ~sim_ms ~events:!events
        ~delivered:!delivered ~failed:!failed

let workload =
  {
    Work.name = "fuzz_batch";
    setup = (fun ~seed -> ignore (Array.init cases (generate ~seed)));
    run;
    checkable = false;
    batch;
    (* [Fuzz.Driver]'s supervised runner formats wall-clock job timings, so
       its allocation varies by a few words from run to run. *)
    exact_words = false;
  }
