(* Benchmark of record: one command runs a workload for a fixed time,
   checks its outputs, and prints every metric by name and unit. The last
   line of standard output is one JSON object:

     {"correct": …, "attempted": …, "failed": …, "metrics": {…}}

   [--trace 0] reports the end-to-end metrics with no spans recorded;
   [--trace 1] interleaves untraced sub-units with traced ones (spans
   around every layer boundary the benchmark drives) and reports the
   per-layer metrics. See perfbench/README.md for the workloads and
   metrics. *)

open Perfbench

let workloads =
  [ Dumbbell.workload; Routed_wan.workload; Fuzz_batch.workload; Wire_warp.workload ]

(* --- correctness checks ------------------------------------------------ *)

let attempted = ref 0
let failed = ref 0

let check name ok =
  incr attempted;
  if not ok then begin
    incr failed;
    Printf.printf "# CHECK FAILED: %s\n%!" name
  end

let show_counts counts =
  String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) counts)

(* [reproduces ~what reference counts]: every count [reference] has is
   present in [counts] with the same value. *)
let reproduces ~what reference counts =
  let same =
    List.for_all (fun (k, v) -> List.assoc_opt k counts = Some v) reference
  in
  if not same then
    Printf.printf "# fingerprint mismatch (%s):\n#   want %s\n#   got  %s\n" what
      (show_counts reference) (show_counts counts);
  check ("fingerprint: " ^ what) same

(* --- statistics -------------------------------------------------------- *)

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let secs ns = float_of_int ns *. 1e-9

(* --- sub-units ----------------------------------------------------------

   A unit of work is a batch: the workload run once on each of [w.batch]
   sub-seeds derived from the seed. One simulation's cost swings with its
   seed (TCP loss recovery is chaotic), so the batch averages that out.

   The sub-units are run round-robin until the time is up, each at least
   once. A unit's time is the sum of the sub-units' mean times (in traced
   runs, of their best times). Every repeat must reproduce the sub-unit's
   first run exactly: same counts and, where the work is deterministic,
   the same allocation. *)

let sub_seed seed k = (seed * 1000) + k

type sub = {
  mutable first : Work.outcome option;
  mutable best_ns : int;
  mutable sum_ns : int;
  mutable runs : int;
}

let subs n = Array.init n (fun _ -> { first = None; best_ns = max_int; sum_ns = 0; runs = 0 })

(* Record one repeat of a sub-unit: check it against the first, keep the
   best and the summed time. *)
let record ~what ~exact_words s (o : Work.outcome) ~ns =
  List.iter (fun (name, ok) -> check name ok) o.checks;
  (match s.first with
  | None -> s.first <- Some o
  | Some f ->
      reproduces ~what:(what ^ " repeat") f.counts o.counts;
      if exact_words then
        check ("minor words: " ^ what ^ " repeat") (o.run_words = f.run_words));
  s.best_ns <- min s.best_ns ns;
  s.sum_ns <- s.sum_ns + ns;
  s.runs <- s.runs + 1

let firsts subs = Array.to_list (Array.map (fun s -> Option.get s.first) subs)
let total_best subs = Array.fold_left (fun a s -> a + s.best_ns) 0 subs

let total_mean subs =
  Array.fold_left (fun a s -> a +. (float_of_int s.sum_ns /. float_of_int s.runs)) 0. subs

let sum_counts = function
  | [] -> []
  | (o : Work.outcome) :: rest ->
      List.map
        (fun (k, v) ->
          ( k,
            List.fold_left
              (fun acc (r : Work.outcome) ->
                acc + Option.value ~default:0 (List.assoc_opt k r.counts))
              v rest ))
        o.counts

let sumf f outcomes = List.fold_left (fun a o -> a +. f o) 0. outcomes

(* Set-up is short (microseconds on the wire side), so it is timed many
   times, spread over the run, and the median reported. *)
let setup_samples = ref []

let time_setup (w : Work.workload) ~seed n =
  for _ = 1 to n do
    let t0 = Work.now_ns () in
    w.setup ~seed;
    setup_samples := secs (Work.now_ns () - t0) :: !setup_samples
  done

(* --- host-speed reference ----------------------------------------------

   Other tenants of the host slow the workloads by 10-45% in phases that
   last tens of seconds, longer than a run, so no choice among a run's
   own repeats can cancel them. The reference kernel (reference.ml) is
   run between sub-units until its time is a quarter of the workload's,
   so it samples the same phases in the same proportion. The end-to-end
   throughputs are then counted per mean reference run instead of per
   second. *)

type reference = { mutable work_ns : int; mutable ref_ns : int; mutable ref_runs : int }

let reference () = { work_ns = 0; ref_ns = 0; ref_runs = 0 }

let catch_up r ~work_ns =
  r.work_ns <- r.work_ns + work_ns;
  while 4 * r.ref_ns < r.work_ns do
    let t0 = Work.now_ns () in
    Reference.run ();
    r.ref_ns <- r.ref_ns + (Work.now_ns () - t0);
    r.ref_runs <- r.ref_runs + 1
  done

let mean_ref_s r = secs r.ref_ns /. float_of_int (max 1 r.ref_runs)

(* --- metrics output ---------------------------------------------------- *)

type metric = { name : string; unit_ : string; value : float }

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let emit metrics =
  List.iter
    (fun m -> Printf.printf "# %-28s %20.9g %s\n" m.name m.value m.unit_)
    metrics;
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
             (json_number m.value) m.unit_)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failed = 0) (max 1 !attempted) !failed body

(* --- untraced run: end-to-end metrics ---------------------------------- *)

(* [warm] is sub-unit 0's untimed warm-up run; the timed repeats must
   reproduce it. *)
let end_to_end (w : Work.workload) ~seed ~deadline ~warm ~top_heap_words =
  let ss = subs w.batch and r = reference () in
  ss.(0).first <- Some warm;
  (* After the first pass, a sub-unit starts only if it should end, with
     its reference runs, before the deadline. *)
  let fits k =
    let s = ss.(k) in
    Work.now_ns () + (5 * s.sum_ns / (4 * s.runs)) <= deadline
  in
  let i = ref 0 in
  while !i < w.batch || fits (!i mod w.batch) do
    let k = !i mod w.batch in
    (* Each sub-unit starts from the same collected heap, so no run pays
       for the garbage of the one before. *)
    Gc.full_major ();
    let o = w.run Work.plain ~seed:(sub_seed seed k) in
    record ~what:"timed sub-unit" ~exact_words:w.exact_words ss.(k) o ~ns:o.run_ns;
    time_setup w ~seed:(sub_seed seed k) 3;
    catch_up r ~work_ns:o.run_ns;
    incr i
  done;
  let firsts = firsts ss in
  let unit_s = total_mean ss *. 1e-9 and ref_s = mean_ref_s r in
  let sim_s = sumf (fun o -> o.Work.sim_s) firsts
  and cases = sumf (fun o -> o.Work.cases) firsts in
  Printf.printf "# fingerprint %s\n" (show_counts (sum_counts firsts));
  Printf.printf "# %d sub-unit runs over %d sub-units; unit of work: mean %.6f s, best %.6f s\n"
    !i w.batch unit_s (secs (total_best ss));
  Printf.printf "# %d reference runs, mean %.6f s\n" r.ref_runs ref_s;
  Printf.printf "# wall-clock: %.6g simulated s/s, %.6g cases/s\n" (sim_s /. unit_s)
    (cases /. unit_s);
  let top_heap = top_heap_words * (Sys.word_size / 8) in
  let m name unit_ value = { name; unit_; value } in
  [
    m "sim_s_per_ref" "s/ref" (sim_s *. ref_s /. unit_s);
    m "cases_per_ref" "1/ref" (cases *. ref_s /. unit_s);
    m "minor_mwords" "Mwords"
      (sumf (fun o -> o.Work.run_words) firsts
      /. sumf (fun o -> o.Work.units) firsts
      /. 1e6);
    m "top_heap_mb" "MB" (float_of_int top_heap /. 1e6);
    m "setup_s" "s" (median !setup_samples);
    m "pass_share" "share"
      (float_of_int (!attempted - !failed) /. float_of_int (max 1 !attempted));
  ]

(* --- traced run: per-layer metrics ------------------------------------- *)

let per_layer (w : Work.workload) ~seed ~deadline ~warm =
  let sp = Spans.create () in
  let traced_mode = { Work.spans = Some sp; check = None } in
  let plain = subs w.batch and traced = subs w.batch in
  plain.(0).first <- Some warm;
  let cycles = ref 0 and cycle_ns = ref 0 in
  (* Whole cycles only, so the span totals are a whole number of units;
     another cycle starts only if it should end before the deadline. *)
  while !cycles < 1 || Work.now_ns () + !cycle_ns <= deadline do
    let c0 = Work.now_ns () in
    for k = 0 to w.batch - 1 do
      let seed = sub_seed seed k in
      Gc.full_major ();
      let o = w.run Work.plain ~seed in
      record ~what:"untraced sub-unit" ~exact_words:w.exact_words plain.(k) o
        ~ns:(o.setup_ns + o.run_ns);
      Gc.full_major ();
      let events0 = Spans.timer_events sp and wall0 = sp.wall_ns in
      let t = Spans.with_root sp (fun () -> w.run traced_mode ~seed) in
      let t =
        { t with counts = t.counts @ [ ("sched.events", Spans.timer_events sp - events0) ] }
      in
      reproduces ~what:"traced sub-unit = untraced" o.counts t.counts;
      (* Tracing allocates, so only the counts must repeat. *)
      record ~what:"traced sub-unit" ~exact_words:false traced.(k) t
        ~ns:(sp.wall_ns - wall0)
    done;
    cycle_ns := Work.now_ns () - c0;
    incr cycles
  done;
  let counts = sum_counts (firsts traced) in
  Printf.printf "# fingerprint %s\n" (show_counts counts);
  let problems = Spans.problems sp in
  List.iter (fun p -> Printf.printf "# span problem: %s\n" p) problems;
  check "spans: nested, self >= 0, layers within traced wall" (problems = []);
  (* A checked sub-unit: sub-unit 0 again, with the trace bus active and
     the RFC 3448 invariant checker attached to it. *)
  let ck = Spans.create () in
  if w.checkable then begin
    let checked = { Work.checkers = [] } in
    let o =
      Spans.with_root ck (fun () ->
          w.run { spans = Some ck; check = Some checked } ~seed:(sub_seed seed 0))
    in
    List.iter (fun (name, ok) -> check name ok) o.checks;
    reproduces ~what:"checked sub-unit = untraced"
      (Option.get plain.(0).first).counts o.counts;
    List.iter (fun i -> Tfrc.Invariants.report Format.std_formatter i) checked.checkers;
    Format.print_flush ();
    let total f = List.fold_left (fun a i -> a + f i) 0 checked.checkers in
    check "invariants: no violation in the checked sub-unit"
      (total Tfrc.Invariants.n_violations = 0);
    check "invariants: checker saw every event its sink was passed"
      (total Tfrc.Invariants.n_events = Spans.count ck Spans.invariants);
    check "checked spans: nested, self >= 0, layers within traced wall"
      (Spans.problems ck = [])
  end;
  Spans.pp_table stdout sp;
  let n = float_of_int !cycles in
  let count k = float_of_int (Option.value ~default:0 (List.assoc_opt k counts)) in
  let ns l = float_of_int (Spans.self_ns sp l) /. n in
  let self l = ns l *. 1e-9 in
  let words l = Spans.self_words sp l /. n in
  let per x k = if k > 0. then x /. k else 0. in
  let plain_unit_s = secs (total_best plain) in
  let events = count "sched.events" and hops = count "link.pkt_hops" in
  let frames = count "codec.frames" in
  let trace_events =
    if w.checkable then float_of_int (Spans.count ck Spans.invariants)
    else count "fuzz.events"
  in
  let inv_ns = float_of_int (Spans.self_ns ck Spans.invariants) in
  let m name unit_ value = { name; unit_; value } in
  [
    m "sched.events" "count" events;
    m "sched.self_s" "s" (self Spans.sched);
    m "sched.ns_per_event" "ns" (per (ns Spans.sched) events);
    m "sched.events_per_s" "1/s" (events /. plain_unit_s);
    m "sched.minor_words" "words" (words Spans.sched);
    m "link.pkt_hops" "count" hops;
    m "link.self_s" "s" (self Spans.link);
    m "link.ns_per_hop" "ns" (per (ns Spans.link) hops);
    m "link.pkt_hops_per_s" "1/s" (hops /. plain_unit_s);
    m "link.minor_words" "words" (words Spans.link);
    m "topology.recomputes" "count" (count "topology.recomputes");
    m "topology.build_s" "s" (self Spans.topology);
    m "queue.arrivals" "count" (count "queue.arrivals");
    m "queue.drops" "count" (count "queue.drops");
    m "queue.drop_share" "share" (per (count "queue.drops") (count "queue.arrivals"));
    m "queue.self_s" "s" (self Spans.queue);
    m "queue.ns_per_op" "ns"
      (per (ns Spans.queue) (float_of_int (Spans.count sp Spans.queue) /. n));
    m "tfrc.pkts" "count" (count "tfrc.pkts");
    m "tfrc.rate_updates" "count" (count "tfrc.rate_updates");
    m "tfrc.self_s" "s" (self Spans.tfrc);
    m "tfrc.ns_per_pkt" "ns" (per (ns Spans.tfrc) (count "tfrc.pkts"));
    m "tfrc.minor_words" "words" (words Spans.tfrc);
    m "tcp.pkts" "count" (count "tcp.pkts");
    m "tcp.self_s" "s" (self Spans.tcp);
    m "tcp.ns_per_pkt" "ns" (per (ns Spans.tcp) (count "tcp.pkts"));
    m "tcp.minor_words" "words" (words Spans.tcp);
    m "trace.events" "count" trace_events;
    m "invariants.self_s" "s" (inv_ns *. 1e-9);
    m "invariants.ns_per_event" "ns" (per inv_ns trace_events);
    m "fuzz.gen_s" "s" (self Spans.fuzz_gen);
    m "fuzz.oracle_s" "s" (self Spans.fuzz_oracle);
    m "fuzz.events" "count" (count "fuzz.events");
    m "fuzz.delivered" "count" (count "fuzz.delivered");
    m "fuzz.oracle_ns_per_event" "ns" (per (ns Spans.fuzz_oracle) (count "fuzz.events"));
    m "codec.frames" "count" frames;
    m "codec.self_s" "s" (self Spans.codec);
    m "codec.ns_per_frame" "ns" (per (ns Spans.codec) frames);
    m "shaper.self_s" "s" (self Spans.shaper);
    m "wire.decisions" "count" (count "wire.decisions");
    m "trace_overhead_ratio" "ratio"
      (float_of_int (total_best traced) /. float_of_int (total_best plain));
    m "unattributed_s" "s" (self Spans.root);
  ]

(* --- command line ------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n\
     workloads: dumbbell routed_wan fuzz_batch wire_warp";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | a :: _ ->
        Printf.eprintf "perfbench: unexpected argument %s\n" a;
        usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let w =
    match List.find_opt (fun (w : Work.workload) -> w.name = !workload) workloads with
    | Some w -> w
    | None -> usage ()
  in
  if !trace <> 0 && !trace <> 1 then usage ();
  let seed = !seed and seconds = !seconds in
  (* The run, set-up samples and warm-up included, ends at [deadline]
     unless one pass over the sub-units takes longer. *)
  let deadline = Work.now_ns () + int_of_float (seconds *. 1e9) in
  Printf.printf "# perfbench %s seed %d seconds %g trace %d\n%!" w.name seed seconds !trace;
  time_setup w ~seed:(sub_seed seed 0) 20;
  (* Warm-up: sub-unit 0 once, untimed. *)
  let warm = w.run Work.plain ~seed:(sub_seed seed 0) in
  List.iter (fun (name, ok) -> check name ok) warm.checks;
  (* The peak heap is read before the first reference run can raise it. *)
  let top_heap_words = (Gc.quick_stat ()).top_heap_words in
  emit
    (if !trace = 0 then end_to_end w ~seed ~deadline ~warm ~top_heap_words
     else per_layer w ~seed ~deadline ~warm);
  if !failed > 0 then exit 1
