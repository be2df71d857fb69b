type handle = {
  mutable state : [ `Pending | `Fired | `Cancelled ];
  f : unit -> unit;
  (* Shared with the owning scheduler: counts cancelled handles still
     sitting in its heap, so [run] knows when a sweep pays off. *)
  cancelled_in_heap : int ref;
}

type scheduler = [ `Heap | `Wheel ]

(* The two queue backends share the (time, seq) contract, so which one a
   simulation runs on is unobservable — same pop order, same traces. A
   direct two-constructor dispatch keeps the per-event cost at a branch
   instead of a closure call. *)
type equeue = Heap of handle Event_queue.t | Wheel of handle Timing_wheel.t

type t = {
  mutable clock : float;
  events : equeue;
  mutable stopping : bool;
  cancelled : int ref;
  trace : Trace.t;
  (* Per-simulation identity allocator (packet ids, default link labels).
     Keeping the counter on the scheduler — not in a process-global ref —
     makes id streams a pure function of the simulation's own event
     sequence: two sims in one process, or the same grid cell on any
     worker domain, allocate identical ids. *)
  mutable next_id : int;
  (* Memoized sans-IO view of this scheduler ({!runtime}): built on first
     use so handing a sim to protocol code costs one record, not one per
     call. *)
  mutable runtime : Runtime.t option;
}

(* --- Cooperative budgets --------------------------------------------------

   A budget caps what a run may consume: a count of executed events
   (cumulative across every [run] the budget is installed for, so a job
   that builds several schedulers still has one meter) and a virtual-time
   ceiling per run. Exhaustion raises [Budget_exhausted] out of [run] —
   through the job code and back to whatever supervisor installed the
   budget — instead of letting a runaway simulation spin forever.

   The ambient budget is domain-local (like {!Trace.default}): a
   supervisor wraps a job in [with_budget] and every [Sim.run] underneath
   it is metered, without the job threading anything through. *)

type budget = {
  mutable events_left : int; (* counts down across runs; max_int = unlimited *)
  max_time : float; (* virtual-time ceiling per run; infinity = unlimited *)
}

exception Budget_exhausted of string

let () =
  Printexc.register_printer (function
    | Budget_exhausted detail -> Some ("Sim.Budget_exhausted: " ^ detail)
    | _ -> None)

let budget ?max_events ?max_time () =
  (match max_events with
  | Some n when n <= 0 -> invalid_arg "Sim.budget: max_events must be positive"
  | _ -> ());
  (match max_time with
  | Some t when t <= 0. -> invalid_arg "Sim.budget: max_time must be positive"
  | _ -> ());
  {
    events_left = Option.value max_events ~default:max_int;
    max_time = Option.value max_time ~default:infinity;
  }

let ambient_budget_key : budget option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let set_budget b = Domain.DLS.set ambient_budget_key b
let current_budget () = Domain.DLS.get ambient_budget_key

let with_budget b f =
  let prev = current_budget () in
  set_budget (Some b);
  Fun.protect ~finally:(fun () -> set_budget prev) f

(* --- Scheduler backend ----------------------------------------------------

   The ambient default is domain-local (like {!Trace.default} and the
   budget): a driver selects the backend once and every [Sim.create ()]
   underneath — including inside experiment jobs — picks it up without
   threading a parameter through scenario builders. [Exp.Runner]
   re-installs the coordinator's choice on each worker domain so [-j N]
   runs the same backend as [-j 1]. *)

let default_scheduler_key : scheduler Domain.DLS.key =
  Domain.DLS.new_key (fun () -> `Wheel)

let set_default_scheduler s = Domain.DLS.set default_scheduler_key s
let default_scheduler () = Domain.DLS.get default_scheduler_key

let scheduler_of_string = function
  | "heap" -> Some `Heap
  | "wheel" -> Some `Wheel
  | _ -> None

let scheduler_name = function `Heap -> "heap" | `Wheel -> "wheel"

(* Queue dispatch: the only places the backends differ. *)

let q_push t ~time h =
  match t.events with
  | Heap q -> Event_queue.push q ~time h
  | Wheel w -> Timing_wheel.push w ~time h

let q_pop t =
  match t.events with
  | Heap q -> Event_queue.pop q
  | Wheel w -> Timing_wheel.pop w

let q_peek_time t =
  match t.events with
  | Heap q -> Event_queue.peek_time q
  | Wheel w -> Timing_wheel.peek_time w

let q_size t =
  match t.events with
  | Heap q -> Event_queue.size q
  | Wheel w -> Timing_wheel.size w

let q_prune t ~keep =
  match t.events with
  | Heap q -> Event_queue.prune q ~keep
  | Wheel w -> Timing_wheel.prune w ~keep

let q_compact t =
  match t.events with
  | Heap q -> Event_queue.compact q
  | Wheel w -> Timing_wheel.compact w

let create ?trace ?scheduler () =
  let trace = match trace with Some tr -> tr | None -> Trace.default () in
  let scheduler =
    match scheduler with Some s -> s | None -> default_scheduler ()
  in
  let t =
    {
      clock = 0.;
      events =
        (match scheduler with
        | `Heap -> Heap (Event_queue.create ())
        | `Wheel -> Wheel (Timing_wheel.create ()));
      stopping = false;
      cancelled = ref 0;
      trace;
      next_id = 0;
      runtime = None;
    }
  in
  (* Marks a fresh virtual clock: observers (e.g. the invariant checker)
     reset per-run state like the time-monotonicity watermark here. *)
  if Trace.active trace then Trace.emit trace ~time:0. Event.Sim_created;
  t

let now t = t.clock
let trace t = t.trace

let fresh_id t =
  t.next_id <- t.next_id + 1;
  t.next_id

let ids_allocated t = t.next_id

let at t time f =
  (* NaN would sail through the past-guard below ([nan < clock] is false)
     and then wander the queue unorderably; infinity would pin [run]'s
     [peek_time > until] check forever. Reject both up front. *)
  if not (Float.is_finite time) then
    invalid_arg (Printf.sprintf "Sim.at: non-finite time %g" time);
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Sim.at: time %g is in the past (now %g)" time t.clock);
  let h = { state = `Pending; f; cancelled_in_heap = t.cancelled } in
  q_push t ~time h;
  h

let after t delay f =
  if not (Float.is_finite delay) then
    invalid_arg (Printf.sprintf "Sim.after: non-finite delay %g" delay);
  if delay < 0. then invalid_arg "Sim.after: negative delay";
  at t (t.clock +. delay) f

let cancel h =
  if h.state = `Pending then begin
    h.state <- `Cancelled;
    incr h.cancelled_in_heap
  end

let is_pending h = h.state = `Pending

let null_handle = { state = `Fired; f = ignore; cancelled_in_heap = ref 0 }

let pending_events t = q_size t

let stop t = t.stopping <- true

(* The canonical {!Runtime} implementation: virtual time, the event heap's
   timers, this sim's trace bus and id allocator. Wrapping a handle costs
   one record + two closures per scheduled timer — the sans-IO price, paid
   only by components written against Runtime (the TFRC state machines),
   not by raw [Sim.at] users. *)
let wrap_handle h =
  Runtime.handle
    ~cancel:(fun () -> cancel h)
    ~is_pending:(fun () -> is_pending h)

let runtime t =
  match t.runtime with
  | Some rt -> rt
  | None ->
      let rt =
        Runtime.make
          ~now:(fun () -> t.clock)
          ~at:(fun time f -> wrap_handle (at t time f))
          ~after:(fun delay f -> wrap_handle (after t delay f))
          ~trace:t.trace
          ~fresh_id:(fun () -> fresh_id t)
      in
      t.runtime <- Some rt;
      rt

(* Sweep the heap once cancelled entries dominate it: timer-heavy protocols
   (TCP retransmit, TFRC no-feedback) cancel far more events than they fire,
   and without a sweep those dead entries — and the closures they capture —
   survive until their original expiry pops them. The size floor keeps tiny
   heaps from paying the O(n log n) sort. *)
let sweep_floor = 64

let maybe_sweep t =
  let n = q_size t in
  if n >= sweep_floor && 2 * !(t.cancelled) > n then begin
    q_prune t ~keep:(fun h -> h.state = `Pending);
    q_compact t;
    t.cancelled := 0;
    if Trace.active t.trace then
      Trace.emit t.trace ~time:t.clock (Event.Sim_sweep { before = n; after = q_size t })
  end

let exhaust t detail =
  if Trace.active t.trace then
    Trace.emit t.trace ~time:t.clock (Event.Sim_budget_exhausted { detail });
  raise (Budget_exhausted detail)

let run ?budget t ~until =
  let budget =
    match budget with Some _ as b -> b | None -> current_budget ()
  in
  t.stopping <- false;
  if Trace.active t.trace then
    Trace.emit t.trace ~time:t.clock (Event.Sim_run_start { until });
  let continue = ref true in
  while !continue && not t.stopping do
    maybe_sweep t;
    match q_peek_time t with
    | None -> continue := false
    | Some time when time > until -> continue := false
    | Some _ -> (
        match q_pop t with
        | None -> continue := false
        | Some (time, h) -> (
            match h.state with
            | `Cancelled -> decr t.cancelled
            | `Fired -> ()
            | `Pending ->
                (match budget with
                | None -> ()
                | Some b ->
                    if time > b.max_time then
                      exhaust t
                        (Printf.sprintf
                           "virtual-time budget exhausted: next event at %g \
                            past max_time %g"
                           time b.max_time);
                    if b.events_left <= 0 then
                      exhaust t
                        (Printf.sprintf
                           "event budget exhausted at t=%g (max_events \
                            reached)"
                           t.clock);
                    b.events_left <- b.events_left - 1);
                t.clock <- time;
                h.state <- `Fired;
                h.f ()))
  done;
  if until < infinity && t.clock < until && not t.stopping then t.clock <- until;
  if Trace.active t.trace then
    Trace.emit t.trace ~time:t.clock (Event.Sim_run_end { pending = q_size t })
