(* What every workload shares: the mode a unit of work runs under, the
   wrappers that add spans only in traced mode, and the outcome a unit
   reports back to the harness. *)

(* A checked unit attaches a fresh RFC 3448 invariant checker to every
   trace bus it creates (one per simulation or loop, so each checker sees
   one clock starting at 0). *)
type checked = { mutable checkers : Tfrc.Invariants.t list }

type mode = {
  spans : Spans.t option;  (** [Some]: traced, spans are recorded *)
  check : checked option;  (** [Some]: trace bus active, checker attached *)
}

let plain = { spans = None; check = None }

(* A private bus per simulation: inactive (no sinks) unless the unit is
   checked. Sinks are wrapped without looking at the events. *)
let bus mode =
  let b = Engine.Trace.create () in
  (match mode.check with
  | None -> ()
  | Some c ->
      let inv = Tfrc.Invariants.create () in
      c.checkers <- inv :: c.checkers;
      let s = Tfrc.Invariants.sink inv in
      Engine.Trace.add_sink b
        (match mode.spans with
        | None -> s
        | Some sp -> Spans.wrap_sink sp Spans.invariants s));
  b

let runtime mode rt =
  match mode.spans with None -> rt | Some sp -> Spans.tag_runtime sp rt

let handler mode l h =
  match mode.spans with None -> h | Some sp -> Spans.handler sp l h

let within mode l f x =
  match mode.spans with None -> f x | Some sp -> Spans.within sp l f x

let queue_factory mode f =
  match mode.spans with
  | None -> f
  | Some sp -> fun () -> Spans.wrap_queue sp (f ())

type outcome = {
  counts : (string * int) list;
      (** deterministic behaviour fingerprint, from the library's own
          counters (the harness adds span-derived counts in traced mode) *)
  checks : (string * bool) list;  (** correctness checks and verdicts *)
  units : float;  (** fixed-work units this outcome stands for *)
  cases : float;  (** cases completed, in the workload's case size *)
  sim_s : float;  (** simulated seconds driven *)
  setup_ns : int;  (** build, generation and first route *)
  run_ns : int;  (** the timed work *)
  run_words : float;  (** minor-heap words the timed work allocated *)
}

type workload = {
  name : string;
  setup : seed:int -> unit;  (** build one sub-unit's inputs and network *)
  run : mode -> seed:int -> outcome;
  checkable : bool;  (** whether the benchmark owns the trace buses to check *)
  batch : int;  (** sub-units (sub-seeds) in one unit of work *)
  exact_words : bool;
      (** whether the work allocates exactly the same on every repeat *)
}

let now_ns = Spans.now_ns

(* [timed f] runs the timed work, returning (ns, minor words). *)
let timed f =
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  f ();
  let t1 = now_ns () in
  let w1 = Gc.minor_words () in
  (t1 - t0, w1 -. w0)

(* Sum of the queue statistics over every link: the layer counts the
   fingerprint and the per-layer metrics use. *)
let queue_counts links =
  let sum f =
    List.fold_left
      (fun acc l -> acc + f (Netsim.Link.queue l).Netsim.Queue_disc.stats)
      0 links
  in
  [
    ("link.pkt_hops", sum (fun s -> s.departures));
    ("queue.arrivals", sum (fun s -> s.arrivals));
    ("queue.drops", sum (fun s -> s.drops));
  ]

let conservation_checks links =
  List.map
    (fun l ->
      ( "queue conserved on " ^ Netsim.Link.label l,
        Netsim.Queue_disc.conserved (Netsim.Link.queue l) ))
    links

let tfrc_counts senders =
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 senders in
  [
    ("tfrc.pkts", sum Tfrc.Tfrc_sender.packets_sent);
    ( "tfrc.rate_updates",
      sum (fun s ->
          Tfrc.Tfrc_sender.feedbacks_received s
          + Tfrc.Tfrc_sender.no_feedback_expirations s) );
  ]

let tcp_counts senders =
  [
    ( "tcp.pkts",
      List.fold_left
        (fun acc s -> acc + (Tcpsim.Tcp_sender.stats s).packets_sent)
        0 senders );
  ]
