(* TCP and TFRC endpoints wired onto any topology builder, with spans
   around the handlers the benchmark hands to the network and the protocol
   calls it makes: data leaving an agent enters a [link] span, data
   reaching an agent a [tcp] or [tfrc] span. *)

type ends = {
  src_sender : flow:int -> Netsim.Packet.handler;
  dst_sender : flow:int -> Netsim.Packet.handler;
  set_src_recv : flow:int -> Netsim.Packet.handler -> unit;
  set_dst_recv : flow:int -> Netsim.Packet.handler -> unit;
}

let tcp_config = Tcpsim.Tcp_common.ns_sack

(* Agents are created inside their layer's span too, so timers they arm
   at creation are charged to them. *)
let tcp mode rt ends ~flow ~start =
  let to_net h = Work.handler mode Spans.link h in
  let in_tcp f = Work.within mode Spans.tcp f () in
  let sink =
    in_tcp (fun () ->
        Tcpsim.Tcp_sink.create rt ~config:tcp_config ~flow
          ~transmit:(to_net (ends.dst_sender ~flow))
          ())
  in
  ends.set_dst_recv ~flow
    (Work.handler mode Spans.tcp (Tcpsim.Tcp_sink.recv sink));
  let sender =
    in_tcp (fun () ->
        Tcpsim.Tcp_sender.create rt ~config:tcp_config ~flow
          ~transmit:(to_net (ends.src_sender ~flow))
          ())
  in
  ends.set_src_recv ~flow
    (Work.handler mode Spans.tcp (Tcpsim.Tcp_sender.recv sender));
  in_tcp (fun () -> Tcpsim.Tcp_sender.start sender ~at:start);
  sender

let tfrc mode rt ends ~flow ~start =
  let config = Tfrc.Tfrc_config.default () in
  let to_net h = Work.handler mode Spans.link h in
  let in_tfrc f = Work.within mode Spans.tfrc f () in
  let receiver =
    in_tfrc (fun () ->
        Tfrc.Tfrc_receiver.create rt ~config ~flow
          ~transmit:(to_net (ends.dst_sender ~flow))
          ())
  in
  ends.set_dst_recv ~flow
    (Work.handler mode Spans.tfrc (Tfrc.Tfrc_receiver.recv receiver));
  let sender =
    in_tfrc (fun () ->
        Tfrc.Tfrc_sender.create rt ~config ~flow
          ~transmit:(to_net (ends.src_sender ~flow))
          ())
  in
  ends.set_src_recv ~flow
    (Work.handler mode Spans.tfrc (Tfrc.Tfrc_sender.recv sender));
  in_tfrc (fun () -> Tfrc.Tfrc_sender.start sender ~at:start);
  sender

(* A built network ready to simulate, and what to read off it after. *)
type net = {
  sim : Engine.Sim.t;
  links : Netsim.Link.t list;
  topo : Netsim.Topology.t;
  tcps : Tcpsim.Tcp_sender.t list;
  tfrcs : Tfrc.Tfrc_sender.t list;
}

(* One fixed-work unit: build (timed as set-up), simulate [duration]
   virtual seconds (timed as the work), then read the counters and run
   the checks. *)
let sim_unit mode ~build ~duration =
  let t0 = Work.now_ns () in
  let net = build mode in
  let setup_ns = Work.now_ns () - t0 in
  let run_ns, run_words =
    Work.timed (fun () ->
        Work.within mode Spans.sched
          (fun () -> Engine.Sim.run net.sim ~until:duration)
          ())
  in
  (* Lets a checked unit's invariant checker audit the final queue
     arithmetic; a no-op on an inactive bus. *)
  List.iter Netsim.Link.emit_queue_stats net.links;
  {
    Work.counts =
      Work.queue_counts net.links
      @ Work.tfrc_counts net.tfrcs @ Work.tcp_counts net.tcps
      @ [ ("topology.recomputes", Netsim.Topology.recomputes net.topo) ];
    checks = Work.conservation_checks net.links;
    units = 1.;
    cases = 1.;
    sim_s = duration;
    setup_ns;
    run_ns;
    run_words;
  }

(* The first route query builds the routing tables, so it is set-up. *)
let first_route mode topo ~src ~dst =
  Work.within mode Spans.topology
    (fun () -> ignore (Netsim.Topology.route topo ~src ~dst))
    ()
