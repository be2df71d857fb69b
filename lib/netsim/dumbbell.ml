type queue_spec = Droptail_q of int | Red_q of Red.params

type t = { topo : Topology.t; fwd : Link.t; bwd : Link.t }

let make_queue rt ~spec ~bandwidth ~mean_pktsize =
  match spec with
  | Droptail_q limit -> Droptail.create ~limit_pkts:limit
  | Red_q params ->
      Red.create ~params
        ~now:(fun () -> Engine.Runtime.now rt)
        ~ptc:(bandwidth /. (8. *. float_of_int mean_pktsize))

(* Routers 0 (left) and 1 (right), joined by the two bottleneck links. *)
let left = 0
let right = 1

let create rt ~bandwidth ~delay ~queue ?reverse_queue ?(mean_pktsize = 1000) () =
  let reverse_queue = Option.value reverse_queue ~default:queue in
  let fwd_q = make_queue rt ~spec:queue ~bandwidth ~mean_pktsize in
  let bwd_q = make_queue rt ~spec:reverse_queue ~bandwidth ~mean_pktsize in
  (* Explicit labels consume no fresh ids, so packet ids start at 1. *)
  let fwd = Link.create rt ~label:"bottleneck-fwd" ~bandwidth ~delay ~queue:fwd_q () in
  let bwd = Link.create rt ~label:"bottleneck-bwd" ~bandwidth ~delay ~queue:bwd_q () in
  let topo = Topology.create rt () in
  ignore (Topology.add_node topo : Topology.node);
  ignore (Topology.add_node topo : Topology.node);
  ignore (Topology.add_link topo ~src:left ~dst:right fwd : Topology.edge);
  ignore (Topology.add_link topo ~src:right ~dst:left bwd : Topology.edge);
  { topo; fwd; bwd }

let topology t = t.topo
let runtime t = Topology.runtime t.topo

let add_flow t ~flow ~rtt_base =
  if Topology.mem_flow t.topo flow then
    invalid_arg (Printf.sprintf "Dumbbell.add_flow: flow %d already exists" flow);
  let access = ((rtt_base /. 2.) -. Link.delay t.fwd) /. 2. in
  if access < 0. then
    invalid_arg "Dumbbell.add_flow: rtt_base smaller than bottleneck RTT";
  Topology.add_flow t.topo ~flow ~src:left ~dst:right access

let known t flow =
  if not (Topology.mem_flow t.topo flow) then
    invalid_arg (Printf.sprintf "Dumbbell: unknown flow %d" flow)

let set_src_recv t ~flow h =
  known t flow;
  Topology.set_src_recv t.topo ~flow h

let set_dst_recv t ~flow h =
  known t flow;
  Topology.set_dst_recv t.topo ~flow h

let src_sender t ~flow =
  known t flow;
  Topology.src_sender t.topo ~flow

let dst_sender t ~flow =
  known t flow;
  Topology.dst_sender t.topo ~flow

let forward_link t = t.fwd
let reverse_link t = t.bwd
let forward_drop_rate t = Queue_disc.drop_rate (Link.queue t.fwd)
let in_flight t = Topology.in_flight t.topo
let teardown t = Topology.teardown t.topo
