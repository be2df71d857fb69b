type t = { topo : Topology.t; links : Link.t array; delay : float }

(* Router [i] sits before hop [i + 1]: hop [k] runs router [k - 1] to
   router [k]. *)
let create rt ~hops ~bandwidth ~delay ~queue () =
  if hops < 1 then invalid_arg "Parking_lot.create: need at least one hop";
  (* Unlabelled links first, in hop order: they take fresh ids 1..hops, so
     their default labels and all later packet ids follow from [hops]. *)
  let links =
    Array.init hops (fun _ -> Link.create rt ~bandwidth ~delay ~queue:(queue ()) ())
  in
  let topo = Topology.create rt () in
  for _ = 0 to hops do
    ignore (Topology.add_node topo : Topology.node)
  done;
  Array.iteri
    (fun i link ->
      ignore (Topology.add_link topo ~src:i ~dst:(i + 1) link : Topology.edge))
    links;
  { topo; links; delay }

let runtime t = Topology.runtime t.topo
let n_hops t = Array.length t.links

(* Every access and reverse segment is a scheduler event, even at zero
   delay. The reverse path is well provisioned: one direct hop of the
   flow's one-way delay. *)
let register t ~flow ~entry ~exit_ ~rtt_base =
  if Topology.mem_flow t.topo flow then
    invalid_arg (Printf.sprintf "Parking_lot: flow %d already exists" flow);
  let span = float_of_int (exit_ - entry + 1) *. t.delay in
  let one_way = rtt_base /. 2. in
  let access = (one_way -. span) /. 2. in
  if access < 0. then
    invalid_arg "Parking_lot: rtt_base smaller than the path propagation";
  Topology.add_flow t.topo ~flow ~src:entry ~dst:(exit_ + 1)
    ~always_schedule:true ~reverse:one_way access

let add_through_flow t ~flow ~rtt_base =
  register t ~flow ~entry:0 ~exit_:(n_hops t - 1) ~rtt_base

let add_cross_flow t ~flow ~hop ~rtt_base =
  if hop < 1 || hop > n_hops t then invalid_arg "Parking_lot: bad hop";
  register t ~flow ~entry:(hop - 1) ~exit_:(hop - 1) ~rtt_base

let known t flow =
  if not (Topology.mem_flow t.topo flow) then
    invalid_arg (Printf.sprintf "Parking_lot: unknown flow %d" flow)

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

let link t ~hop =
  if hop < 1 || hop > n_hops t then invalid_arg "Parking_lot: bad hop";
  t.links.(hop - 1)

let drop_rate t =
  let arrivals = ref 0 and drops = ref 0 in
  Array.iter
    (fun l ->
      let s = (Link.queue l).Queue_disc.stats in
      arrivals := !arrivals + s.arrivals;
      drops := !drops + s.drops)
    t.links;
  if !arrivals = 0 then 0. else float_of_int !drops /. float_of_int !arrivals

let in_flight t = Topology.in_flight t.topo
let teardown t = Topology.teardown t.topo
