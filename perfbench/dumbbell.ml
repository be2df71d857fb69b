(* Fig 6's cell: 8 TCP Sack and 8 TFRC flows sharing a 15 Mb/s DropTail
   bottleneck built by [Topo_builders.Graph_dumbbell]. The base RTTs are
   16 values evenly spread over 80-120 ms, dealt to the flows in a seeded
   order; start times are drawn from the first 2 s. The trace bus is
   inactive (unless the unit is checked), as in the paper's runs. *)

module GD = Netsim.Topo_builders.Graph_dumbbell

let duration = 40.
let n_each = 8

let build ~seed mode =
  let rng = Engine.Rng.create ~seed in
  let sim = Engine.Sim.create ~trace:(Work.bus mode) ~scheduler:`Wheel () in
  let rt = Work.runtime mode (Engine.Sim.runtime sim) in
  let db =
    Work.within mode Spans.topology
      (fun () ->
        GD.create rt ~bandwidth:(Engine.Units.mbps 15.) ~delay:0.025
          ~queue:(Netsim.Dumbbell.Droptail_q 100) ())
      ()
  in
  let ends =
    {
      Flows.src_sender = GD.src_sender db;
      dst_sender = GD.dst_sender db;
      set_src_recv = GD.set_src_recv db;
      set_dst_recv = GD.set_dst_recv db;
    }
  in
  let rtts = Array.init (2 * n_each) (fun i -> 0.08 +. (0.04 *. float_of_int i /. 15.)) in
  Engine.Rng.shuffle rng rtts;
  let add attach flow =
    let rtt_base = rtts.(if flow > 1000 then flow - 1001 + n_each else flow - 1) in
    let start = Engine.Rng.uniform rng 0. 2. in
    Work.within mode Spans.topology (fun () -> GD.add_flow db ~flow ~rtt_base) ();
    attach mode rt ends ~flow ~start
  in
  let tcps = List.init n_each (fun i -> add Flows.tcp (i + 1)) in
  let tfrcs = List.init n_each (fun i -> add Flows.tfrc (1000 + i + 1)) in
  let topo = GD.topology db in
  Flows.first_route mode topo ~src:0 ~dst:1;
  { Flows.sim; links = [ GD.forward_link db; GD.reverse_link db ]; topo; tcps; tfrcs }

let workload =
  {
    Work.name = "dumbbell";
    setup = (fun ~seed -> ignore (build ~seed Work.plain : Flows.net));
    run = (fun mode ~seed -> Flows.sim_unit mode ~build:(build ~seed) ~duration);
    checkable = true;
    batch = 28;
    exact_words = true;
  }
