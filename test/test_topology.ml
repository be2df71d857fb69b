(* Tests for the arbitrary-topology layer: golden traces of every builder
   and of routed fuzz scenarios, failure-impact classification on the
   transcontinental WAN, routing recomputation on link-state changes (and
   not on flow attachment), builder teardown/in-flight accounting, and
   graph fuzz scenarios under parallel execution. *)

module TB = Netsim.Topo_builders.Transcontinental
module FT = Netsim.Topo_builders.Fat_tree

(* --- Goldens: the one construction replays the hand-wired builders ----- *)

(* Event count, delivered data packets and the MD5 of the run's JSONL text
   ([Engine.Trace.to_json] per event, newline-joined). The values were
   recorded from the hand-wired dumbbell and parking lot builders, and
   from the host-node graph construction for the routed cases, before
   both gave way to routers with flow attachments: the network layer must
   not add, remove, reorder or re-time a single event. *)
type golden = { events : int; delivered : int; md5 : string }

let jsonl_md5 run =
  let buf = Buffer.create 65536 in
  let n = ref 0 in
  let sink =
    {
      Engine.Trace.emit =
        (fun ev ->
          if !n > 0 then Buffer.add_char buf '\n';
          incr n;
          Buffer.add_string buf (Engine.Trace.to_json ev));
      close = ignore;
    }
  in
  run sink;
  (!n, Digest.to_hex (Digest.string (Buffer.contents buf)))

let check_golden name g ~events ~delivered ~md5 =
  Alcotest.(check int) (name ^ ": events") g.events events;
  Alcotest.(check int) (name ^ ": delivered") g.delivered delivered;
  Alcotest.(check string) (name ^ ": JSONL md5") g.md5 md5

(* A fuzz scenario through the oracle: every oracle passes, and one run's
   JSONL matches the golden. *)
let oracle_golden name sc g =
  let o = Fuzz.Oracle.run sc in
  Alcotest.(check (list string))
    (name ^ ": oracles pass") [] (Fuzz.Oracle.failed_oracles o);
  let events, md5 = jsonl_md5 (Fuzz.Oracle.trace sc) in
  Alcotest.(check int) (name ^ ": traced run emits as many") o.events events;
  check_golden name g ~events ~delivered:o.delivered ~md5

let flow ?(proto = Fuzz.Scenario.Tfrc) ?(rtt_base = 0.06) ?(start = 0.) ?hop () =
  { Fuzz.Scenario.proto; rtt_base; start; hop }

let base_sc ~id ~topology ~flows ~faults ~duration =
  {
    Fuzz.Scenario.id;
    sim_seed = 11;
    topology;
    bandwidth = 1.5e6;
    delay = 0.005;
    queue = Fuzz.Scenario.Droptail 25;
    flows;
    faults;
    duration;
  }

let test_golden_fig2_dumbbell () =
  oracle_golden "fig2 dumbbell"
    (base_sc ~id:"diff/fig2" ~topology:Fuzz.Scenario.Dumbbell
       ~flows:[ flow (); flow ~start:0.5 (); flow ~proto:Fuzz.Scenario.Tcp () ]
       ~faults:[] ~duration:8.)
    { events = 5626; delivered = 1445; md5 = "2b38e9e7a88e58217f090af71c73ed45" }

let test_golden_dumbbell_link_faults () =
  oracle_golden "dumbbell link faults"
    (base_sc ~id:"diff/link-faults" ~topology:Fuzz.Scenario.Dumbbell
       ~flows:[ flow (); flow ~proto:Fuzz.Scenario.Tcp ~start:0.3 () ]
       ~faults:
         [
           Fuzz.Scenario.Outage { at = 3.; duration = 1.5 };
           Fuzz.Scenario.Flap
             { at = 6.; stop = 8.; period = 0.8; down_fraction = 0.5 };
           Fuzz.Scenario.Route_change { at = 9.; bandwidth_factor = 0.5 };
         ]
       ~duration:12.)
    { events = 4989; delivered = 1170; md5 = "0ece7f20b6f36be44a8973551b804b96" }

let test_golden_dumbbell_handler_faults () =
  oracle_golden "dumbbell handler faults"
    (base_sc ~id:"diff/handler-faults" ~topology:Fuzz.Scenario.Dumbbell
       ~flows:[ flow (); flow ~proto:Fuzz.Scenario.Tfrcp ~start:0.2 () ]
       ~faults:
         [
           Fuzz.Scenario.Reorder { p = 0.1; jitter = 0.02 };
           Fuzz.Scenario.Duplicate { p = 0.05; delay = 0.01 };
           Fuzz.Scenario.Corrupt { p = 0.03 };
           Fuzz.Scenario.Fb_blackout { at = 4.; duration = 1. };
         ]
       ~duration:10.)
    { events = 3598; delivered = 1225; md5 = "60f0ec09f06e6d5477812a5894debb83" }

let test_golden_path () =
  oracle_golden "path"
    (base_sc ~id:"diff/path" ~topology:Fuzz.Scenario.Path
       ~flows:[ flow ~proto:Fuzz.Scenario.Rap (); flow ~start:0.4 () ]
       ~faults:[ Fuzz.Scenario.Outage { at = 3.; duration = 1. } ]
       ~duration:8.)
    { events = 1041; delivered = 335; md5 = "c932ce34aac95a7e38c77df6bb4f551c" }

let test_golden_parking_lot () =
  oracle_golden "parking lot"
    (base_sc ~id:"diff/parking-lot"
       ~topology:(Fuzz.Scenario.Parking_lot 3)
       ~flows:
         [
           flow ~rtt_base:0.1 ();
           flow ~rtt_base:0.08 ~hop:2 ~start:0.3 ();
           flow ~proto:Fuzz.Scenario.Tcp ~rtt_base:0.08 ~hop:1 ~start:0.6 ();
         ]
       ~faults:[ Fuzz.Scenario.Outage { at = 4.; duration = 1.5 } ]
       ~duration:10.)
    { events = 5871; delivered = 2584; md5 = "f1aa31290b9c22c20fbdff7979a941ba" }

let test_golden_ring_chord () =
  oracle_golden "ring+chord graph"
    {
      Fuzz.Scenario.id = "golden/graph";
      sim_seed = 23;
      topology = Fuzz.Scenario.Graph { nodes = 5; extra = 2 };
      bandwidth = 1.5e6;
      delay = 0.004;
      queue = Fuzz.Scenario.Droptail 25;
      flows =
        [
          flow ~rtt_base:0.1 ();
          flow ~rtt_base:0.1 ~start:0.5 ();
          flow ~proto:Fuzz.Scenario.Tcp ~rtt_base:0.03 ~start:0.2 ();
        ];
      faults = [ Fuzz.Scenario.Outage { at = 3.; duration = 2. } ];
      duration = 8.;
    }
    { events = 15769; delivered = 3141; md5 = "e34f370da8892c0a60f127f75861159f" }

(* Builder-level goldens: TFRC and TCP Sack agents on a builder's flow
   endpoints, a 1.5 s cut of one duplex segment at t = 2, 5 s simulated. *)
type ends = {
  src_sender : flow:int -> Netsim.Packet.handler;
  dst_sender : flow:int -> Netsim.Packet.handler;
  set_src_recv : flow:int -> Netsim.Packet.handler -> unit;
  set_dst_recv : flow:int -> Netsim.Packet.handler -> unit;
}

let attach rt ends delivered ~flow ~tcp ~start =
  let count h pkt =
    incr delivered;
    h pkt
  in
  if tcp then begin
    let config = Tcpsim.Tcp_common.ns_sack in
    let sink =
      Tcpsim.Tcp_sink.create rt ~config ~flow ~transmit:(ends.dst_sender ~flow) ()
    in
    ends.set_dst_recv ~flow (count (Tcpsim.Tcp_sink.recv sink));
    let sender =
      Tcpsim.Tcp_sender.create rt ~config ~flow ~transmit:(ends.src_sender ~flow) ()
    in
    ends.set_src_recv ~flow (Tcpsim.Tcp_sender.recv sender);
    Tcpsim.Tcp_sender.start sender ~at:start
  end
  else begin
    let config = Tfrc.Tfrc_config.default () in
    let receiver =
      Tfrc.Tfrc_receiver.create rt ~config ~flow ~transmit:(ends.dst_sender ~flow) ()
    in
    ends.set_dst_recv ~flow (count (Tfrc.Tfrc_receiver.recv receiver));
    let sender =
      Tfrc.Tfrc_sender.create rt ~config ~flow ~transmit:(ends.src_sender ~flow) ()
    in
    ends.set_src_recv ~flow (Tfrc.Tfrc_sender.recv sender);
    Tfrc.Tfrc_sender.start sender ~at:start
  end

let builder_golden name build g =
  let delivered = ref 0 in
  let events, md5 =
    jsonl_md5 (fun sink ->
        let bus = Engine.Trace.create () in
        Engine.Trace.add_sink bus sink;
        let sim = Engine.Sim.create ~trace:bus () in
        build (Engine.Sim.runtime sim) delivered;
        Engine.Sim.run sim ~until:5.)
  in
  check_golden name g ~events ~delivered:!delivered ~md5

let cut rt links =
  List.iter (fun l -> Netsim.Faults.outage rt l ~at:2. ~duration:1.5 ()) links

(* Zero-access flows cross their access segments synchronously. *)
let test_golden_dumbbell () =
  builder_golden "dumbbell"
    (fun rt delivered ->
      let db =
        Netsim.Dumbbell.create rt ~bandwidth:1.5e6 ~delay:0.01
          ~queue:(Netsim.Dumbbell.Droptail_q 20) ()
      in
      let ends =
        {
          src_sender = Netsim.Dumbbell.src_sender db;
          dst_sender = Netsim.Dumbbell.dst_sender db;
          set_src_recv = Netsim.Dumbbell.set_src_recv db;
          set_dst_recv = Netsim.Dumbbell.set_dst_recv db;
        }
      in
      List.iter
        (fun (flow, rtt_base, tcp, start) ->
          Netsim.Dumbbell.add_flow db ~flow ~rtt_base;
          attach rt ends delivered ~flow ~tcp ~start)
        [ (1, 0.02, false, 0.); (2, 0.02, true, 0.2); (3, 0.08, false, 0.4) ];
      cut rt [ Netsim.Dumbbell.forward_link db ])
    { events = 1539; delivered = 334; md5 = "4bbe9b57e0350860e80914a75e6fb926" }

let test_golden_transcontinental () =
  builder_golden "transcontinental"
    (fun rt delivered ->
      let wan =
        TB.create rt ~queue:(fun () -> Netsim.Droptail.create ~limit_pkts:30) ()
      in
      let ends =
        {
          src_sender = TB.src_sender wan;
          dst_sender = TB.dst_sender wan;
          set_src_recv = TB.set_src_recv wan;
          set_dst_recv = TB.set_dst_recv wan;
        }
      in
      List.iter
        (fun (flow, src, dst, access, tcp, start) ->
          TB.add_flow wan ~flow ~src ~dst ~access;
          attach rt ends delivered ~flow ~tcp ~start)
        [
          (1, TB.Nyc, TB.Sfo, 0.002, false, 0.);
          (2, TB.Nyc, TB.Chi, 0.003, true, 0.2);
          (3, TB.Atl, TB.Sfo, 0., false, 0.4);
        ];
      cut rt (List.map (fun l -> fst (TB.link wan l)) [ "chi-den"; "den-chi" ]))
    { events = 67382; delivered = 17174; md5 = "a1eb15f4788d9f4d5c1728bd4629f374" }

let test_golden_fat_tree () =
  builder_golden "fat tree"
    (fun rt delivered ->
      let ft =
        FT.create rt ~pods:2 ~bandwidth:2e6 ~delay:0.002
          ~queue:(fun () -> Netsim.Droptail.create ~limit_pkts:20)
          ()
      in
      let ends =
        {
          src_sender = FT.src_sender ft;
          dst_sender = FT.dst_sender ft;
          set_src_recv = FT.set_src_recv ft;
          set_dst_recv = FT.set_dst_recv ft;
        }
      in
      List.iter
        (fun (flow, (src_pod, src_edge), (dst_pod, dst_edge), access, tcp, start) ->
          FT.add_flow ft ~flow ~src_pod ~src_edge ~dst_pod ~dst_edge ~access;
          attach rt ends delivered ~flow ~tcp ~start)
        [
          (1, (0, 0), (1, 1), 0.003, false, 0.);
          (2, (0, 1), (1, 0), 0., true, 0.1);
          (3, (1, 0), (1, 1), 0.001, false, 0.3);
        ];
      cut rt (List.map (FT.link ft) [ "a0-c0"; "c0-a0" ]))
    { events = 22030; delivered = 1949; md5 = "b2b80034efacfedae715c03eecb5c6db" }

(* --- Failure impact on the transcontinental WAN ---------------------------- *)

let impact_kind =
  Alcotest.testable
    (fun ppf k -> Format.pp_print_string ppf (Netsim.Topology.impact_str k))
    ( = )

let make_wan () =
  let sim = Engine.Sim.create () in
  let wan = TB.create (Engine.Sim.runtime sim) ~queue:(fun () ->
      Netsim.Droptail.create ~limit_pkts:40) ()
  in
  TB.add_flow wan ~flow:1 ~src:TB.Nyc ~dst:TB.Sfo ~access:0.002;
  TB.add_flow wan ~flow:2 ~src:TB.Nyc ~dst:TB.Chi ~access:0.002;
  TB.add_flow wan ~flow:3 ~src:TB.Atl ~dst:TB.Sfo ~access:0.002;
  wan

let impact_of wan label =
  Netsim.Topology.impact (TB.topology wan) (snd (TB.link wan label))

let kind flow impacts = List.assoc flow impacts

let test_impact_healthy () =
  let wan = make_wan () in
  let chi_den = impact_of wan "chi-den" in
  Alcotest.check impact_kind "coast re-routes around chi-den"
    Netsim.Topology.Rerouted (kind 1 chi_den);
  Alcotest.check impact_kind "short unaffected by chi-den"
    Netsim.Topology.Unaffected (kind 2 chi_den);
  Alcotest.check impact_kind "south unaffected by chi-den"
    Netsim.Topology.Unaffected (kind 3 chi_den);
  (* The ring has a detour for every single-segment failure. *)
  let nyc_chi = impact_of wan "nyc-chi" in
  Alcotest.check impact_kind "short re-routes the long way"
    Netsim.Topology.Rerouted (kind 2 nyc_chi);
  let atl_sfo = impact_of wan "atl-sfo" in
  Alcotest.check impact_kind "south re-routes over the north path"
    Netsim.Topology.Rerouted (kind 3 atl_sfo);
  Alcotest.check impact_kind "coast does not use the detour when healthy"
    Netsim.Topology.Unaffected (kind 1 atl_sfo)

let set_segment wan label up =
  Netsim.Link.set_up (fst (TB.link wan label)) up;
  let rev =
    match String.split_on_char '-' label with
    | [ a; b ] -> b ^ "-" ^ a
    | _ -> assert false
  in
  Netsim.Link.set_up (fst (TB.link wan rev)) up

let test_impact_partition_when_detour_dark () =
  let wan = make_wan () in
  set_segment wan "nyc-atl" false;
  set_segment wan "atl-sfo" false;
  let chi_den = impact_of wan "chi-den" in
  Alcotest.check impact_kind "coast partitioned without the detour"
    Netsim.Topology.Partitioned (kind 1 chi_den);
  Alcotest.check impact_kind "short still unaffected"
    Netsim.Topology.Unaffected (kind 2 chi_den);
  (* Bringing the detour back restores the re-route verdict. *)
  set_segment wan "nyc-atl" true;
  set_segment wan "atl-sfo" true;
  Alcotest.check impact_kind "coast re-routes again"
    Netsim.Topology.Rerouted (kind 1 (impact_of wan "chi-den"))

let test_recompute_on_state_change () =
  let wan = make_wan () in
  ignore (impact_of wan "chi-den");
  let before = Netsim.Topology.recomputes (TB.topology wan) in
  (* A second query without any state change reuses the tables... *)
  ignore (impact_of wan "chi-den");
  Alcotest.(check int)
    "no recompute without a state change" before
    (Netsim.Topology.recomputes (TB.topology wan));
  (* ...and a link outage invalidates them. *)
  set_segment wan "chi-den" false;
  ignore (impact_of wan "nyc-chi");
  Alcotest.(check bool) "outage triggers a recompute" true
    (Netsim.Topology.recomputes (TB.topology wan) > before)

let mk_pkt rt ~now =
  Netsim.Packet.make rt ~flow:1 ~seq:0 ~size:1000 ~now Netsim.Packet.Data

(* A cut ahead of a packet in flight turns it back the way it came: the
   detour revisits routers, which the loop check must allow. Primary path
   0-1-2-4; the detour from 2 after 2-4 fails is 2-1-0-3-4, so the packet
   makes six router arrivals in a five-router graph. *)
let test_midflight_detour_not_a_loop () =
  let bus = Engine.Trace.create () in
  let sink, events = Engine.Trace.memory_sink () in
  Engine.Trace.add_sink bus sink;
  let sim = Engine.Sim.create ~trace:bus () in
  let rt = Engine.Sim.runtime sim in
  let topo = Netsim.Topology.create rt () in
  let r = Array.init 5 (fun _ -> Netsim.Topology.add_node topo) in
  let link a b =
    let l =
      Netsim.Link.create rt ~bandwidth:1e6 ~delay:0.01
        ~queue:(Netsim.Droptail.create ~limit_pkts:10)
        ()
    in
    (l, Netsim.Topology.add_link topo ~src:r.(a) ~dst:r.(b) l)
  in
  ignore (link 0 1);
  ignore (link 1 2);
  let cut, _ = link 2 4 in
  ignore (link 2 1);
  ignore (link 1 0);
  let _, e03 = link 0 3 in
  let _, e34 = link 3 4 in
  Netsim.Topology.set_cost topo e03 10.;
  Netsim.Topology.set_cost topo e34 10.;
  Netsim.Topology.add_flow topo ~flow:1 ~src:r.(0) ~dst:r.(4) 0.;
  let received = ref 0 in
  Netsim.Topology.set_dst_recv topo ~flow:1 (fun _ -> incr received);
  Netsim.Topology.src_sender topo ~flow:1 (mk_pkt rt ~now:0.);
  (* Each hop is 8 ms of transmission and 10 ms of propagation: the
     packet is on link 1-2 from 0.026 s to 0.036 s. *)
  ignore (Engine.Sim.at sim 0.03 (fun () -> Netsim.Link.set_up cut false));
  Engine.Sim.run sim ~until:1.;
  Alcotest.(check int) "delivered over the detour" 1 !received;
  Alcotest.(check int) "no loop reported" 0
    (List.length
       (List.filter
          (fun ev ->
            match ev.Engine.Trace.kind with Engine.Event.Topo_loop _ -> true | _ -> false)
          (events ())))

(* --- Teardown cancels in-flight deliveries --------------------------------- *)

let test_dumbbell_teardown () =
  let sim = Engine.Sim.create () in
  let rt = Engine.Sim.runtime sim in
  let db =
    Netsim.Dumbbell.create rt ~bandwidth:8e5 ~delay:0.005
      ~queue:(Netsim.Dumbbell.Droptail_q 50) ()
  in
  (* rtt_base 0.1 puts 22.5 ms of scheduled access delay on each side. *)
  Netsim.Dumbbell.add_flow db ~flow:1 ~rtt_base:0.1;
  let received = ref 0 in
  Netsim.Dumbbell.set_dst_recv db ~flow:1 (fun _ -> incr received);
  ignore
    (Engine.Sim.at sim 0. (fun () ->
         Netsim.Dumbbell.src_sender db ~flow:1 (mk_pkt rt ~now:0.)));
  ignore
    (Engine.Sim.at sim 0.01 (fun () ->
         Alcotest.(check bool) "delivery pending mid-flight" true
           (Netsim.Dumbbell.in_flight db > 0);
         Netsim.Dumbbell.teardown db));
  Engine.Sim.run sim ~until:1.;
  Alcotest.(check int) "cancelled delivery never arrives" 0 !received;
  Alcotest.(check int) "no pending handles" 0 (Netsim.Dumbbell.in_flight db)

let test_parking_lot_teardown () =
  let sim = Engine.Sim.create () in
  let rt = Engine.Sim.runtime sim in
  let pl =
    Netsim.Parking_lot.create rt ~hops:2 ~bandwidth:8e5 ~delay:0.005
      ~queue:(fun () -> Netsim.Droptail.create ~limit_pkts:50)
      ()
  in
  Netsim.Parking_lot.add_through_flow pl ~flow:1 ~rtt_base:0.1;
  let received = ref 0 in
  Netsim.Parking_lot.set_dst_recv pl ~flow:1 (fun _ -> incr received);
  ignore
    (Engine.Sim.at sim 0. (fun () ->
         Netsim.Parking_lot.src_sender pl ~flow:1 (mk_pkt rt ~now:0.)));
  ignore
    (Engine.Sim.at sim 0.005 (fun () ->
         Alcotest.(check bool) "delivery pending mid-flight" true
           (Netsim.Parking_lot.in_flight pl > 0);
         Netsim.Parking_lot.teardown pl));
  Engine.Sim.run sim ~until:1.;
  Alcotest.(check int) "cancelled delivery never arrives" 0 !received;
  Alcotest.(check int) "no pending handles" 0 (Netsim.Parking_lot.in_flight pl)

let test_topology_teardown () =
  let sim = Engine.Sim.create () in
  let rt = Engine.Sim.runtime sim in
  let topo = Netsim.Topology.create rt () in
  let a = Netsim.Topology.add_node topo in
  let b = Netsim.Topology.add_node topo in
  ignore
    (Netsim.Topology.add_link topo ~src:a ~dst:b
       (Netsim.Link.create rt ~bandwidth:8e5 ~delay:0.005
          ~queue:(Netsim.Droptail.create ~limit_pkts:50)
          ()));
  Netsim.Topology.add_flow topo ~flow:1 ~src:a ~dst:b 0.05;
  let received = ref 0 in
  Netsim.Topology.set_dst_recv topo ~flow:1 (fun _ -> incr received);
  ignore
    (Engine.Sim.at sim 0. (fun () ->
         Netsim.Topology.src_sender topo ~flow:1 (mk_pkt rt ~now:0.)));
  ignore
    (Engine.Sim.at sim 0.01 (fun () ->
         Alcotest.(check bool) "access delivery pending" true
           (Netsim.Topology.in_flight topo > 0);
         Netsim.Topology.teardown topo));
  Engine.Sim.run sim ~until:1.;
  Alcotest.(check int) "cancelled delivery never arrives" 0 !received;
  Alcotest.(check int) "no pending deliveries" 0 (Netsim.Topology.in_flight topo)

(* --- Routing cost does not grow with flows ---------------------------------- *)

(* Flows attach to routers, so the graph stays two routers however many
   flows join, and the first packet's route computation is the only one:
   a flow joining mid-run (as web arrivals do) costs no recompute. *)
let test_attach_keeps_routes () =
  let sim = Engine.Sim.create () in
  let rt = Engine.Sim.runtime sim in
  let db =
    Netsim.Dumbbell.create rt ~bandwidth:1e7 ~delay:0.005
      ~queue:(Netsim.Dumbbell.Droptail_q 2000) ()
  in
  let topo = Netsim.Dumbbell.topology db in
  let received = ref 0 in
  (* Zero access delay: each packet is routed the moment it is sent. *)
  for flow = 1 to 2000 do
    Netsim.Dumbbell.add_flow db ~flow ~rtt_base:0.01;
    Netsim.Dumbbell.set_dst_recv db ~flow (fun _ -> incr received);
    Netsim.Dumbbell.src_sender db ~flow
      (Netsim.Packet.make rt ~flow ~seq:0 ~size:100 ~now:0. Netsim.Packet.Data)
  done;
  Alcotest.(check int) "one route computation" 1 (Netsim.Topology.recomputes topo);
  Alcotest.(check int) "graph holds only the routers" 2
    (Netsim.Topology.n_nodes topo);
  Engine.Sim.run sim ~until:1.;
  Alcotest.(check int) "every packet delivered" 2000 !received;
  Alcotest.(check int) "still one route computation" 1
    (Netsim.Topology.recomputes topo)

(* --- Graph fuzz scenarios --------------------------------------------------- *)

let graph_sc ~id ~nodes ~extra ~faults =
  {
    Fuzz.Scenario.id;
    sim_seed = 23;
    topology = Fuzz.Scenario.Graph { nodes; extra };
    bandwidth = 1.5e6;
    delay = 0.004;
    queue = Fuzz.Scenario.Droptail 25;
    flows = [ flow ~rtt_base:0.1 (); flow ~rtt_base:0.1 ~start:0.5 () ];
    faults;
    duration = 8.;
  }

(* The oracle runs every scenario twice and compares running trace
   digests, so a pass certifies the graph build is deterministic. *)
let test_graph_scenario_passes () =
  let o =
    Fuzz.Oracle.run
      (graph_sc ~id:"graph/clean" ~nodes:4 ~extra:1 ~faults:[])
  in
  Alcotest.(check (list string)) "clean graph passes" []
    (Fuzz.Oracle.failed_oracles o);
  Alcotest.(check bool) "graph delivers traffic" true (o.Fuzz.Oracle.delivered > 0);
  let o =
    Fuzz.Oracle.run
      (graph_sc ~id:"graph/outage" ~nodes:5 ~extra:2
         ~faults:[ Fuzz.Scenario.Outage { at = 3.; duration = 2. } ])
  in
  Alcotest.(check (list string)) "graph with ring outage passes" []
    (Fuzz.Oracle.failed_oracles o)

(* Graph scenarios as runner jobs: -j 2 must reproduce -j 1 byte for
   byte (digests included), like every other grid in the repo. *)
let test_graph_parallel_identical () =
  let scs =
    [
      graph_sc ~id:"graph/j/0" ~nodes:3 ~extra:1 ~faults:[];
      graph_sc ~id:"graph/j/1" ~nodes:4 ~extra:2
        ~faults:[ Fuzz.Scenario.Outage { at = 2.; duration = 1. } ];
      graph_sc ~id:"graph/j/2" ~nodes:5 ~extra:0
        ~faults:[ Fuzz.Scenario.Flap
                    { at = 2.; stop = 5.; period = 1.; down_fraction = 0.5 } ];
    ]
  in
  let jobs =
    List.map
      (fun sc ->
        Exp.Job.make sc.Fuzz.Scenario.id (fun _rng ->
            let o = Fuzz.Oracle.run sc in
            [
              ("digest", Exp.Job.i o.Fuzz.Oracle.digest);
              ("events", Exp.Job.i o.Fuzz.Oracle.events);
              ("delivered", Exp.Job.i o.Fuzz.Oracle.delivered);
              ("failures", Exp.Job.i (List.length o.Fuzz.Oracle.failures));
            ]))
      scs
  in
  let r1 = Exp.Runner.run_jobs ~j:1 ~seed:5 jobs in
  let r2 = Exp.Runner.run_jobs ~j:2 ~seed:5 jobs in
  Alcotest.(check bool) "-j 2 graph results identical to -j 1" true (r1 = r2);
  List.iter
    (fun (key, res) ->
      Alcotest.(check int) (key ^ " has no failures") 0
        (Exp.Job.get_int res "failures"))
    r1

let () =
  Alcotest.run "topology"
    [
      ( "differential",
        [
          Alcotest.test_case "fig2-like dumbbell" `Quick test_golden_fig2_dumbbell;
          Alcotest.test_case "dumbbell link faults" `Quick
            test_golden_dumbbell_link_faults;
          Alcotest.test_case "dumbbell handler faults" `Quick
            test_golden_dumbbell_handler_faults;
          Alcotest.test_case "path" `Quick test_golden_path;
          Alcotest.test_case "parking lot" `Quick test_golden_parking_lot;
        ] );
      ( "golden",
        [
          Alcotest.test_case "ring+chord graph" `Quick test_golden_ring_chord;
          Alcotest.test_case "dumbbell, zero access" `Quick test_golden_dumbbell;
          Alcotest.test_case "transcontinental" `Quick
            test_golden_transcontinental;
          Alcotest.test_case "fat tree" `Quick test_golden_fat_tree;
        ] );
      ( "impact",
        [
          Alcotest.test_case "healthy graph" `Quick test_impact_healthy;
          Alcotest.test_case "partition when detour dark" `Quick
            test_impact_partition_when_detour_dark;
          Alcotest.test_case "recompute on state change" `Quick
            test_recompute_on_state_change;
          Alcotest.test_case "mid-flight detour is not a loop" `Quick
            test_midflight_detour_not_a_loop;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "dumbbell teardown" `Quick test_dumbbell_teardown;
          Alcotest.test_case "parking lot teardown" `Quick
            test_parking_lot_teardown;
          Alcotest.test_case "topology teardown" `Quick test_topology_teardown;
          Alcotest.test_case "2000 flows, one route computation" `Quick
            test_attach_keeps_routes;
        ] );
      ( "graph-fuzz",
        [
          Alcotest.test_case "oracles pass" `Quick test_graph_scenario_passes;
          Alcotest.test_case "-j 1 vs -j 2" `Quick test_graph_parallel_identical;
        ] );
    ]
