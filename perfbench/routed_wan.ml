(* [Topo_builders.Transcontinental] with RED on every segment (through the
   queue factory) and 16 flows, one TCP Sack and one TFRC per city pair
   below. Seeded access delays and start times; a seeded outage cuts one
   northern segment in both directions and a later flapping window hits
   another, so routes are recomputed and traffic detours south. *)

module TC = Netsim.Topo_builders.Transcontinental

let duration = 12.

let pairs =
  TC.[ (Nyc, Sfo); (Sfo, Nyc); (Nyc, Den); (Chi, Sfo); (Atl, Chi); (Den, Nyc);
       (Sfo, Atl); (Chi, Den) ]

(* One RED discipline per link. The factory takes no arguments, so every
   queue ages its average at the northern links' 45 Mb/s packet rate. *)
let red rt () =
  Netsim.Red.create
    ~params:(Netsim.Red.params ~min_th:5. ~max_th:15. ~limit_pkts:60 ())
    ~now:(fun () -> Engine.Runtime.now rt)
    ~ptc:(45e6 /. 8000.)

let build ~seed mode =
  let rng = Engine.Rng.create ~seed in
  let sim = Engine.Sim.create ~trace:(Work.bus mode) ~scheduler:`Wheel () in
  let rt = Work.runtime mode (Engine.Sim.runtime sim) in
  let wan =
    Work.within mode Spans.topology
      (fun () -> TC.create rt ~queue:(Work.queue_factory mode (red rt)) ())
      ()
  in
  let ends =
    {
      Flows.src_sender = TC.src_sender wan;
      dst_sender = TC.dst_sender wan;
      set_src_recv = TC.set_src_recv wan;
      set_dst_recv = TC.set_dst_recv wan;
    }
  in
  let add attach flow (src, dst) =
    let access = Engine.Rng.uniform rng 0.002 0.01 in
    let start = Engine.Rng.uniform rng 0. 2. in
    Work.within mode Spans.topology
      (fun () -> TC.add_flow wan ~flow ~src ~dst ~access)
      ();
    attach mode rt ends ~flow ~start
  in
  let tcps = List.mapi (fun i p -> add Flows.tcp (i + 1) p) pairs in
  let tfrcs = List.mapi (fun i p -> add Flows.tfrc (1000 + i + 1) p) pairs in
  let segment label = List.map (fun l -> fst (TC.link wan l)) label in
  let outage_at = Engine.Rng.uniform rng 3. 5. in
  let flap_start = Engine.Rng.uniform rng 7. 8. in
  Work.within mode Spans.link
    (fun () ->
      List.iter
        (fun l -> Netsim.Faults.outage rt l ~at:outage_at ~duration:1.5 ())
        (segment [ "chi-den"; "den-chi" ]);
      List.iter
        (fun l ->
          Netsim.Faults.flapping rt l ~start:flap_start ~stop:(flap_start +. 2.)
            ~period:0.5 ~down_fraction:0.3 ())
        (segment [ "nyc-chi"; "chi-nyc" ]))
    ();
  let topo = TC.topology wan in
  (* Nodes 0 and 3 are the first and fourth cities built: nyc and sfo. *)
  Flows.first_route mode topo ~src:0 ~dst:3;
  let links = List.map (fun l -> fst (TC.link wan l)) (TC.labels wan) in
  { Flows.sim; links; topo; tcps; tfrcs }

let workload =
  {
    Work.name = "routed_wan";
    setup = (fun ~seed -> ignore (build ~seed Work.plain : Flows.net));
    run = (fun mode ~seed -> Flows.sim_unit mode ~build:(build ~seed) ~duration);
    checkable = true;
    batch = 12;
    exact_words = true;
  }
