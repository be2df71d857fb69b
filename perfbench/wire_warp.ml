(* The sim-vs-wire differential, [Wire.Validate.run]: one TFRC session
   with 1% seeded shaper loss each way and no application limit, run on
   the simulator and again on a warp-mode [Wire.Loop] with every packet
   through [Wire.Codec]. Both sides' rate-decision logs must be identical.

   The traced unit rebuilds both sides from public calls, in Validate's
   construction order so timer insertion sequences (and so decisions)
   line up: spans around the codec calls, the shaper sends, and the TFRC
   handlers, and a tagging runtime over both schedulers. *)

let duration = 240.

let shaper =
  { Wire.Shaper.loss = 0.01; delay = 0.02; jitter = 0.; reorder = 0. }

let decision time ~rate ~rtt ~p =
  String.concat " " (List.map Engine.Hexfloat.to_string [ time; rate; rtt; p ])

(* Validate's session, with spans. Returns a function that stops the
   agents and yields the decision log. *)
let session mode rt ~config ~seed ~encode ~decode =
  let log = ref [] in
  let receiver_cell = ref None in
  let send sh x = Work.within mode Spans.shaper (Wire.Shaper.send sh) x in
  let in_layer l f = Work.within mode l f () in
  let data_shaper =
    in_layer Spans.shaper (fun () ->
        Wire.Shaper.create rt ~seed ~config:shaper
          ~deliver:(fun x ->
            match !receiver_cell with
            | Some r ->
                Work.within mode Spans.tfrc (Tfrc.Tfrc_receiver.recv r) (decode x)
            | None -> ())
          ())
  in
  let sender =
    in_layer Spans.tfrc (fun () ->
        Tfrc.Tfrc_sender.create rt ~config ~flow:1
          ~transmit:(fun pkt -> send data_shaper (encode pkt))
          ())
  in
  let fb_shaper =
    in_layer Spans.shaper (fun () ->
        Wire.Shaper.create rt ~seed:(seed + 1) ~config:shaper
          ~deliver:(fun x ->
            Work.within mode Spans.tfrc (Tfrc.Tfrc_sender.recv sender) (decode x))
          ())
  in
  let receiver =
    in_layer Spans.tfrc (fun () ->
        Tfrc.Tfrc_receiver.create rt ~config ~flow:1
          ~transmit:(fun pkt -> send fb_shaper (encode pkt))
          ())
  in
  receiver_cell := Some receiver;
  Tfrc.Tfrc_sender.set_app_limit sender None;
  Tfrc.Tfrc_sender.on_rate_update sender (fun time ~rate ~rtt ~p ->
      log := decision time ~rate ~rtt ~p :: !log);
  in_layer Spans.tfrc (fun () -> Tfrc.Tfrc_sender.start sender ~at:0.);
  let finish () =
    Tfrc.Tfrc_sender.stop sender;
    Tfrc.Tfrc_receiver.stop receiver;
    List.rev !log
  in
  (sender, finish)

type side = {
  sender : Tfrc.Tfrc_sender.t;
  finish : unit -> string list;
  drive : unit -> unit;
}

let sim_side mode ~config ~seed =
  let sim = Engine.Sim.create ~trace:(Work.bus mode) ~scheduler:`Wheel () in
  let rt = Work.runtime mode (Engine.Sim.runtime sim) in
  let sender, finish = session mode rt ~config ~seed ~encode:Fun.id ~decode:Fun.id in
  { sender; finish; drive = (fun () -> Engine.Sim.run sim ~until:duration) }

let wire_side mode ~config ~seed ~frames =
  let loop = Wire.Loop.create ~trace:(Work.bus mode) ~mode:`Warp () in
  let rt = Work.runtime mode (Wire.Loop.runtime loop) in
  let encode pkt =
    incr frames;
    Work.within mode Spans.codec (fun p -> Wire.Codec.encode p) pkt
  in
  let decode frame =
    match Work.within mode Spans.codec (Wire.Codec.decode_packet rt) frame with
    | Ok pkt -> pkt
    | Error e -> failwith ("wire_warp: decode failed: " ^ Wire.Codec.error_to_string e)
  in
  let sender, finish = session mode rt ~config ~seed ~encode ~decode in
  { sender; finish; drive = (fun () -> Wire.Loop.run loop ~until:duration) }

let outcome ~setup_ns ~run_ns ~run_words ~equal ~sim_n ~wire_n ~extra =
  {
    Work.counts = [ ("wire.decisions", wire_n); ("wire.decisions_sim", sim_n) ] @ extra;
    checks = [ ("wire validate: sim and wire decision logs equal", equal) ];
    units = 1.;
    cases = 1.;
    sim_s = 2. *. duration;
    setup_ns;
    run_ns;
    run_words;
  }

let run mode ~seed =
  let config = Tfrc.Tfrc_config.default () in
  match mode with
  | { Work.spans = None; check = None } ->
      (* Validate builds its sessions inside the timed call; set-up is
         timed on an identical build of the wire side. *)
      let t0 = Work.now_ns () in
      ignore ((wire_side mode ~config ~seed ~frames:(ref 0)).finish ());
      let setup_ns = Work.now_ns () - t0 in
      let r = ref None in
      let run_ns, run_words =
        Work.timed (fun () ->
            r := Some (Wire.Validate.run ~config ~shaper ~seed ~duration ()))
      in
      let r = Option.get !r in
      outcome ~setup_ns ~run_ns ~run_words ~equal:r.equal ~sim_n:r.decisions_sim
        ~wire_n:r.decisions_wire ~extra:[]
  | _ ->
      let frames = ref 0 in
      let sim_log = ref [] and wire_log = ref [] and senders = ref [] in
      let run_ns, run_words =
        Work.timed (fun () ->
            let s = sim_side mode ~config ~seed in
            Work.within mode Spans.sched s.drive ();
            sim_log := s.finish ();
            senders := [ s.sender ];
            let w = wire_side mode ~config ~seed ~frames in
            Work.within mode Spans.sched w.drive ();
            wire_log := w.finish ();
            senders := w.sender :: !senders)
      in
      outcome ~setup_ns:0 ~run_ns ~run_words ~equal:(!sim_log = !wire_log)
        ~sim_n:(List.length !sim_log) ~wire_n:(List.length !wire_log)
        ~extra:(("codec.frames", !frames) :: Work.tfrc_counts !senders)

let workload =
  {
    Work.name = "wire_warp";
    setup =
      (fun ~seed ->
        let config = Tfrc.Tfrc_config.default () in
        ignore ((wire_side Work.plain ~config ~seed ~frames:(ref 0)).finish ()));
    run;
    checkable = true;
    batch = 16;
    exact_words = true;
  }
