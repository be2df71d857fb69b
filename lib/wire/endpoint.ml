(* Decode failures are observable both as a counter and on the trace
   bus, so --trace/--check cover wire runs. *)
let trace_decode_error rt err =
  let tr = Engine.Runtime.trace rt in
  if Engine.Trace.active tr then
    Engine.Trace.emit tr ~time:(Engine.Runtime.now rt)
      (Wire_decode_error { error = Codec.error_to_string err })

type sender = {
  s_machine : Tfrc.Tfrc_sender.t;
  mutable s_decode_errors : int;
}

let sender loop udp ~config ~flow ~dest ?send () =
  let rt = Loop.runtime loop in
  let out =
    match send with
    | Some f -> f
    | None -> fun frame -> Udp.send udp ~dest frame
  in
  let machine =
    Tfrc.Tfrc_sender.create rt ~config ~flow
      ~transmit:(fun pkt -> out (Codec.encode pkt))
      ()
  in
  let t = { s_machine = machine; s_decode_errors = 0 } in
  Udp.set_handler udp (fun data _src ->
      match Codec.decode rt data with
      | Ok { body = Codec.Packet pkt; _ } -> Tfrc.Tfrc_sender.recv machine pkt
      | Ok _ -> (* session control is the Supervisor's business *) ()
      | Error e ->
          t.s_decode_errors <- t.s_decode_errors + 1;
          trace_decode_error rt e);
  t

let start_sender t ~at = Tfrc.Tfrc_sender.start t.s_machine ~at
let stop_sender t = Tfrc.Tfrc_sender.stop t.s_machine
let sender_machine t = t.s_machine
let sender_decode_errors t = t.s_decode_errors

type receiver = {
  r_machine : Tfrc.Tfrc_receiver.t;
  mutable r_decode_errors : int;
}

let receiver loop udp ~config ~flow ?reply_to ?send () =
  let rt = Loop.runtime loop in
  (* Learned from traffic when not pinned: feedback goes back to whoever
     last reached us, so the receiver works without knowing the sender's
     ephemeral port up front. *)
  let peer = ref reply_to in
  let out =
    match send with
    | Some f -> f
    | None -> (
        fun frame ->
          match !peer with
          | Some dest -> Udp.send udp ~dest frame
          | None -> ())
  in
  let machine =
    Tfrc.Tfrc_receiver.create rt ~config ~flow
      ~transmit:(fun pkt -> out (Codec.encode pkt))
      ()
  in
  let t = { r_machine = machine; r_decode_errors = 0 } in
  Udp.set_handler udp (fun data src ->
      match Codec.decode rt data with
      | Ok { body = Codec.Packet pkt; _ } ->
          (* Latest-wins on every validly decoded data frame: a sender
             that restarted on a new ephemeral port gets feedback again
             as soon as its first frame lands. *)
          if reply_to = None then peer := Some src;
          Tfrc.Tfrc_receiver.recv machine pkt
      | Ok { body = Codec.Close; epoch; flow } ->
          (* Graceful teardown: acknowledge to whoever asked. *)
          Udp.send udp ~dest:src
            (Codec.encode_close_ack ~epoch ~flow ~now:(Loop.now loop))
      | Ok { body = Codec.Close_ack; _ } -> ()
      | Error e ->
          t.r_decode_errors <- t.r_decode_errors + 1;
          trace_decode_error rt e);
  t

let stop_receiver t = Tfrc.Tfrc_receiver.stop t.r_machine
let receiver_machine t = t.r_machine
let receiver_decode_errors t = t.r_decode_errors

type demo_result = {
  completed : bool;
  elapsed : float;
  data_sent : int;
  data_received : int;
  feedbacks_sent : int;
  feedbacks_received : int;
  shaper_dropped : int;
  decode_errors : int;
  final_rate : float;
  final_rtt : float;
}

let default_demo_shaper =
  { Shaper.passthrough with delay = 0.002 }

let loopback_demo ~packets ~seed ?config ?(shaper = default_demo_shaper)
    ?(timeout = 30.) () =
  if packets <= 0 then invalid_arg "loopback_demo: packets must be positive";
  let config =
    match config with
    | Some c -> c
    | None -> Tfrc.Tfrc_config.default ~initial_rtt:0.05 ()
  in
  let loop = Loop.create ~mode:`Monotonic () in
  let rt = Loop.runtime loop in
  let snd_udp = Udp.create loop () in
  let rcv_udp = Udp.create loop () in
  let snd_addr = Udp.addr ~port:(Udp.port snd_udp) in
  let rcv_addr = Udp.addr ~port:(Udp.port rcv_udp) in
  (* Both directions go socket-to-socket through a seeded shaper: frames
     are delayed/dropped in process, then put on the real wire. *)
  let data_shaper =
    Shaper.create rt ~seed ~config:shaper
      ~deliver:(fun frame -> Udp.send snd_udp ~dest:rcv_addr frame)
      ()
  in
  let fb_shaper =
    Shaper.create rt ~seed:(seed + 1) ~config:shaper
      ~deliver:(fun frame -> Udp.send rcv_udp ~dest:snd_addr frame)
      ()
  in
  let snd =
    sender loop snd_udp ~config ~flow:1 ~dest:rcv_addr
      ~send:(Shaper.send data_shaper) ()
  in
  let rcv =
    receiver loop rcv_udp ~config ~flow:1 ~send:(Shaper.send fb_shaper) ()
  in
  start_sender snd ~at:(Loop.now loop);
  (* Completion poll: cheap enough at 5 ms to keep demo latency low
     without watching every arrival. *)
  let done_ = ref false in
  let rec check () =
    if Tfrc.Tfrc_receiver.packets_received (receiver_machine rcv) >= packets
    then begin
      done_ := true;
      Loop.stop loop
    end
    else ignore (Loop.after loop 0.005 check)
  in
  ignore (Loop.after loop 0.005 check);
  Loop.run loop ~until:timeout;
  let elapsed = Loop.now loop in
  stop_sender snd;
  stop_receiver rcv;
  let sm = sender_machine snd and rm = receiver_machine rcv in
  let result =
    {
      completed = !done_;
      elapsed;
      data_sent = Tfrc.Tfrc_sender.packets_sent sm;
      data_received = Tfrc.Tfrc_receiver.packets_received rm;
      feedbacks_sent = Tfrc.Tfrc_receiver.feedbacks_sent rm;
      feedbacks_received = Tfrc.Tfrc_sender.feedbacks_received sm;
      shaper_dropped = Shaper.dropped data_shaper + Shaper.dropped fb_shaper;
      decode_errors = sender_decode_errors snd + receiver_decode_errors rcv;
      final_rate = Tfrc.Tfrc_sender.rate sm;
      final_rtt = Tfrc.Tfrc_sender.rtt sm;
    }
  in
  Udp.close snd_udp;
  Udp.close rcv_udp;
  result

let pp_demo_result ppf r =
  Format.fprintf ppf
    "@[<v>completed:          %b@,elapsed:            %.3f s@,\
     data sent:          %d@,data received:      %d@,\
     feedbacks sent:     %d@,feedbacks received: %d@,\
     shaper drops:       %d@,decode errors:      %d@,\
     final rate:         %.0f B/s@,final rtt:          %.4f s@]"
    r.completed r.elapsed r.data_sent r.data_received r.feedbacks_sent
    r.feedbacks_received r.shaper_dropped r.decode_errors r.final_rate
    r.final_rtt
