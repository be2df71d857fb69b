(** Shared plumbing for the paper's experiments: wiring protocol agents
    onto a dumbbell, monitored on both the send and receive side, plus the
    mixed TCP/TFRC workload used by Figures 6-10. *)

type tcp_handle = {
  tcp_sender : Tcpsim.Tcp_sender.t;
  tcp_sink : Tcpsim.Tcp_sink.t;
  tcp_send_mon : Netsim.Flowmon.t;  (** packets leaving the sender *)
  tcp_recv_mon : Netsim.Flowmon.t;  (** packets arriving at the sink *)
}

type tfrc_handle = {
  tfrc_sender : Tfrc.Tfrc_sender.t;
  tfrc_receiver : Tfrc.Tfrc_receiver.t;
  tfrc_send_mon : Netsim.Flowmon.t;
  tfrc_recv_mon : Netsim.Flowmon.t;
}

(** [attach_tcp db ~flow ~rtt_base ~config] registers the flow on the
    dumbbell and wires a monitored sender/sink pair. Call
    [Tcpsim.Tcp_sender.start] on the result. *)
val attach_tcp :
  Netsim.Dumbbell.t ->
  flow:int ->
  rtt_base:float ->
  config:Tcpsim.Tcp_common.config ->
  tcp_handle

val attach_tfrc :
  Netsim.Dumbbell.t ->
  flow:int ->
  rtt_base:float ->
  config:Tfrc.Tfrc_config.t ->
  tfrc_handle

(** Queue sizing rule used across the simulation figures: the buffer scales
    with bandwidth (about two-thirds of the 100 ms bandwidth-delay product,
    matching the paper's 100-packet buffer at 15 Mb/s), with RED thresholds
    at 1/10 and 1/2 of the buffer (the Figure 9 footnote parameters). *)
val scaled_queue : [ `Droptail | `Red ] -> bandwidth:float -> Netsim.Dumbbell.queue_spec

(** Parameters for the standard mixed TCP/TFRC dumbbell experiment. *)
type mixed_params = {
  bandwidth : float;  (** bits/s *)
  delay : float;  (** bottleneck one-way propagation, s *)
  queue : Netsim.Dumbbell.queue_spec;
  n_tcp : int;
  n_tfrc : int;
  rtt_min : float;  (** per-flow base RTTs drawn uniformly *)
  rtt_max : float;
  start_spread : float;  (** starts drawn uniformly in [0, spread] *)
  duration : float;
  warmup : float;  (** measurement window is [warmup, duration] *)
  seed : int;
  tcp_config : Tcpsim.Tcp_common.config;
  tfrc_config : Tfrc.Tfrc_config.t;
}

val default_mixed : unit -> mixed_params

type flow_stats = {
  flow_id : int;
  mean_recv_rate : float;  (** bytes/s over the measurement window *)
  recv_series : Stats.Time_series.t;
  send_series : Stats.Time_series.t;
}

type mixed_result = {
  tcp_flows : flow_stats list;
  tfrc_flows : flow_stats list;
  utilization : float;
  drop_rate : float;
  fair_share : float;  (** bytes/s per flow at perfect fairness *)
  t0 : float;  (** measurement window *)
  t1 : float;
  drop_times : float list;  (** times of forward-bottleneck drops *)
}

val run_mixed : mixed_params -> mixed_result

(** [normalized_throughputs r] maps each flow's mean receive rate to a
    multiple of the fair share: (tcp list, tfrc list). *)
val normalized_throughputs : mixed_result -> float list * float list

val mean : float list -> float

(** [ns2_trace ~seed ~duration oc] runs one TCP Sack flow and one TFRC
    flow over a 2 Mb/s DropTail bottleneck for [duration] simulated
    seconds and writes the bottleneck's ns-2-style packet trace
    ({!Engine.Trace.ns2_sink}) to [oc], flushed. Returns the number of
    lines written. *)
val ns2_trace : seed:int -> duration:float -> out_channel -> int
