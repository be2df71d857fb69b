(** Single-bottleneck ("dumbbell") topology, the workhorse of the paper's
    simulations.

    n sources on the left share one congested link to n sinks on the right;
    access segments are over-provisioned (modelled as pure delay) so drops
    and queueing happen only at the bottleneck. A reverse bottleneck of the
    same bandwidth carries acknowledgements/feedback (and optional
    reverse-path traffic).

    Built on {!Topology}: routers 0 (left) and 1 (right) joined by the two
    bottleneck links, with every flow attached to both routers. Zero-delay
    access segments are crossed synchronously.

    Per-flow wiring: an agent on the left sends with [src_sender] and
    receives reverse packets through the handler registered with
    [set_src_recv]; the right-side agent uses [dst_sender]/[set_dst_recv].
    Per-flow access delay sets the base RTT. *)

type queue_spec =
  | Droptail_q of int  (** buffer limit in packets *)
  | Red_q of Red.params

type t

(** [create rt ~bandwidth ~delay ~queue ()] builds the bottleneck pair on
    the given sans-IO runtime (use [Engine.Sim.runtime sim] under the
    simulator). [bandwidth] in bits/s, [delay] one-way propagation of the
    bottleneck. [reverse_queue] defaults to [queue]. [mean_pktsize]
    (default 1000) calibrates RED's idle-time aging. *)
val create :
  Engine.Runtime.t ->
  bandwidth:float ->
  delay:float ->
  queue:queue_spec ->
  ?reverse_queue:queue_spec ->
  ?mean_pktsize:int ->
  unit ->
  t

val runtime : t -> Engine.Runtime.t

(** The underlying graph: routers 0 and 1, edges 0 (forward) and 1
    (reverse). *)
val topology : t -> Topology.t

(** [add_flow t ~flow ~rtt_base] registers a flow whose base round-trip
    time (excluding queueing) is [rtt_base]. The access delay on each of
    the four access segments is [(rtt_base / 2 - delay) / 2]; [rtt_base]
    must be at least [2 * delay]. Raises if the flow id is taken. *)
val add_flow : t -> flow:int -> rtt_base:float -> unit

val set_src_recv : t -> flow:int -> Packet.handler -> unit
val set_dst_recv : t -> flow:int -> Packet.handler -> unit

(** [src_sender t ~flow] injects packets at the left (data direction);
    [dst_sender] at the right (ack/feedback direction). Both raise if the
    flow is unknown. *)
val src_sender : t -> flow:int -> Packet.handler

val dst_sender : t -> flow:int -> Packet.handler

val forward_link : t -> Link.t
val reverse_link : t -> Link.t

(** Loss fraction at the forward bottleneck queue so far. *)
val forward_drop_rate : t -> float

(** Number of access-segment deliveries currently scheduled but not yet
    fired. *)
val in_flight : t -> int

(** [teardown t] cancels every pending access-segment delivery, so no
    packet fires into an endpoint after the scenario has stopped. The
    topology remains usable (subsequent sends schedule normally). *)
val teardown : t -> unit
