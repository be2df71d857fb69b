(** Arbitrary-topology network layer: a directed graph of routers joined
    by queued {!Link}s (bandwidth + queue discipline + propagation delay,
    the congestible hops). Multi-queue routers arise naturally: a router
    with several outgoing links owns one queue per link, and each queue
    keeps its own conservation counters, so the invariant checker's
    queue-conservation rule holds per queue across the graph.

    Hosts are not nodes. A flow attaches to a source router and a
    destination router; each end reaches its router over a pure-delay
    access segment (an over-provisioned stub link). Attaching a flow
    leaves the routing tables alone, so routing cost does not grow with
    the number of flows.

    Forwarding is per-hop: packets follow static shortest-path routes
    (Dijkstra over configurable link costs, deterministic lowest-edge-id
    tie-break), read from dense per-(router, destination) tables. Routes
    are recomputed lazily whenever a link changes up/down state, so
    {!Faults.outage} and flapping actually shift traffic onto alternate
    paths when one exists. When no up path remains, packets fall back to
    the full-graph route and blackhole at the failed link's ingress.

    {!impact} answers the planning-side question a failure poses: which
    flows does losing this edge partition (no alternate path) and which
    merely re-route. *)

type node = int
type t

(** An edge of the graph; compare with {!edge_id}. *)
type edge

(** Default per-edge cost when none is given explicitly: [Hop] counts
    edges; [Delay] reads each edge's propagation delay at recompute time
    (so a {!Faults.route_change} that alters a link's delay shifts routes
    after {!invalidate}). *)
type cost_model = Hop | Delay

type impact_kind = Partitioned | Rerouted | Unaffected

(** [create ?cost_model rt ()] makes an empty graph on the given sans-IO
    runtime (use [Engine.Sim.runtime sim] under the simulator).
    [cost_model] defaults to [Hop]. *)
val create : ?cost_model:cost_model -> Engine.Runtime.t -> unit -> t

val runtime : t -> Engine.Runtime.t

(** [add_node t] returns a fresh router (0, 1, 2, …) and invalidates the
    routing tables. *)
val add_node : t -> node

val n_nodes : t -> int

(** [add_link t ~src ~dst ?cost link] adds a unidirectional queued edge
    carried by [link]. The topology takes over the link's destination
    handler and registers drop/state-change listeners; callers may still
    add their own drop listeners and drive faults at the link. *)
val add_link : t -> src:node -> dst:node -> ?cost:float -> Link.t -> edge

(** [set_cost t e c] overrides the edge's cost and invalidates routes. *)
val set_cost : t -> edge -> float -> unit

(** Mark routing tables stale; the next packet (or query) recomputes them.
    Needed only for changes the topology cannot observe itself, e.g. a
    [Faults.route_change] delay shift under the [Delay] cost model. *)
val invalidate : t -> unit

(** Number of routing recomputations so far (tests assert outages
    actually trigger one). *)
val recomputes : t -> int

(** Edges in creation order. *)
val edges : t -> edge list

val edge_id : edge -> int
val edge_src : edge -> node
val edge_dst : edge -> node

val edge_link : edge -> Link.t

(** [find_link t label] finds an edge by its link's trace label. *)
val find_link : t -> string -> (Link.t * edge) option

(** [add_flow t ~flow ~src ~dst access] attaches a flow whose source
    reaches router [src], and whose destination router [dst], over an
    access segment of [access] seconds each way. A zero-delay segment is
    crossed synchronously unless [always_schedule] (default false) makes
    every segment a scheduler event. [reverse], when given, carries the
    flow's feedback ({!dst_sender}) over one direct hop of that delay
    instead of through the graph. Raises if the flow id is taken or a
    delay is negative. *)
val add_flow :
  t ->
  flow:int ->
  src:node ->
  dst:node ->
  ?always_schedule:bool ->
  ?reverse:float ->
  float ->
  unit

val mem_flow : t -> int -> bool

val set_src_recv : t -> flow:int -> Packet.handler -> unit
val set_dst_recv : t -> flow:int -> Packet.handler -> unit

(** [src_sender t ~flow] injects packets at the flow's source, routed to
    its destination ([dst_sender] the reverse). Unroutable packets are
    silently discarded. Raises if the flow is unknown. *)
val src_sender : t -> flow:int -> Packet.handler

val dst_sender : t -> flow:int -> Packet.handler

(** [route t ~src ~dst] is the current up-links-only shortest path, or
    [None] when [dst] is unreachable. *)
val route : t -> src:node -> dst:node -> edge list option

(** [impact t e] classifies every flow against the hypothetical failure of
    edge [e], in flow-id order: [Partitioned] if the flow's forward or
    reverse path uses [e] and no alternate up path exists, [Rerouted] if it
    uses [e] but can detour, [Unaffected] otherwise. Pure query — no
    link state is touched. *)
val impact : t -> edge -> (int * impact_kind) list

val impact_str : impact_kind -> string

(** Pending access-segment deliveries not yet fired. *)
val in_flight : t -> int

(** [teardown t] cancels pending access-segment deliveries and forgets
    per-packet forwarding state. *)
val teardown : t -> unit
