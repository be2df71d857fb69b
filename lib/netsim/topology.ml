type node = int

type edge = {
  eid : int;
  esrc : node;
  edst : node;
  link : Link.t;
  mutable cost : float option; (* explicit override; None = cost model *)
}

type cost_model = Hop | Delay

(* A flow attached at two routers. Each end reaches its router over an
   access segment of [access] seconds; [reverse], when set, carries the
   flow's feedback over one direct hop of that delay instead of through
   the graph. *)
type flow_info = {
  fid : int;
  fsrc : node;
  fdst : node;
  access : float;
  always_schedule : bool;
  reverse : float option;
  mutable src_recv : Packet.handler;
  mutable dst_recv : Packet.handler;
}

(* Per-packet forwarding state, installed at injection and removed when
   the packet leaves the graph at its destination router, on any drop
   (queue, outage or TTL), or when the packet turns out to be unroutable.
   Keyed by the packet's runtime-unique id. The TTL counts router hops
   taken under one set of routing tables ([epoch] = the recompute it was
   last reset at): a route change mid-flight legitimately sends a packet
   back the way it came, but within one shortest-path table a path never
   revisits a router. *)
type target = {
  tflow : flow_info;
  fwd : bool;
  mutable ttl : int;
  mutable epoch : int;
}

type impact_kind = Partitioned | Rerouted | Unaffected

(* Packet ids and timer tokens are dense small ints: hashing them by
   identity spreads them evenly over the buckets without a call into the
   polymorphic hash. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)

type t = {
  rt : Engine.Runtime.t;
  cost_model : cost_model;
  mutable n_nodes : int;
  mutable adj : edge list array; (* out-edges, most recent first *)
  mutable by_id : edge array; (* edges indexed by id *)
  mutable n_edges : int;
  flows : flow_info Itbl.t;
  targets : target Itbl.t;
  (* Routing tables: entry [u * n_nodes + d] is the id of [u]'s next edge
     toward [d], or -1. [next_up] uses only up links; [next_all] ignores
     link state and is the fallback that keeps traffic heading into a
     failed link when no alternate path exists, so it blackholes at the
     outage's ingress. *)
  mutable next_up : int array;
  mutable next_all : int array;
  mutable dirty : bool;
  mutable recomputes : int;
  (* Pending access-segment deliveries, cancellable at teardown. *)
  pending : Engine.Runtime.handle Itbl.t;
  mutable next_token : int;
}

let create ?(cost_model = Hop) rt () =
  {
    rt;
    cost_model;
    n_nodes = 0;
    adj = Array.make 8 [];
    by_id = [||];
    n_edges = 0;
    flows = Itbl.create 32;
    targets = Itbl.create 256;
    next_up = [||];
    next_all = [||];
    dirty = true;
    recomputes = 0;
    pending = Itbl.create 64;
    next_token = 0;
  }

let runtime t = t.rt
let n_nodes t = t.n_nodes
let recomputes t = t.recomputes
let invalidate t = t.dirty <- true

let add_node t =
  let n = t.n_nodes in
  if n = Array.length t.adj then begin
    let bigger = Array.make (2 * n) [] in
    Array.blit t.adj 0 bigger 0 n;
    t.adj <- bigger
  end;
  t.n_nodes <- n + 1;
  (* The routing tables are sized by the node count. *)
  t.dirty <- true;
  n

let check_node t v name =
  if v < 0 || v >= t.n_nodes then
    invalid_arg (Printf.sprintf "Topology.%s: unknown node %d" name v)

(* --- routing -------------------------------------------------------------- *)

(* Shortest-path recomputation: one Dijkstra per destination over the
   reversed graph (small graphs; selection-based extract-min is plenty),
   then each node's next hop is its out-edge minimizing
   [cost e + dist (edst e)], ties broken by lowest edge id so routes are
   deterministic. *)

let edge_cost t e =
  match e.cost with
  | Some c -> c
  | None -> ( match t.cost_model with Hop -> 1. | Delay -> Link.delay e.link)

let edge_usable up_only e = (not up_only) || Link.is_up e.link

let fill_table t ~up_only table =
  let n = t.n_nodes in
  let in_edges = Array.make (max n 1) [] in
  for id = t.n_edges - 1 downto 0 do
    let e = t.by_id.(id) in
    if edge_usable up_only e then in_edges.(e.edst) <- e :: in_edges.(e.edst)
  done;
  let by_id a b = compare a.eid b.eid in
  let out_sorted =
    Array.init n (fun u ->
        List.sort by_id (List.filter (edge_usable up_only) t.adj.(u)))
  in
  let dist = Array.make (max n 1) infinity in
  let visited = Array.make (max n 1) false in
  for d = 0 to n - 1 do
    Array.fill dist 0 n infinity;
    Array.fill visited 0 n false;
    dist.(d) <- 0.;
    (try
       for _ = 0 to n - 1 do
         (* extract-min over unvisited nodes *)
         let u = ref (-1) in
         for v = 0 to n - 1 do
           if (not visited.(v)) && (!u < 0 || dist.(v) < dist.(!u)) then u := v
         done;
         if !u < 0 || dist.(!u) = infinity then raise Exit;
         visited.(!u) <- true;
         (* relax reversed edges: e runs esrc -> edst = !u in the real
            graph, so it improves dist from esrc. *)
         List.iter
           (fun e ->
             let c = dist.(!u) +. edge_cost t e in
             if c < dist.(e.esrc) then dist.(e.esrc) <- c)
           in_edges.(!u)
       done
     with Exit -> ());
    for u = 0 to n - 1 do
      if u <> d && dist.(u) < infinity then begin
        let best = ref None in
        List.iter
          (fun e ->
            let c = edge_cost t e +. dist.(e.edst) in
            match !best with
            | Some (bc, _) when bc <= c -> ()
            | _ -> best := Some (c, e))
          out_sorted.(u);
        match !best with
        | Some (_, e) -> table.((u * n) + d) <- e.eid
        | None -> ()
      end
    done
  done

let recompute t =
  let n = t.n_nodes in
  t.next_up <- Array.make (n * n) (-1);
  t.next_all <- Array.make (n * n) (-1);
  fill_table t ~up_only:true t.next_up;
  fill_table t ~up_only:false t.next_all;
  t.recomputes <- t.recomputes + 1;
  t.dirty <- false

let ensure_routes t = if t.dirty then recompute t

(* Id of [u]'s next edge toward [d], or -1 when [d] is unreachable. The
   tables must be current. *)
let next_edge t u d =
  let i = (u * t.n_nodes) + d in
  let e = t.next_up.(i) in
  if e >= 0 then e else t.next_all.(i)

(* --- packet movement ------------------------------------------------------ *)

let delayed t d f =
  let k = t.next_token in
  t.next_token <- k + 1;
  let h =
    Engine.Runtime.after t.rt d (fun () ->
        Itbl.remove t.pending k;
        f ())
  in
  Itbl.add t.pending k h

(* Access and direct-reverse segments: a zero-delay segment is crossed
   synchronously unless the flow asks for every segment to be a
   scheduler event. *)
let scheduled fi d = d > 0. || fi.always_schedule

let loop_ev t node (pkt : Packet.t) =
  let tr = Engine.Runtime.trace t.rt in
  if Engine.Trace.active tr then
    Engine.Trace.emit tr ~time:(Engine.Runtime.now t.rt)
      (Topo_loop { node; id = pkt.id; flow = pkt.flow })

let deliver fi ~fwd pkt = if fwd then fi.dst_recv pkt else fi.src_recv pkt

let arrive t node (pkt : Packet.t) =
  match Itbl.find t.targets pkt.id with
  | exception Not_found ->
      () (* unrouted packet: silently discarded *)
  | tg ->
      let fi = tg.tflow and fwd = tg.fwd in
      if node = if fwd then fi.fdst else fi.fsrc then begin
        (* Leave the graph over the destination's access segment. *)
        Itbl.remove t.targets pkt.id;
        if scheduled fi fi.access then
          delayed t fi.access (fun () -> deliver fi ~fwd pkt)
        else deliver fi ~fwd pkt
      end
      else begin
        ensure_routes t;
        if tg.epoch <> t.recomputes then begin
          tg.epoch <- t.recomputes;
          tg.ttl <- t.n_nodes
        end;
        if tg.ttl <= 0 then begin
          (* Forwarding loop: impossible while routes come from a shortest-
             path tree, so any occurrence is a routing bug. The trace event
             trips the invariant checker's topo-loop-free rule. *)
          Itbl.remove t.targets pkt.id;
          loop_ev t node pkt
        end
        else begin
          tg.ttl <- tg.ttl - 1;
          let e = next_edge t node (if fwd then fi.fdst else fi.fsrc) in
          if e < 0 then Itbl.remove t.targets pkt.id (* statically unreachable *)
          else Link.send t.by_id.(e).link pkt
        end
      end

(* --- construction --------------------------------------------------------- *)

let add_link t ~src ~dst ?cost link =
  check_node t src "add_link";
  check_node t dst "add_link";
  let e = { eid = t.n_edges; esrc = src; edst = dst; link; cost } in
  if e.eid = Array.length t.by_id then begin
    let bigger = Array.make (max 8 (2 * e.eid)) e in
    Array.blit t.by_id 0 bigger 0 e.eid;
    t.by_id <- bigger
  end;
  t.by_id.(e.eid) <- e;
  t.adj.(src) <- e :: t.adj.(src);
  t.n_edges <- t.n_edges + 1;
  t.dirty <- true;
  Link.set_dest link (fun pkt -> arrive t dst pkt);
  (* A dropped packet is dead: forget its forwarding state. *)
  Link.on_drop link (fun pkt -> Itbl.remove t.targets pkt.Packet.id);
  Link.on_state_change link (fun _ -> t.dirty <- true);
  e

let set_cost t e c =
  e.cost <- Some c;
  t.dirty <- true

let edges t = List.init t.n_edges (fun i -> t.by_id.(i))
let edge_id e = e.eid
let edge_src e = e.esrc
let edge_dst e = e.edst
let edge_link e = e.link

let find_link t label =
  List.find_map
    (fun e -> if Link.label e.link = label then Some (e.link, e) else None)
    (edges t)

(* --- flows ---------------------------------------------------------------- *)

let mem_flow t flow = Itbl.mem t.flows flow

let add_flow t ~flow ~src ~dst ?(always_schedule = false) ?reverse access =
  check_node t src "add_flow";
  check_node t dst "add_flow";
  if mem_flow t flow then
    invalid_arg (Printf.sprintf "Topology.add_flow: flow %d already exists" flow);
  if access < 0. || Option.fold ~none:false ~some:(fun d -> d < 0.) reverse
  then invalid_arg "Topology.add_flow: negative delay";
  Itbl.replace t.flows flow
    {
      fid = flow;
      fsrc = src;
      fdst = dst;
      access;
      always_schedule;
      reverse;
      src_recv = ignore;
      dst_recv = ignore;
    }

let find t flow =
  match Itbl.find t.flows flow with
  | fi -> fi
  | exception Not_found ->
      invalid_arg (Printf.sprintf "Topology: unknown flow %d" flow)

let set_src_recv t ~flow h = (find t flow).src_recv <- h
let set_dst_recv t ~flow h = (find t flow).dst_recv <- h

let inject t fi ~fwd pkt =
  Itbl.replace t.targets pkt.Packet.id
    { tflow = fi; fwd; ttl = t.n_nodes; epoch = t.recomputes };
  let router = if fwd then fi.fsrc else fi.fdst in
  if scheduled fi fi.access then
    delayed t fi.access (fun () -> arrive t router pkt)
  else arrive t router pkt

let src_sender t ~flow =
  let fi = find t flow in
  fun pkt -> inject t fi ~fwd:true pkt

let dst_sender t ~flow =
  let fi = find t flow in
  match fi.reverse with
  | None -> fun pkt -> inject t fi ~fwd:false pkt
  | Some d ->
      fun pkt ->
        if scheduled fi d then delayed t d (fun () -> fi.src_recv pkt)
        else fi.src_recv pkt

let in_flight t = Itbl.length t.pending

let teardown t =
  Itbl.iter (fun _ h -> Engine.Runtime.cancel h) t.pending;
  Itbl.reset t.pending;
  Itbl.reset t.targets

(* --- routing / impact queries --------------------------------------------- *)

let route t ~src ~dst =
  check_node t src "route";
  check_node t dst "route";
  ensure_routes t;
  let rec walk acc u budget =
    if u = dst then Some (List.rev acc)
    else if budget <= 0 then None
    else
      let e = t.next_up.((u * t.n_nodes) + dst) in
      if e < 0 then None
      else
        let e = t.by_id.(e) in
        walk (e :: acc) e.edst (budget - 1)
  in
  walk [] src t.n_nodes

(* Reachability over up links with one edge excised, by breadth-first
   search — the counterfactual a link failure poses. *)
let reachable_without t ~without ~src ~dst =
  let seen = Array.make (max t.n_nodes 1) false in
  let q = Queue.create () in
  seen.(src) <- true;
  Queue.add src q;
  let found = ref false in
  while (not !found) && not (Queue.is_empty q) do
    let u = Queue.pop q in
    if u = dst then found := true
    else
      List.iter
        (fun e ->
          if e.eid <> without.eid && edge_usable true e && not seen.(e.edst)
          then begin
            seen.(e.edst) <- true;
            Queue.add e.edst q
          end)
        t.adj.(u)
  done;
  !found || src = dst

let flow_uses t e ~src ~dst =
  match route t ~src ~dst with
  | None -> false
  | Some path -> List.exists (fun e' -> e'.eid = e.eid) path

let impact t e =
  ensure_routes t;
  let flows =
    Itbl.fold (fun _ fi acc -> fi :: acc) t.flows []
    |> List.sort (fun a b -> compare a.fid b.fid)
  in
  List.map
    (fun fi ->
      let fwd = flow_uses t e ~src:fi.fsrc ~dst:fi.fdst in
      (* A direct reverse hop never crosses the graph. *)
      let bwd =
        fi.reverse = None && flow_uses t e ~src:fi.fdst ~dst:fi.fsrc
      in
      let kind =
        if not (fwd || bwd) then Unaffected
        else if
          (fwd && not (reachable_without t ~without:e ~src:fi.fsrc ~dst:fi.fdst))
          || bwd
             && not (reachable_without t ~without:e ~src:fi.fdst ~dst:fi.fsrc)
        then Partitioned
        else Rerouted
      in
      (fi.fid, kind))
    flows

let impact_str = function
  | Partitioned -> "partitioned"
  | Rerouted -> "rerouted"
  | Unaffected -> "unaffected"
