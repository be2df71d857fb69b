(* Structured trace bus: typed events fanned out to pluggable sinks, with an
   optional in-memory ring of the most recent events for post-mortems. A bus
   with no sinks and no ring is inactive and [emit] is a no-op, so
   instrumentation sites guard with [active] and pay one branch when tracing
   is off. *)

type event = { time : float; kind : Event.t }
type sink = { emit : event -> unit; close : unit -> unit }

type t = {
  mutable sinks : sink list;
  mutable ring : event array;
  ring_cap : int;
  mutable ring_pos : int; (* next write position *)
  mutable ring_len : int;
  mutable emitted : int;
}

let create ?(ring = 0) () =
  if ring < 0 then invalid_arg "Trace.create: negative ring size";
  { sinks = []; ring = [||]; ring_cap = ring; ring_pos = 0; ring_len = 0; emitted = 0 }

(* Per-domain bus that every [Sim.create ()] attaches to, so a CLI flag or
   a test can observe simulations it did not build itself. No ring: fully
   inert until a sink is added.

   This used to be a [lazy] global, which is shared mutable state: two
   domains forcing it or mutating [sinks] concurrently would race. Buses are
   deliberately unsynchronised (emit is on the hot path), so instead each
   domain gets its own inert default bus via [Domain.DLS]. Cross-domain
   observation is done above this layer: a parallel runner captures each
   worker's events with a [memory_sink] on the worker's bus and replays them
   on the coordinating domain's bus (see [Exp.Runner]). *)
let default_key = Domain.DLS.new_key (fun () -> create ())
let default () = Domain.DLS.get default_key

let active t = t.sinks <> [] || t.ring_cap > 0

let add_sink t s = t.sinks <- t.sinks @ [ s ]
let remove_sink t s = t.sinks <- List.filter (fun s' -> s' != s) t.sinks

let close t =
  List.iter (fun s -> s.close ()) t.sinks;
  t.sinks <- []

let emitted t = t.emitted

(* Manual fan-out loop: [List.iter] would allocate a closure per event. *)
let rec fanout sinks ev =
  match sinks with
  | [] -> ()
  | s :: rest ->
      s.emit ev;
      fanout rest ev

let emit t ~time kind =
  if active t then begin
    let ev = { time; kind } in
    t.emitted <- t.emitted + 1;
    if t.ring_cap > 0 then begin
      if t.ring = [||] then t.ring <- Array.make t.ring_cap ev;
      t.ring.(t.ring_pos) <- ev;
      t.ring_pos <- (t.ring_pos + 1) mod t.ring_cap;
      if t.ring_len < t.ring_cap then t.ring_len <- t.ring_len + 1
    end;
    fanout t.sinks ev
  end

let recent t =
  List.init t.ring_len (fun i ->
      t.ring.((t.ring_pos - t.ring_len + i + (2 * t.ring_cap)) mod t.ring_cap))

let to_json ev = Event.to_json ~time:ev.time ev.kind

(* --- Sinks --------------------------------------------------------------- *)

let memory_sink () =
  let events = ref [] in
  ( { emit = (fun ev -> events := ev :: !events); close = ignore },
    fun () -> List.rev !events )

let write_json oc ev =
  output_string oc (to_json ev);
  output_char oc '\n'

let jsonl_sink oc = { emit = write_json oc; close = (fun () -> flush oc) }

let file_sink path =
  let oc = open_out path in
  { emit = write_json oc; close = (fun () -> close_out oc) }

let stdout_sink () = jsonl_sink stdout

let ns2_sink ~link oc =
  let lines = ref 0 in
  let line code time ~id ~flow ~seq ~size =
    incr lines;
    Printf.fprintf oc "%s %.6f %d %d %d %d\n" code time flow seq size id
  in
  let emit { time; kind } =
    match kind with
    | Event.Link_deliver { link = l; id; flow; seq; size } when String.equal l link ->
        line "r" time ~id ~flow ~seq ~size
    | Event.Link_drop { link = l; id; flow; seq; size; _ } when String.equal l link ->
        line "d" time ~id ~flow ~seq ~size
    | _ -> ()
  in
  ({ emit; close = (fun () -> flush oc) }, fun () -> !lines)

(* --- Digest -------------------------------------------------------------- *)

let checkpoint_every = 1024

type digest = {
  mutable value : int;
  mutable events : int;
  mutable marks : int array; (* value after every [checkpoint_every] events *)
  mutable n_marks : int;
}

let digest_sink () =
  let d = { value = 0x811c9dc5; events = 0; marks = Array.make 16 0; n_marks = 0 } in
  let emit ev =
    d.value <- Event.hash d.value ~time:ev.time ev.kind;
    d.events <- d.events + 1;
    if d.events land (checkpoint_every - 1) = 0 then begin
      if d.n_marks = Array.length d.marks then begin
        let grown = Array.make (2 * d.n_marks) 0 in
        Array.blit d.marks 0 grown 0 d.n_marks;
        d.marks <- grown
      end;
      d.marks.(d.n_marks) <- d.value;
      d.n_marks <- d.n_marks + 1
    end
  in
  ({ emit; close = ignore }, d)

let digest_value d = d.value
let digest_events d = d.events

type divergence = {
  index : int;
  before : event list;
  a : event option;
  b : event option;
}

let event_hash ev = Event.hash 0 ~time:ev.time ev.kind

(* The events of one replayed run whose indices fall in [lo, lo + n). *)
let window ~lo ~n replay =
  let got = Array.make n None and i = ref 0 in
  replay
    {
      emit =
        (fun ev ->
          let k = !i - lo in
          if k >= 0 && k < n then got.(k) <- Some ev;
          incr i);
      close = ignore;
    };
  got

let first_divergence a b ~replay_a ~replay_b =
  if a.value = b.value && a.events = b.events then None
  else begin
    (* The first checkpoint the runs disagree on closes the window that
       holds the first differing event; with none, it is the window after
       the last checkpoint both runs reached. *)
    let common = min a.n_marks b.n_marks in
    let rec first k = if k < common && a.marks.(k) = b.marks.(k) then first (k + 1) else k in
    let start = first 0 * checkpoint_every in
    let lo = max 0 (start - 2) in
    let n = start - lo + checkpoint_every in
    let wa = window ~lo ~n replay_a and wb = window ~lo ~n replay_b in
    let same x y =
      match (x, y) with
      | Some x, Some y -> event_hash x = event_hash y
      | None, None -> true
      | _ -> false
    in
    let rec scan k =
      if k >= n then None
      else if same wa.(k) wb.(k) then scan (k + 1)
      else
        Some
          {
            index = lo + k;
            before = List.filter_map (fun j -> if j >= 0 then wa.(j) else None) [ k - 2; k - 1 ];
            a = wa.(k);
            b = wb.(k);
          }
    in
    scan (start - lo)
  end

let divergence_report a b ~replay_a ~replay_b =
  let json = function Some ev -> to_json ev | None -> "(end of run)" in
  match first_divergence a b ~replay_a ~replay_b with
  | Some d ->
      Printf.sprintf "first divergence at event %d: A %s, B %s%s; after %s" d.index
        (json d.a) (json d.b)
        (if json d.a = json d.b then " (alike as JSON: a float differs below %.12g)"
         else "")
        (match d.before with
        | [] -> "(start of run)"
        | l -> String.concat " " (List.map to_json l))
  | None ->
      if a.value = b.value && a.events = b.events then "the event streams agree"
      else "replaying the first differing checkpoint window showed no divergence"
