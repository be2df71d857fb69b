(* Structured trace bus: typed events fanned out to pluggable sinks, with an
   optional in-memory ring of the most recent events for post-mortems. A bus
   with no sinks and no ring is inactive and [emit] is a no-op, so
   instrumentation sites guard with [active] and pay one branch when tracing
   is off. *)

type value = Bool of bool | Int of int | Float of float | Str of string

type event = {
  time : float;
  cat : string;
  name : string;
  fields : (string * value) list;
}

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

let emit t ~time ~cat ~name fields =
  if active t then begin
    let ev = { time; cat; name; fields } in
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

(* --- Field access -------------------------------------------------------- *)

(* These scans are on the checker's per-event hot path: [String.equal]
   (not polymorphic [=], which goes through the generic compare runtime)
   and a direct default return (no intermediate option allocation). *)

let find ev key =
  let rec go = function
    | [] -> None
    | (k, v) :: rest -> if String.equal k key then Some v else go rest
  in
  go ev.fields

let get_float ev key ~default =
  let rec go = function
    | [] -> default
    | (k, v) :: rest ->
        if String.equal k key then
          match v with Float f -> f | Int i -> float_of_int i | _ -> default
        else go rest
  in
  go ev.fields

let get_int ev key ~default =
  let rec go = function
    | [] -> default
    | (k, v) :: rest ->
        if String.equal k key then match v with Int i -> i | _ -> default
        else go rest
  in
  go ev.fields

let get_str ev key ~default =
  let rec go = function
    | [] -> default
    | (k, v) :: rest ->
        if String.equal k key then match v with Str s -> s | _ -> default
        else go rest
  in
  go ev.fields

let get_bool ev key ~default =
  let rec go = function
    | [] -> default
    | (k, v) :: rest ->
        if String.equal k key then match v with Bool b -> b | _ -> default
        else go rest
  in
  go ev.fields

(* --- JSON ---------------------------------------------------------------- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_float f =
  if Float.is_nan f then "null"
  else if f = Float.infinity then "1e999"
  else if f = Float.neg_infinity then "-1e999"
  else Printf.sprintf "%.12g" f

let json_value = function
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Float f -> json_float f
  | Str s -> Printf.sprintf "\"%s\"" (json_escape s)

let to_json ev =
  let fields =
    List.map
      (fun (k, v) -> Printf.sprintf "\"%s\":%s" (json_escape k) (json_value v))
      ev.fields
  in
  Printf.sprintf "{\"t\":%s,\"cat\":\"%s\",\"ev\":\"%s\"%s}" (json_float ev.time)
    (json_escape ev.cat) (json_escape ev.name)
    (match fields with [] -> "" | l -> "," ^ String.concat "," l)

(* --- Sinks --------------------------------------------------------------- *)

let memory_sink () =
  let events = ref [] in
  ( { emit = (fun ev -> events := ev :: !events); close = ignore },
    fun () -> List.rev !events )

let jsonl_sink oc =
  {
    emit =
      (fun ev ->
        output_string oc (to_json ev);
        output_char oc '\n');
    close = (fun () -> flush oc);
  }

let file_sink path =
  let oc = open_out path in
  {
    emit =
      (fun ev ->
        output_string oc (to_json ev);
        output_char oc '\n');
    close = (fun () -> close_out oc);
  }

let stdout_sink () = jsonl_sink stdout

(* FNV-1a over each event's JSON rendering, chained across events. *)
let digest_sink () =
  let digest = ref 0x811c9dc5 in
  let emit ev =
    String.iter
      (fun c -> digest := (!digest lxor Char.code c) * 0x100000001b3)
      (to_json ev)
  in
  ({ emit; close = ignore }, fun () -> !digest)
