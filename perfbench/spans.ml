(* Outside-in span recorder for the benchmark's traced runs.

   Spans are opened and closed by the benchmark's own wrappers around calls
   into each layer's public functions — the library is never edited. A span
   records its layer and the layer of the span that was open when it
   started (its cause). Aggregates are kept in memory per (layer, cause)
   pair: span count, total time, self time (total minus the time covered by
   child spans) and self minor-heap words. Nothing is written until the run
   ends.

   Timer callbacks are charged to the layer whose span scheduled them: the
   tagging runtime built by [tag_runtime] captures the open layer at [at] /
   [after] time and reopens it around the callback, so work a link
   schedules for later still counts as link work. *)

(* CLOCK_MONOTONIC in nanoseconds, from the stub bechamel ships. Declared
   here unboxed and noalloc so reading the clock allocates nothing. *)
external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let now_ns () = Int64.to_int (clock_ns ())

type layer = int

let root = 0
let sched = 1
let link = 2
let topology = 3
let queue = 4
let tfrc = 5
let tcp = 6
let invariants = 7
let fuzz_gen = 8
let fuzz_oracle = 9
let codec = 10
let shaper = 11

let names =
  [| "root"; "sched"; "link"; "topology"; "queue"; "tfrc"; "tcp";
     "invariants"; "fuzz.gen"; "fuzz.oracle"; "codec"; "shaper" |]

let n_layers = Array.length names
let max_depth = 256

type t = {
  mutable depth : int;  (** index of the open frame; -1 when idle *)
  stack : int array;
  start : int array;
  child_ns : int array;
  start_w : float array;
  child_w : float array;
  count : int array;  (** indexed [layer * n_layers + cause] *)
  total_ns : int array;
  self_ns : int array;
  self_w : float array;
  mutable nest_errors : int;
  mutable wall_ns : int;  (** summed duration of closed root spans *)
}

let create () =
  let pairs = n_layers * n_layers in
  {
    depth = -1;
    stack = Array.make max_depth 0;
    start = Array.make max_depth 0;
    child_ns = Array.make max_depth 0;
    start_w = Array.make max_depth 0.;
    child_w = Array.make max_depth 0.;
    count = Array.make pairs 0;
    total_ns = Array.make pairs 0;
    self_ns = Array.make pairs 0;
    self_w = Array.make pairs 0.;
    nest_errors = 0;
    wall_ns = 0;
  }

let push t l =
  let d = t.depth + 1 in
  if d >= max_depth then failwith "Spans: nesting deeper than max_depth";
  t.depth <- d;
  t.stack.(d) <- l;
  t.child_ns.(d) <- 0;
  t.child_w.(d) <- 0.;
  t.start_w.(d) <- Gc.minor_words ();
  t.start.(d) <- now_ns ()

let enter t l =
  if t.depth < 0 then t.nest_errors <- t.nest_errors + 1;
  push t l

let exit t l =
  let stop = now_ns () in
  let w = Gc.minor_words () in
  let d = t.depth in
  if d < 0 then t.nest_errors <- t.nest_errors + 1
  else begin
    if t.stack.(d) <> l then t.nest_errors <- t.nest_errors + 1;
    let l = t.stack.(d) in
    let total = stop - t.start.(d) in
    let words = w -. t.start_w.(d) in
    let cause = if d = 0 then root else t.stack.(d - 1) in
    let i = (l * n_layers) + cause in
    t.count.(i) <- t.count.(i) + 1;
    t.total_ns.(i) <- t.total_ns.(i) + total;
    t.self_ns.(i) <- t.self_ns.(i) + total - t.child_ns.(d);
    t.self_w.(i) <- t.self_w.(i) +. (words -. t.child_w.(d));
    t.depth <- d - 1;
    if d > 0 then begin
      t.child_ns.(d - 1) <- t.child_ns.(d - 1) + total;
      t.child_w.(d - 1) <- t.child_w.(d - 1) +. words
    end
    else t.wall_ns <- t.wall_ns + total
  end

(* [with_root t f] runs one traced unit of work under a root span; time
   inside it that no layer span covers is the benchmark's own
   (unattributed) time. *)
let with_root t f =
  if t.depth <> -1 then t.nest_errors <- t.nest_errors + 1;
  push t root;
  match f () with
  | v ->
      exit t root;
      v
  | exception e ->
      exit t root;
      raise e

let within t l f x =
  enter t l;
  match f x with
  | v ->
      exit t l;
      v
  | exception e ->
      exit t l;
      raise e

let current t = if t.depth < 0 then root else t.stack.(t.depth)

(* Words the recorder allocates for its own wrappers are moved out of the
   open frame, as if a child span had allocated them, so layer word counts
   are the layer's own. *)
let exclude_words t w = if t.depth >= 0 then t.child_w.(t.depth) <- t.child_w.(t.depth) +. w

let handler t l (h : 'a -> unit) : 'a -> unit = fun x -> within t l h x

let timer t f =
  let l = current t in
  fun () -> within t l f ()

(* A runtime over [base] whose timers are tagged: the push itself is a
   [sched] span, the callback a span of the layer that scheduled it. *)
let tag_runtime t base =
  let tag f =
    let w0 = Gc.minor_words () in
    let g = timer t f in
    exclude_words t (Gc.minor_words () -. w0);
    g
  in
  let at time f =
    let g = tag f in
    enter t sched;
    match Engine.Runtime.at base time g with
    | h ->
        exit t sched;
        h
    | exception e ->
        exit t sched;
        raise e
  in
  let after delay f =
    let g = tag f in
    enter t sched;
    match Engine.Runtime.after base delay g with
    | h ->
        exit t sched;
        h
    | exception e ->
        exit t sched;
        raise e
  in
  Engine.Runtime.make
    ~now:(fun () -> Engine.Runtime.now base)
    ~at ~after
    ~trace:(Engine.Runtime.trace base)
    ~fresh_id:(fun () -> Engine.Runtime.fresh_id base)

let wrap_queue t (q : Netsim.Queue_disc.t) =
  {
    q with
    Netsim.Queue_disc.enqueue = (fun p -> within t queue q.enqueue p);
    dequeue = (fun () -> within t queue q.dequeue ());
    drain = (fun () -> within t queue q.drain ());
  }

let wrap_sink t l (s : Engine.Trace.sink) =
  { s with Engine.Trace.emit = (fun ev -> within t l s.emit ev) }

(* --- reading the aggregates ------------------------------------------- *)

let idx l cause = (l * n_layers) + cause

let sum_over_causes a l =
  let s = ref 0 in
  for c = 0 to n_layers - 1 do
    s := !s + a.(idx l c)
  done;
  !s

let count t l = sum_over_causes t.count l
let self_ns t l = sum_over_causes t.self_ns l

let self_words t l =
  let s = ref 0. in
  for c = 0 to n_layers - 1 do
    s := !s +. t.self_w.(idx l c)
  done;
  !s

(* Timer callbacks are the only spans whose cause is [sched]: the
   scheduler's own [at]/[after] spans have no children. *)
let timer_events t =
  let s = ref 0 in
  for l = 0 to n_layers - 1 do
    s := !s + t.count.(idx l sched)
  done;
  !s

(* Consistency of the recorded spans: every exit matched its enter, the
   recorder is idle, no self time or total is negative, and the layers'
   self times (root excluded) fit inside the traced wall time. *)
let problems t =
  let errs = ref [] in
  let add fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  if t.nest_errors > 0 then add "%d span enter/exit mismatches" t.nest_errors;
  if t.depth <> -1 then add "recorder left %d frames open" (t.depth + 1);
  Array.iteri
    (fun i v ->
      if v < 0 then
        add "negative self time %d ns for %s <- %s" v
          names.(i / n_layers) names.(i mod n_layers))
    t.self_ns;
  Array.iteri
    (fun i v ->
      if v < t.self_ns.(i) then
        add "total < self for %s <- %s" names.(i / n_layers)
          names.(i mod n_layers))
    t.total_ns;
  let layers = ref 0 in
  for l = 1 to n_layers - 1 do
    layers := !layers + self_ns t l
  done;
  if !layers > t.wall_ns then
    add "layer self times %d ns exceed traced wall %d ns" !layers t.wall_ns;
  if !layers + self_ns t root <> t.wall_ns then
    add "self times sum to %d ns, traced wall is %d ns" (!layers + self_ns t root)
      t.wall_ns;
  List.rev !errs

let pp_table oc t =
  Printf.fprintf oc "# spans: layer <- cause, count, total_s, self_s, self_words\n";
  for l = 0 to n_layers - 1 do
    for c = 0 to n_layers - 1 do
      let i = idx l c in
      if t.count.(i) > 0 then
        Printf.fprintf oc "#   %-12s <- %-12s %10d %12.6f %12.6f %14.0f\n" names.(l)
          names.(c) t.count.(i)
          (float_of_int t.total_ns.(i) *. 1e-9)
          (float_of_int t.self_ns.(i) *. 1e-9)
          t.self_w.(i)
    done
  done
