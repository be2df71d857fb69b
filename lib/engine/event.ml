(* The trace event schema and the views derived from it. One table gives
   each constructor's index (the digest's tag), cat and name; one traversal
   gives its fields in declaration order under their JSON keys. The JSONL
   line and the digest both walk that traversal, so they cannot disagree on
   which fields an event has or in what order. *)

type drop_reason = Queue | Outage

type t =
  | Sim_created
  | Sim_sweep of { before : int; after : int }
  | Sim_budget_exhausted of { detail : string }
  | Sim_run_start of { until : float }
  | Sim_run_end of { pending : int }
  | Link_send of { link : string; id : int; flow : int; seq : int; size : int }
  | Link_deliver of { link : string; id : int; flow : int; seq : int; size : int }
  | Link_drop of {
      link : string;
      id : int;
      flow : int;
      seq : int;
      size : int;
      reason : drop_reason;
    }
  | Link_queue of {
      link : string;
      arrivals : int;
      departures : int;
      drops : int;
      queued : int;
    }
  | Link_up of { link : string }
  | Link_down of { link : string }
  | Topo_loop of { node : int; id : int; flow : int }
  | Fault_outage_start of { link : string; duration : float }
  | Fault_outage_end of { link : string }
  | Fault_route_change of { link : string; bandwidth : float; delay : float }
  | Queue_sample of { len : int }
  | Tfrc_start of {
      flow : int;
      rate : float;
      s : float;
      min_rate : float;
      rv : bool;
      t_mbi : float;
    }
  | Tfrc_rate_update of {
      flow : int;
      rate : float;
      prev_rate : float;
      recv_rate : float;
      p : float;
      rtt : float;
    }
  | Tfrc_nofb_expiry of {
      flow : int;
      rate : float;
      interval : float;
      consecutive : int;
    }
  | Tfrc_feedback of {
      flow : int;
      p : float;
      recv_rate : float;
      n_closed : int;
      avg_interval : float;
    }
  | Exp_job of { key : string; status : string; attempts : int; wall_s : float }
  | Exp_report of {
      total : int;
      ok : int;
      resumed : int;
      retried : int;
      timed_out : int;
      failed : int;
      wall_s : float;
    }
  | Wire_loop_created of { mode : string }
  | Wire_sweep of { before : int; after : int }
  | Wire_settle_giveup of { inflight : int }
  | Wire_run_start of { until : float }
  | Wire_run_end of { pending : int }
  | Wire_decode_error of { error : string }
  | Wire_sup_transition of { flow : int; from : string; to_ : string; epoch : int }
  | Wire_rx_error of { errno : string }
  | Wire_tx_drop of { errno : string }
  | Wire_tx_error of { errno : string }
  | Wire_faultio of { op : string; kind : string }

let reason_name = function Queue -> "queue" | Outage -> "outage"

let kind = function
  | Sim_created -> (0, "sim", "created")
  | Sim_sweep _ -> (1, "sim", "sweep")
  | Sim_budget_exhausted _ -> (2, "sim", "budget_exhausted")
  | Sim_run_start _ -> (3, "sim", "run_start")
  | Sim_run_end _ -> (4, "sim", "run_end")
  | Link_send _ -> (5, "link", "send")
  | Link_deliver _ -> (6, "link", "deliver")
  | Link_drop _ -> (7, "link", "drop")
  | Link_queue _ -> (8, "link", "queue")
  | Link_up _ -> (9, "link", "up")
  | Link_down _ -> (10, "link", "down")
  | Topo_loop _ -> (11, "topo", "loop")
  | Fault_outage_start _ -> (12, "fault", "outage_start")
  | Fault_outage_end _ -> (13, "fault", "outage_end")
  | Fault_route_change _ -> (14, "fault", "route_change")
  | Queue_sample _ -> (15, "queue", "sample")
  | Tfrc_start _ -> (16, "tfrc", "start")
  | Tfrc_rate_update _ -> (17, "tfrc", "rate_update")
  | Tfrc_nofb_expiry _ -> (18, "tfrc", "nofb_expiry")
  | Tfrc_feedback _ -> (19, "tfrc", "feedback")
  | Exp_job _ -> (20, "exp", "job")
  | Exp_report _ -> (21, "exp", "report")
  | Wire_loop_created _ -> (22, "wire", "loop_created")
  | Wire_sweep _ -> (23, "wire", "sweep")
  | Wire_settle_giveup _ -> (24, "wire", "settle_giveup")
  | Wire_run_start _ -> (25, "wire", "run_start")
  | Wire_run_end _ -> (26, "wire", "run_end")
  | Wire_decode_error _ -> (27, "wire", "decode_error")
  | Wire_sup_transition _ -> (28, "wire", "sup_transition")
  | Wire_rx_error _ -> (29, "wire", "rx_error")
  | Wire_tx_drop _ -> (30, "wire", "tx_drop")
  | Wire_tx_error _ -> (31, "wire", "tx_error")
  | Wire_faultio _ -> (32, "wire", "faultio")

let names ev =
  let _, cat, name = kind ev in
  (cat, name)

(* --- Fields -------------------------------------------------------------- *)

(* One callback per field type: key, value, accumulator. *)
type 'a visitor = {
  int : string -> int -> 'a -> 'a;
  float : string -> float -> 'a -> 'a;
  str : string -> string -> 'a -> 'a;
  bool : string -> bool -> 'a -> 'a;
}

let pkt v link id flow seq size acc =
  acc |> v.str "link" link |> v.int "id" id |> v.int "flow" flow |> v.int "seq" seq
  |> v.int "size" size

(* Each field of [ev] in declaration order, under its JSON key. *)
let fields v ev acc =
  match ev with
  | Sim_created -> acc
  | Sim_sweep { before; after } | Wire_sweep { before; after } ->
      acc |> v.int "before" before |> v.int "after" after
  | Sim_budget_exhausted { detail } -> acc |> v.str "detail" detail
  | Sim_run_start { until } | Wire_run_start { until } -> acc |> v.float "until" until
  | Sim_run_end { pending } | Wire_run_end { pending } -> acc |> v.int "pending" pending
  | Link_send { link; id; flow; seq; size } | Link_deliver { link; id; flow; seq; size }
    ->
      pkt v link id flow seq size acc
  | Link_drop { link; id; flow; seq; size; reason } ->
      pkt v link id flow seq size acc |> v.str "reason" (reason_name reason)
  | Link_queue { link; arrivals; departures; drops; queued } ->
      acc |> v.str "link" link |> v.int "arrivals" arrivals
      |> v.int "departures" departures |> v.int "drops" drops |> v.int "queued" queued
  | Link_up { link } | Link_down { link } | Fault_outage_end { link } ->
      acc |> v.str "link" link
  | Topo_loop { node; id; flow } ->
      acc |> v.int "node" node |> v.int "id" id |> v.int "flow" flow
  | Fault_outage_start { link; duration } ->
      acc |> v.str "link" link |> v.float "duration" duration
  | Fault_route_change { link; bandwidth; delay } ->
      acc |> v.str "link" link |> v.float "bandwidth" bandwidth |> v.float "delay" delay
  | Queue_sample { len } -> acc |> v.int "len" len
  | Tfrc_start { flow; rate; s; min_rate; rv; t_mbi } ->
      acc |> v.int "flow" flow |> v.float "rate" rate |> v.float "s" s
      |> v.float "min_rate" min_rate |> v.bool "rv" rv |> v.float "t_mbi" t_mbi
  | Tfrc_rate_update { flow; rate; prev_rate; recv_rate; p; rtt } ->
      acc |> v.int "flow" flow |> v.float "rate" rate |> v.float "prev_rate" prev_rate
      |> v.float "recv_rate" recv_rate |> v.float "p" p |> v.float "rtt" rtt
  | Tfrc_nofb_expiry { flow; rate; interval; consecutive } ->
      acc |> v.int "flow" flow |> v.float "rate" rate |> v.float "interval" interval
      |> v.int "consecutive" consecutive
  | Tfrc_feedback { flow; p; recv_rate; n_closed; avg_interval } ->
      acc |> v.int "flow" flow |> v.float "p" p |> v.float "recv_rate" recv_rate
      |> v.int "n_closed" n_closed |> v.float "avg_interval" avg_interval
  | Exp_job { key; status; attempts; wall_s } ->
      acc |> v.str "key" key |> v.str "status" status |> v.int "attempts" attempts
      |> v.float "wall_s" wall_s
  | Exp_report { total; ok; resumed; retried; timed_out; failed; wall_s } ->
      acc |> v.int "total" total |> v.int "ok" ok |> v.int "resumed" resumed
      |> v.int "retried" retried |> v.int "timed_out" timed_out |> v.int "failed" failed
      |> v.float "wall_s" wall_s
  | Wire_loop_created { mode } -> acc |> v.str "mode" mode
  | Wire_settle_giveup { inflight } -> acc |> v.int "inflight" inflight
  | Wire_decode_error { error } -> acc |> v.str "error" error
  | Wire_sup_transition { flow; from; to_; epoch } ->
      acc |> v.int "flow" flow |> v.str "from" from |> v.str "to" to_
      |> v.int "epoch" epoch
  | Wire_rx_error { errno } | Wire_tx_drop { errno } | Wire_tx_error { errno } ->
      acc |> v.str "errno" errno
  | Wire_faultio { op; kind } -> acc |> v.str "op" op |> v.str "kind" kind

(* --- JSON ---------------------------------------------------------------- *)

let add_escaped b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let add_float b f =
  if Float.is_nan f then Buffer.add_string b "null"
  else if f = Float.infinity then Buffer.add_string b "1e999"
  else if f = Float.neg_infinity then Buffer.add_string b "-1e999"
  else Buffer.add_string b (Printf.sprintf "%.12g" f)

(* Keys, cats and names are fixed identifiers that need no escaping. *)
let add_key b k =
  Buffer.add_string b ",\"";
  Buffer.add_string b k;
  Buffer.add_string b "\":"

let json =
  {
    int =
      (fun k x b ->
        add_key b k;
        Buffer.add_string b (string_of_int x);
        b);
    float =
      (fun k x b ->
        add_key b k;
        add_float b x;
        b);
    str =
      (fun k x b ->
        add_key b k;
        Buffer.add_char b '"';
        add_escaped b x;
        Buffer.add_char b '"';
        b);
    bool =
      (fun k x b ->
        add_key b k;
        Buffer.add_string b (string_of_bool x);
        b);
  }

let to_json ~time ev =
  let b = Buffer.create 160 in
  let _, cat, name = kind ev in
  Buffer.add_string b "{\"t\":";
  add_float b time;
  Buffer.add_string b ",\"cat\":\"";
  Buffer.add_string b cat;
  Buffer.add_string b "\",\"ev\":\"";
  Buffer.add_string b name;
  Buffer.add_char b '"';
  Buffer.add_char (fields json ev b) '}';
  Buffer.contents b

(* --- Digest -------------------------------------------------------------- *)

(* FNV-1a with whole words in place of bytes: xor, then multiply by the
   64-bit FNV prime (mod 2^63). Both steps are bijections of the state, so
   two streams that differ in exactly one mixed word always end in
   different states. *)
let mix h x = (h lxor x) * 0x100000001b3

let mix_float h f =
  let bits = Int64.bits_of_float f in
  mix
    (mix h (Int64.to_int bits land 0xffff_ffff))
    (Int64.to_int (Int64.shift_right_logical bits 32))

let mix_string h s =
  let h = ref (mix h (String.length s)) in
  for i = 0 to String.length s - 1 do
    h := mix !h (Char.code (String.unsafe_get s i))
  done;
  !h

(* Keys are fixed per constructor, so the tag stands for them. *)
let digest =
  {
    int = (fun _ x h -> mix h x);
    float = (fun _ x h -> mix_float h x);
    str = (fun _ x h -> mix_string h x);
    bool = (fun _ x h -> mix h (Bool.to_int x));
  }

let hash h ~time ev =
  let tag, _, _ = kind ev in
  fields digest ev (mix (mix_float h time) tag)
