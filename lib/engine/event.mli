(** The trace event schema.

    Every kind of event a simulation, a wire loop or the experiment runner
    emits onto a {!Trace} bus is one constructor here, with typed fields.
    Two [match]es over this type describe an event: one table gives each
    constructor's index, cat and name, and one traversal visits its fields
    in declaration order under their JSON keys. Its [(cat, name)] pair
    ({!names}), its JSONL rendering ({!to_json}) and its digest
    contribution ({!hash}) are derived from those two, so the JSONL and the
    digest always see the same fields in the same order. A new event kind
    is a new constructor, and the compiler then points at every place that
    must learn about it.

    The JSON field names and their order are part of the format: trace
    files and golden digests of them depend on both. *)

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
    }  (** a queue discipline's conservation counters *)
  | Link_up of { link : string }
  | Link_down of { link : string }
  | Topo_loop of { node : int; id : int; flow : int }
      (** a packet exhausted its TTL at [node] *)
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
    }  (** a sender's one-shot per-flow constants *)
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

(** [names ev] is the event's [(cat, name)] pair, e.g. [("link", "drop")]:
    the ["cat"] and ["ev"] members of its JSON line. *)
val names : t -> string * string

(** [to_json ~time ev] is the one-line JSON rendering
    [{"t":…,"cat":"…","ev":"…",<fields>}], fields in declaration order.
    Floats print as [%.12g], NaN as [null] and infinities as [±1e999]. *)
val to_json : time:float -> t -> string

(** [hash h ~time ev] mixes one event into the running FNV-1a state [h]:
    [time]'s bit pattern, the constructor's index, then each field
    in declaration order. Ints are mixed whole, floats by their IEEE bit
    pattern (so [0.] and [-0.], or two floats [%.12g] prints alike, mix
    differently), strings by length and then byte by byte. Allocates
    nothing. *)
val hash : int -> time:float -> t -> int
