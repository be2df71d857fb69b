(** Structured trace bus.

    Simulation components emit typed events — a time and an {!Event.t} —
    onto a bus, which fans them out to pluggable sinks (JSONL file or
    stdout, ns-2 packet trace, running digest, in-memory for tests) and
    optionally keeps the most recent events in a ring buffer. A bus with no sinks and no ring is inactive:
    [emit] returns immediately, and instrumentation sites guard event
    construction behind {!active}, so tracing costs one branch per site when
    off.

    Every {!Sim.create} attaches to the {!default} bus of the calling domain
    unless told otherwise, which is how [tfrc_sim --trace]/[--check] observe
    simulations built deep inside an experiment, and how
    {!Tfrc.Invariants} audits runs online.

    {2 Threading contract}

    A bus is {b not} thread-safe: [emit], [add_sink], [remove_sink] and
    [close] must all happen on the domain that uses the bus. Synchronising
    the hot [emit] path would tax every traced simulation, so none is done.
    Instead, {!default} is {e domain-local} ([Domain.DLS]): each domain
    lazily gets its own inert bus, and simulations running on a worker
    domain emit to that worker's bus only. To observe events across
    domains, attach a {!memory_sink} to the worker's bus from {e within}
    the worker, then hand the captured event list back to the coordinating
    domain and replay it with {!emit} — this is what [Exp.Runner] does to
    keep [--trace]/[--check] output identical between sequential and
    parallel runs. *)

(** One emitted event: the virtual time it was emitted at and what
    happened, in the {!Event} schema. *)
type event = { time : float; kind : Event.t }

(** A sink receives every event emitted while attached. [close] flushes and
    releases whatever the sink holds; the bus calls it from {!close}. *)
type sink = { emit : event -> unit; close : unit -> unit }

type t

(** [create ?ring ()] makes a bus keeping the last [ring] events in memory
    (default 0: no ring). *)
val create : ?ring:int -> unit -> t

(** The calling domain's default bus. Created lazily per domain
    ([Domain.DLS]), no ring, no sinks: inert until someone attaches a sink.
    Distinct domains see distinct buses — see the threading contract
    above. *)
val default : unit -> t

(** [active t] is true when at least one sink is attached or a ring is
    configured. Guard event construction with this at hot call sites. *)
val active : t -> bool

(** [emit t ~time kind] delivers one event to the ring and all sinks.
    No-op when the bus is inactive. *)
val emit : t -> time:float -> Event.t -> unit

val add_sink : t -> sink -> unit

(** [remove_sink t s] detaches [s] (by physical equality). Does not call
    [s.close]. *)
val remove_sink : t -> sink -> unit

(** [close t] closes and detaches every sink. *)
val close : t -> unit

(** Number of events delivered over the bus's lifetime (while active). *)
val emitted : t -> int

(** The ring contents, oldest first. Empty when the bus has no ring. *)
val recent : t -> event list

(** [memory_sink ()] is a sink plus a function returning everything it has
    received, in emission order. *)
val memory_sink : unit -> sink * (unit -> event list)

(** JSONL sink on an existing channel; [close] flushes but does not close
    the channel. *)
val jsonl_sink : out_channel -> sink

(** JSONL sink writing to [path] (truncates); [close] closes the file. *)
val file_sink : string -> sink

val stdout_sink : unit -> sink

(** [ns2_sink ~link oc] writes an ns-2-style packet trace of the link
    labelled [link] to [oc]: one line ["<code> <time> <flow> <seq> <size>
    <id>"] per packet the link delivered (code [r]) or dropped (code [d]),
    time as [%.6f]. The function returns the number of lines written.
    [close] flushes but does not close the channel. *)
val ns2_sink : link:string -> out_channel -> sink * (unit -> int)

(** One-line JSON rendering ({!Event.to_json}):
    [{"t":…,"cat":"…","ev":"…",<fields>}]. *)
val to_json : event -> string

(** {2 Digests}

    A digest is a running FNV-1a hash of an event stream, mixed field by
    field ({!Event.hash}) without rendering any text. Its contract:
    - equal event streams give equal digests. Two runs with equal JSONL
      streams therefore digest alike, except where a float differs below
      the [%.12g] precision the JSONL prints;
    - the digest is finer than the JSONL: it separates float bit patterns
      that [%.12g] merges, and [0.] from [-0.];
    - any single changed field, constructor or time changes it, and
      reordered events change it except by hash collision.

    A digest also records its value after every 1024 events (about 2k
    ints for a 2M-event run), which lets {!first_divergence} find where
    two runs part without keeping either run's events. *)

type digest

(** [digest_sink ()] is a sink plus the digest of everything it receives,
    in emission order. Allocates nothing per event. *)
val digest_sink : unit -> sink * digest

val digest_value : digest -> int

(** Events digested so far. *)
val digest_events : digest -> int

type divergence = {
  index : int;  (** first event (counted from 0) at which the runs differ *)
  before : event list;  (** up to two events just before [index], run A's *)
  a : event option;  (** run A's event at [index]; [None]: A had ended *)
  b : event option;  (** run B's event at [index]; [None]: B had ended *)
}

(** [first_divergence a b ~replay_a ~replay_b] locates the first event at
    which the runs that produced digests [a] and [b] differ. [None] when
    the digests and event counts agree. Otherwise the first checkpoint the
    digests disagree on bounds a window of 1024 events, and only that
    window of each run is kept: [replay_a sink] must rerun run A with
    [sink] seeing its whole stream, and likewise [replay_b]. [None] too if
    the replays agree within the window, i.e. the difference did not
    recur. *)
val first_divergence :
  digest ->
  digest ->
  replay_a:(sink -> unit) ->
  replay_b:(sink -> unit) ->
  divergence option

(** The same search rendered for a failure report: the index, both
    events and the two before them as JSON. *)
val divergence_report :
  digest -> digest -> replay_a:(sink -> unit) -> replay_b:(sink -> unit) -> string
