(** One-stop chaos-run dashboard: run a protocol through one fault
    scenario with full observability (metrics + trace + spans), analyze
    the recording with {!Obs.Trace_analysis}, and render everything as
    a markdown report.

    The report bundles the chaos summary row, per-operation latency
    percentiles with the critical-path breakdown (network / fsync /
    queueing / retransmit shares), the consistency-audit verdict with
    witnessing evidence, trace-ring health (including a loud warning
    when events were evicted) and the full metrics registry.  Backs
    [quorumctl report] and the [bench latency] target. *)

type protocol = Mutex | Store | Reconfig | Throughput

val protocol_name : protocol -> string
val default_seed : protocol -> int
(** The pinned chaos seeds (mutex 41, store 42, reconfig 43,
    throughput 46), shared with [bench chaos] / [bench throughput] so
    reports and bench rows describe the same runs. *)

type t = {
  protocol : protocol;
  system : string;
  scenario : string;
  seed : int;
  horizon : float;
  summary : string;  (** chaos header + row, fixed width *)
  profiles : Obs.Trace_analysis.op_profile list;
  audit : Obs.Trace_analysis.audit option;
      (** [None] for the mutex (it records no read/write history) *)
  obs : Obs.t;  (** the run's full recording, for further digging *)
}

val run :
  ?seed:int ->
  ?horizon:float ->
  ?trace_capacity:int ->
  ?next:Quorum.System.t ->
  protocol:protocol ->
  system:Quorum.System.t ->
  scenario:string ->
  unit ->
  t
(** Run one seeded chaos scenario (label as in
    {!Chaos.scenario_of_label}; raises [Invalid_argument] on a
    miss) and analyze it.  [seed] defaults to the protocol's pinned
    seed, [horizon] to 400, [trace_capacity] to [2^19] events (big
    enough that standard runs evict nothing), [next] (reconfig only)
    to [system].  The run carries the {!Obs.Prof} engine self-profile,
    rendered as the report's "Engine profile" section — profiling is
    behaviorally inert, so the simulated results are unchanged by it.
    Every root span is kept (no span sampling).  For [Store] and
    [Throughput] the spec is used as both read and write system;
    [Throughput] drives it closed-loop through sessions with the
    default window, batch size and service cost (see
    {!Throughput.run_h}) and its summary row is the throughput row. *)

val to_markdown : t -> string
