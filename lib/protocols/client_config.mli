(** The one client-facing configuration record shared by every quorum
    protocol ({!Replicated_store}, {!Mutex}, {!Reconfig}).

    It holds the client-side tunables a caller sets: failure detector
    period/timeout, routing, durability, operation timeout, retries.
    Build one with {!default} and the [with_*] builders and hand it to
    the protocol's [of_config], its only constructor.

    {[
      let cfg =
        Client_config.(
          default
          |> with_durability (Sim.Durable.config ~fsync_latency:0.5 ())
          |> with_timeout 10.0)
      in
      let store = Replicated_store.of_config ~config:cfg ~read_system ~write_system ()
    ]}

    Not every field is meaningful to every protocol:

    {v
    field        Replicated_store  Mutex             Reconfig
    fd           yes               yes               only with [with_fd]
    routing      yes               no                no
    durability   yes               yes               yes
    timeout      per-op timeout    acquire timeout   per-op timeout
    retries      yes               no (requests      no (fixed NACK
                                   queue instead)    retry budget)
    v}

    Each [of_config] rejects out-of-range values of the fields it
    reads with [Invalid_argument]: the fd fields through
    {!Sim.Failure_detector.create}, routing through {!Hedge.create},
    [timeout] and [retries] itself. *)

type fd = { period : float; timeout : float; accrual : float option }
(** Heartbeat failure detection: beat [period], suspicion [timeout].
    [accrual = Some phi] switches the detector to accrual mode with
    threshold [phi] (window 20, min 5 samples — see
    {!Sim.Failure_detector.mode}); [None] (the default) keeps the
    historical fixed-timeout detector. *)

type routing = {
  hedge : bool;
      (** hedge straggling quorum requests to a backup replica; off by
          default — hedging changes the event schedule, so the default
          keeps runs bit-identical to the pre-hedging store *)
  hedge_quantile : float;
      (** per-peer latency quantile after which a request is hedged
          (default 0.9), in (0, 1) *)
  hedge_floor : float;
      (** never hedge before this many time units (default 2.0, must be
          >= 0) — the cold-start guard while latency samples
          accumulate *)
  degraded_reads : bool;
      (** when no unsuspected write quorum exists, refuse writes
          immediately (degraded read-only mode) instead of burning the
          attempt timeout; reads keep flowing.  Off by default. *)
}
(** Suspicion-aware routing and hedged requests, read by
    {!Replicated_store} only.  With every field at its default the
    store is bit-identical to its pre-routing behaviour: no hedge
    timers are scheduled, no extra sends happen, and completion
    remains "every originally-selected member acked". *)

type t = {
  fd : fd;
  routing : routing;  (** hedging + degraded-mode knobs (store only) *)
  durability : Sim.Durable.config;  (** write-ahead fsync model *)
  timeout : float;  (** per-operation (or acquire) timeout, > 0 *)
  retries : int;  (** quorum re-selection attempts after a timeout, >= 0 *)
}

val default : t
(** The values the protocols have always defaulted to: fd
    [{period = 1.0; timeout = 5.0; accrual = None}], routing all off
    ([{hedge = false; hedge_quantile = 0.9; hedge_floor = 2.0;
    degraded_reads = false}]), instant durability, [timeout = 25.0],
    [retries = 2]. *)

val rpc : wrap:('a Sim.Rpc.msg -> 'wire) -> ('a, 'wire) Sim.Rpc.t
(** The reliable-rpc transport the store and the mutex run on, the
    same for both: initial retransmit timeout 4.0, backoff 1.6,
    dead-letter after 6 attempts (see {!Sim.Rpc.create}). *)

val with_fd : ?period:float -> ?timeout:float -> ?accrual:float -> t -> t

val with_routing :
  ?hedge:bool ->
  ?hedge_quantile:float ->
  ?hedge_floor:float ->
  ?degraded_reads:bool ->
  t ->
  t

val with_durability : Sim.Durable.config -> t -> t
val with_timeout : float -> t -> t
val with_retries : int -> t -> t

val fd_mode : t -> Sim.Failure_detector.mode
(** The {!Sim.Failure_detector.mode} this config implies:
    [Fixed_timeout fd.timeout] when [fd.accrual] is [None], else
    [Accrual] with the configured threshold. *)
