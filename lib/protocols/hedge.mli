(** Hedged quorum requests of {!Replicated_store}: the per-peer
    reply-latency record that sets when a straggling request is hedged,
    and the choice of backup replicas it is duplicated to.  Pure
    bookkeeping: no RNG draws and no events. *)

type t
(** The hedging policy of a {!Client_config.routing} and, when it has
    [hedge] on, a ring of the 32 most recent reply latencies per peer. *)

val create : Client_config.routing -> int -> t
(** A tracker for peers [\[0, n)] with empty rings.  With
    [routing.hedge] off it allocates no rings and records nothing.
    Raises [Invalid_argument] unless [hedge_quantile] lies in (0, 1)
    and [hedge_floor >= 0], whether or not [hedge] is on. *)

val record : t -> peer:int -> float -> unit
(** Add a reply latency to [peer]'s ring; once the ring holds 32
    samples each new one overwrites the oldest. *)

val delay : t -> Quorum.Bitset.t -> float
(** The hedge delay of an attempt still waiting on the peers in the
    set: the worst, over those peers, of the nearest-rank
    [routing.hedge_quantile] of the peer's ring (the
    [ceil (q * len)]-th smallest of its [len] samples), and never less
    than [routing.hedge_floor].  Peers without samples contribute
    nothing, so with no samples at all the delay is the floor. *)

val pick_backups :
  view:Quorum.Bitset.t ->
  targets:Quorum.Bitset.t ->
  limit:int ->
  Quorum.Bitset.t ->
  (int -> unit) ->
  unit
(** [pick_backups ~view ~targets ~limit stragglers send] gives each
    straggler, in ascending order, a distinct backup: the lowest peer
    below [limit] that is in [view] (the client's unsuspected set) and
    not yet in [targets].  Each backup is added to [targets], then
    passed to [send].  Stragglers left once candidates run out get
    none. *)
