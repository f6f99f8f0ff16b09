(** 4-ary min-heap keyed by [(time, sequence)] — the event queue of
    the discrete-event engine.

    {b Layout.}  A struct of parallel arrays: slot [i] holds its key in
    [times.(i)] (a flat [float array]) and [seqs.(i)], and its payload
    in [values.(i)].  Slot [0] is the minimum; slot [i]'s children are
    [4i+1 .. 4i+4].  There is no entry record: {!push} and {!pop}
    allocate nothing beyond the occasional doubling of the arrays.

    {b Order.}  Smallest time first.  The sequence number is assigned
    internally in push order, so simultaneous events pop FIFO and the
    order of a run is deterministic.

    {b Retention.}  A popped slot is overwritten with the [dummy] given
    to {!create}, so the queue keeps no dispatched value alive.

    The record is exposed read-only so a caller can read the earliest
    time as [t.times.(0)] without a boxed float or an option: under
    dune's dev profile ([-opaque]) nothing is inlined across modules,
    and a [float] returned by a function of another module is boxed. *)

type 'a t = private {
  mutable times : float array;
  mutable seqs : int array;
  mutable values : 'a array;
  mutable size : int;  (** live slots are [0 .. size - 1] *)
  mutable next_seq : int;
  dummy : 'a;  (** fills empty and vacated slots *)
}

val create : dummy:'a -> 'a t
(** An empty queue.  [dummy] is never returned by {!pop}; it only
    fills slots that hold no queued value. *)

val is_empty : 'a t -> bool

val push : 'a t -> time:float -> 'a -> unit

val pop : 'a t -> 'a
(** Remove and return the value of slot [0] — the smallest
    [(time, sequence)]; read its time from [times.(0)] first.  Raises
    [Invalid_argument] on an empty queue. *)
