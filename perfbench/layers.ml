(* What every simulator workload hands back, and the readers that turn
   an [Obs.t] (metrics registry, profiler) and the quorum kernel into
   per-layer numbers. *)

module Metrics = Obs.Metrics
module Prof = Obs.Prof
module System = Quorum.System

type sim = {
  outcomes : Stats.outcomes;
  horizon : float;  (** simulated time the load ran for *)
  latency : float -> Stats.tail;
      (** nearest-rank percentiles of completed ops' latency, from each
          op's due time *)
  errors : string list;  (** correctness violations; empty on a clean run *)
  fingerprint : string;
      (** every simulated result of the run, for bit-identity checks *)
  layer : (string * float) list;  (** protocol-level per-layer values *)
  stretches : float array;
      (** wall seconds of each stretch of the timed call (see
          {!run_in_stretches}); empty for a call run in one piece *)
}

(* --- Timing a simulation in stretches --------------------------------- *)

(* The engine's default event budget, spent over the whole call. *)
let event_budget = 10_000_000

(* Run [engine] in [stretches] equal stretches of simulated time up to
   [horizon], then one last stretch that drains what is left, and time
   each.  Stopping at a stretch boundary dispatches nothing, so this is
   the same run as one [Engine.run_status]; the workloads check that. *)
let stretches = 400

let run_in_stretches engine ~horizon =
  let step = horizon /. float_of_int stretches in
  let times = Array.make (stretches + 1) 0.0 in
  let budget = event_budget + Sim.Engine.events_dispatched engine in
  let rec go k =
    let until = if k < stretches then Some (step *. float_of_int (k + 1)) else None in
    let t0 = Unix.gettimeofday () in
    let outcome =
      Sim.Engine.run_status ?until
        ~max_events:(budget - Sim.Engine.events_dispatched engine)
        engine
    in
    times.(k) <- Unix.gettimeofday () -. t0;
    match outcome with Sim.Engine.Reached_until -> go (k + 1) | o -> o
  in
  (go 0, times)

(* --- Registry reads --------------------------------------------------- *)

(* The deterministic part of a registry: everything but the [obs.*]
   families, which meter the observer itself (trace-ring drops). *)
let simulated_samples obs =
  List.filter
    (fun (s : Metrics.sample) ->
      not (String.length s.name >= 4 && String.sub s.name 0 4 = "obs."))
    (Metrics.snapshot (Obs.metrics obs))

(* Sum of a counter family over all its label cells. *)
let counter samples name =
  List.fold_left
    (fun acc (s : Metrics.sample) ->
      match s.value with
      | Metrics.Counter v when s.name = name -> acc + v
      | _ -> acc)
    0 samples

let per x n = if n = 0 then 0.0 else float_of_int x /. float_of_int n

(* --- Profiler reads --------------------------------------------------- *)

let prof_row (r : Prof.report) cat =
  List.find_opt (fun (row : Prof.row) -> row.category = cat) r.rows

let prof_seconds r cat =
  match prof_row r cat with Some row -> row.seconds | None -> 0.0

let prof_probes r cat =
  match prof_row r cat with Some row -> row.probes | None -> 0

(* Share of profiled time spent recording the trace, metrics and
   spans: what observing the run costs. *)
let obs_share (r : Prof.report) =
  if r.total_seconds <= 0.0 then 0.0
  else
    List.fold_left (fun a c -> a +. prof_seconds r c) 0.0 Prof.[ Trace; Metrics; Span ]
    /. r.total_seconds

(* Events the engine dispatched, counted by the profiler's dispatch
   probes: one probe per message, timer, crash/recovery and thunk. *)
let prof_events r =
  List.fold_left
    (fun a c -> a + prof_probes r c)
    0
    Prof.[ Dispatch_msg; Dispatch_timer; Dispatch_recovery; Thunk ]

(* --- Quorum kernel ---------------------------------------------------- *)

let now () = Unix.gettimeofday ()

(* A timer for [f]: it sizes a batch of calls [f 0, f 1, ...] to take
   at least [min_s] seconds, then each call of the timer runs one batch
   and returns seconds per call.  Batching keeps a sub-millisecond call
   readable on a coarse clock. *)
let batch_timer ~min_s f =
  let batch k =
    let t0 = now () in
    for i = 0 to k - 1 do
      f i
    done;
    now () -. t0
  in
  let rec size k = if batch k >= min_s then k else size (k * 2) in
  let k = size 1 in
  fun () -> batch k /. float_of_int k

(* Nanoseconds per call of [f i]: the median of five 40 ms batches. *)
let ns_per_call f =
  let time = batch_timer ~min_s:0.04 f in
  Stats.median (Array.init 5 (fun _ -> time () *. 1e9))

(* [System.select] on the fully live universe, cycling the systems. *)
let select_ns ~seed systems =
  let systems = Array.of_list systems in
  let rng = Quorum.Rng.create seed in
  let lives =
    Array.map (fun (s : System.t) -> Quorum.Bitset.universe s.n) systems
  in
  let m = Array.length systems in
  ns_per_call (fun i ->
      let j = i mod m in
      ignore (systems.(j).select rng ~live:lives.(j) : Quorum.Bitset.t option))

(* [System.avail_mask_exn] over 4096 uniformly random live masks per
   system. *)
let avail_mask_ns ~seed systems =
  let rng = Quorum.Rng.create seed in
  let checks =
    Array.of_list
      (List.map
         (fun (s : System.t) ->
           let f = System.avail_mask_exn s in
           let masks = Array.init 4096 (fun _ -> Quorum.Rng.int rng (1 lsl s.n)) in
           (f, masks))
         systems)
  in
  let m = Array.length checks in
  ns_per_call (fun i ->
      let f, masks = checks.(i mod m) in
      ignore (f masks.((i / m) land 4095) : bool))
