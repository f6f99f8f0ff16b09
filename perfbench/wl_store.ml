(* The two store workloads.  The benchmark drives
   [Replicated_store.Session.submit] itself, so each op is stamped with
   the time it was due — its Poisson arrival in the open loop, its
   issue in the closed loop — and its latency counts any wait in the
   session backlog.  [Throughput] only supplies the arms. *)

module P = Protocols
module Store = P.Replicated_store
module Engine = Sim.Engine
module Rng = Quorum.Rng
module Ta = Obs.Trace_analysis

(* Closed: each session keeps [window] ops in flight.  Open: Poisson
   arrivals at [rate] ops per time unit, each on a random session. *)
type load = Closed | Open of { rate : float }

type spec = {
  arm : unit -> P.Throughput.arm;
  scenario : P.Chaos.scenario;
  config : P.Client_config.t;
  load : load;
  window : int;
  batch_size : int;
  read_fraction : float;
  keys : int;
}

let ok_or_fail = function Ok v -> v | Error e -> failwith e

(* Session backlog bound and batch flush delay, the same for both
   workloads. *)
let max_queue = 64
let batch_delay = 0.25

(* Per-request 0.3, per-batch 0.1: the standard service cost of
   [Throughput]. *)
let service = Store.service ~per_req:0.3 ~per_batch:0.1 ()

let with_plan_durability plan config =
  P.Client_config.with_durability (P.Chaos.durability_of_plan plan) config

(* store-read: sharded h-grid at n = 25, closed loop, calm network. *)
let read_heavy =
  let plan = { P.Chaos.calm with fsync = 0.2 } in
  {
    arm = (fun () -> ok_or_fail (P.Throughput.sharded_arm ~shards:6 ~n:25 ()));
    scenario = { P.Chaos.label = "calm"; horizon = 100.0; plan };
    config = with_plan_durability plan P.Client_config.default;
    load = Closed;
    window = 6;
    batch_size = 4;
    read_fraction = 0.9;
    keys = 50;
  }

(* store-write-overload: h-triang(15), open loop past capacity, the
   [restart] fault plan, accrual detection with hedging.  Unbatched:
   the store hedges only unbatched attempts. *)
let write_overload =
  let scenario = P.Chaos.scenario_of_label ~n:15 ~horizon:400.0 "restart" in
  {
    arm = (fun () -> P.Throughput.htriang_arm ~n:15);
    scenario;
    config =
      P.Client_config.(
        default
        |> with_fd ~accrual:2.0
        |> with_routing ~hedge:true
        |> with_plan_durability scenario.plan);
    load = Open { rate = 5.0 };
    window = 4;
    batch_size = 1;
    read_fraction = 0.2;
    keys = 30;
  }

let systems spec =
  let arm = spec.arm () in
  match arm.router with
  | None -> [ arm.read_sys ]
  | Some r ->
      List.concat_map
        (fun shard ->
          [ P.Shard_router.shard_read_system r ~shard;
            P.Shard_router.shard_write_system r ~shard ])
        (List.init (P.Shard_router.shard_count r) Fun.id)

(* One completed op, as seen from the client. *)
type done_op = { client : int; key : int; due : float; finished : float }

type prepared = {
  spec : spec;
  engine : Store.msg Engine.t;
  store : Store.t;
  obs : Obs.t;
  mutable issued : int;
  mutable shed : int;
  mutable failed : int;
  mutable done_ops : done_op list;
  mutable late : float;  (** worst generator lateness, simulated time *)
}

(* Everything before the timed call: systems, arm, router, store,
   engine, fault plan, sessions and the scheduled load. *)
let setup spec ~seed ~obs =
  let arm = spec.arm () in
  let n = arm.read_sys.n in
  let horizon = spec.scenario.horizon in
  let rng = Rng.create seed in
  let network = Sim.Network.create ~loss:spec.scenario.plan.loss () in
  let store =
    Store.of_config ~config:spec.config ?router:arm.router ~service
      ~read_system:arm.read_sys ~write_system:arm.write_sys ()
  in
  let engine =
    Engine.create ~seed:(seed + 1) ~nodes:n ~network ~obs (Store.handlers store)
  in
  Store.bind store engine;
  P.Chaos.apply engine ~rng spec.scenario;
  let sessions =
    Array.init n (fun client ->
        Store.Session.create store ~client ~window:spec.window
          ~batch_size:spec.batch_size ~batch_delay ~max_queue ())
  in
  let p =
    { spec; engine; store; obs; issued = 0; shed = 0; failed = 0;
      done_ops = []; late = 0.0 }
  in
  let value = ref 0 in
  (* Submit one op on [client]'s session; [k ok] runs when it ends. *)
  let submit ~client ~due k =
    p.issued <- p.issued + 1;
    let key = Rng.int rng spec.keys in
    let req =
      if Rng.bernoulli rng spec.read_fraction then Store.Get { key }
      else begin
        incr value;
        Store.Put { key; value = !value }
      end
    in
    let on_complete = function
      | Store.Read_done _ | Store.Write_done _ ->
          p.done_ops <-
            { client; key; due; finished = Engine.now engine } :: p.done_ops;
          k true
      | Store.Timed_out | Store.Unavailable ->
          p.failed <- p.failed + 1;
          k false
    in
    if not (Store.Session.submit store sessions.(client) ~on_complete req) then begin
      p.shed <- p.shed + 1;
      k false
    end
  in
  (match spec.load with
  | Closed ->
      P.Workload.closed_loop engine ~stations:n ~per_station:spec.window ~horizon
        (fun ~station ~complete ->
          submit ~client:station ~due:(Engine.now engine) (fun ok -> complete ~ok))
  | Open { rate } ->
      List.iter
        (fun due ->
          Engine.schedule engine ~time:due (fun () ->
              p.late <- Float.max p.late (Engine.now engine -. due);
              submit ~client:(Rng.int rng n) ~due ignore))
        (P.Workload.arrival_times rng ~rate ~horizon));
  Engine.schedule engine ~time:horizon (fun () ->
      Array.iter (fun s -> Store.Session.drain store s) sessions);
  p

(* The timed call, in stretches of simulated time.  [run_whole] is the
   same call in one piece, and must give the same simulated results. *)
let run p = Layers.run_in_stretches p.engine ~horizon:p.spec.scenario.horizon
let run_whole p = (Engine.run_status ~max_events:Layers.event_budget p.engine, [||])

(* Backlog wait of each completed op: from its due time to the moment
   the session launched it (the [started] of its history hop). *)
let backlog_wait_p99 p history =
  let started = Hashtbl.create 1024 in
  List.iter
    (fun (h : Ta.hop) -> Hashtbl.replace started (h.client, h.key, h.finished) h.started)
    history;
  let waits = Obs.Metrics.histogram (Obs.Metrics.create ()) "backlog_wait" in
  List.iter
    (fun d ->
      Option.iter
        (fun s -> Obs.Metrics.observe waits (s -. d.due))
        (Hashtbl.find_opt started (d.client, d.key, d.finished)))
    p.done_ops;
  Obs.Metrics.percentile_or ~default:0.0 waits 0.99

let result p (outcome, stretches) =
  let store = p.store in
  let completed = List.length p.done_ops in
  let outcomes = { Stats.completed; failed = p.failed; shed = p.shed } in
  let lat = Obs.Metrics.histogram (Obs.Metrics.create ()) "latency" in
  List.iter (fun d -> Obs.Metrics.observe lat (d.finished -. d.due)) p.done_ops;
  let history = Store.history store in
  let audit = Ta.audit_history history in
  let errors =
    List.concat
      [
        (if Store.stale_reads store > 0 then
           [ Printf.sprintf "%d stale reads" (Store.stale_reads store) ]
         else []);
        (if Ta.passed audit then []
         else [ "history audit: " ^ Ta.verdict audit ]);
        (if outcome = Engine.Budget_exhausted then [ "event budget hit" ] else []);
        (if p.late > 0.0 then
           [ Printf.sprintf "generator ran %g late" p.late ]
         else []);
        (if Stats.attempted outcomes <> p.issued then
           [ Printf.sprintf "%d ops issued, %d accounted for" p.issued
               (Stats.attempted outcomes) ]
         else []);
        (if completed <> Store.reads_ok store + Store.writes_ok store
            || p.failed <> Store.timeouts store + Store.unavailable store
            || p.shed <> Store.shed store
         then [ "benchmark and store disagree on op outcomes" ]
         else []);
        (if completed = 0 then [ "no op completed" ] else []);
      ]
  in
  let samples = Layers.simulated_samples p.obs in
  let events = Engine.events_dispatched p.engine in
  let attempted = Stats.attempted outcomes in
  let c name = Layers.counter samples name in
  let layer =
    [
      ("store.batch_mean", Layers.per (Store.batched_ops store) (Store.batches store));
      ("store.hedges_per_op", Layers.per (Store.hedges store) attempted);
      ("store.backlog_wait_p99", backlog_wait_p99 p history);
      ("store.generator_lateness", p.late);
      ("durable.appends_per_op", Layers.per (c "durable.appends") attempted);
    ]
  in
  {
    Layers.outcomes;
    horizon = p.spec.scenario.horizon;
    latency = Stats.histogram_tail lat;
    errors;
    fingerprint = Marshal.to_string (outcomes, p.done_ops, samples, events, layer) [];
    layer;
    stretches;
  }

(* Store-specific numbers that need the traced run's spans and trace. *)
let traced_layer p (sim : Layers.sim) =
  let spans = Obs.spans p.obs in
  let attempts = ref 0 in
  Obs.Span.iter spans (fun s -> if s.Obs.Span.name = "store.attempt" then incr attempts);
  let attempted = Stats.attempted sim.outcomes in
  let cp =
    match Ta.profile_ops ~trace:(Obs.trace p.obs) ~spans () with
    | [] -> Ta.zero_breakdown
    | profiles -> (Ta.aggregate profiles).total
  in
  let total = Ta.breakdown_total cp in
  let share x = if total <= 0.0 then 0.0 else x /. total in
  [
    ("store.attempts_per_op", Layers.per !attempts attempted);
    ("store.useful_attempt_ratio", Layers.per sim.outcomes.completed !attempts);
    ("store.cp.network_share", share cp.network);
    ("store.cp.fsync_share", share cp.fsync);
    ("store.cp.queueing_share", share cp.queueing);
    ("store.cp.retransmit_share", share cp.retransmit);
  ]
