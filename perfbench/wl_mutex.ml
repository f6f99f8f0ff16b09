(* mutex-restart: the paper's own application — [Mutex] over the
   h-T-grid htgrid(5x5) under the [restart] fault plan.  Set-up builds
   what [Chaos.run_mutex_h] builds before it runs its engine: the
   system, the scenario, the mutex, the engine, the fault plan and the
   Poisson acquisitions.  The timed call runs that engine in stretches
   of simulated time.  [whole] is [Chaos.run_mutex_h] itself, which
   must give the same simulated results. *)

module C = Protocols.Chaos
module Mutex = Protocols.Mutex
module Engine = Sim.Engine
module Metrics = Obs.Metrics

let spec_name = "htgrid(5x5)"
let rate = 0.2
let cs_duration = 1.0
let horizon = 1000.0

(* [Chaos.run_mutex_h]'s default. *)
let acquire_timeout = 80.0

type prepared = {
  system : Quorum.System.t;
  scenario : C.scenario;
  seed : int;
  obs : Obs.t;
  mx : Mutex.t;
  engine : Mutex.msg Engine.t;
  issued : int;
}

let system () =
  match Core.Registry.build spec_name with Ok s -> s | Error e -> failwith e

let scenario (system : Quorum.System.t) = C.scenario_of_label ~n:system.n ~horizon "restart"

let setup ~seed ~obs =
  let system = system () in
  let scenario = scenario system in
  let rng = Quorum.Rng.create seed in
  let network = Sim.Network.create ~loss:scenario.plan.loss () in
  let config =
    Protocols.Client_config.(
      default
      |> with_timeout acquire_timeout
      |> with_durability (C.durability_of_plan scenario.plan))
  in
  let mx = Mutex.of_config ~config ~system ~cs_duration () in
  let engine =
    Engine.create ~seed:(seed + 1) ~nodes:system.n ~network ~obs (Mutex.handlers mx)
  in
  Mutex.bind mx engine;
  C.apply engine ~rng scenario;
  let issued =
    Protocols.Workload.poisson_ops engine ~rng ~rate ~horizon (fun ~client ->
        Mutex.request mx ~node:client)
  in
  { system; scenario; seed; obs; mx; engine; issued }

(* The report [Chaos.run_mutex_h] makes of a finished run. *)
let report p outcome =
  let entries = Mutex.entries p.mx in
  {
    C.label = p.scenario.label;
    system = p.system.name;
    seed = p.seed;
    issued = p.issued;
    entries;
    violations = Mutex.violations p.mx;
    unavailable = Mutex.unavailable p.mx;
    reselections = Mutex.reselections p.mx;
    abandoned = Mutex.abandoned p.mx;
    dead_letters = Mutex.dead_letters p.mx;
    retransmissions = Mutex.retransmissions p.mx;
    mean_wait = Metrics.mean (Mutex.acquire_latency p.mx);
    msgs_per_entry =
      (if entries = 0 then 0.0
       else float_of_int (Engine.messages_sent p.engine) /. float_of_int entries);
    budget_hit = outcome = Engine.Budget_exhausted;
  }

(* The timed call. *)
let run p =
  let outcome, stretches = Layers.run_in_stretches p.engine ~horizon in
  ((report p outcome, p.mx), stretches)

let result_of ~obs ((r : C.mutex_report), mx) stretches =
  (* A request the mutex never entered — abandoned, refused for want of
     a quorum, or addressed to a crashed node — is a failed attempt. *)
  let outcomes =
    { Stats.completed = r.entries; failed = r.issued - r.entries; shed = 0 }
  in
  let lat = Protocols.Mutex.acquire_latency mx in
  let samples = Metrics.count lat in
  let latency = Stats.histogram_tail lat in
  let errors =
    List.concat
      [
        (if r.violations > 0 then
           [ Printf.sprintf "%d mutual-exclusion violations" r.violations ]
         else []);
        (if r.budget_hit then [ "event budget hit" ] else []);
        (if samples <> r.entries then
           [ Printf.sprintf "%d entries but %d latency samples" r.entries samples ]
         else []);
        (if r.entries = 0 then [ "no critical-section entry" ] else []);
      ]
  in
  let layer =
    [
      ("mutex.msgs_per_entry", r.msgs_per_entry);
      ("mutex.reselections_per_entry", Layers.per r.reselections r.entries);
      ("mutex.abandoned_share", Layers.per r.abandoned r.issued);
    ]
  in
  let sim_samples = Layers.simulated_samples obs in
  {
    Layers.outcomes;
    stretches;
    horizon;
    latency;
    errors;
    fingerprint =
      Marshal.to_string (r, latency 0.5, latency 0.99, sim_samples, layer) [];
    layer;
  }

let result p (out, stretches) = result_of ~obs:p.obs out stretches

(* The same run through [Chaos.run_mutex_h], in one piece. *)
let whole ~seed ~obs =
  let system = system () in
  result_of ~obs
    (C.run_mutex_h ~seed ~rate ~cs_duration ~acquire_timeout ~obs ~system (scenario system))
    [||]
