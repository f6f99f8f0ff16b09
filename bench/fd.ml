(* Failure detection: the detection-time vs false-positive tradeoff,
   failure-detector-driven vs omniscient membership availability under
   sustained churn, and hedging's tail-latency effect under gray
   failure.

   Three sub-benches, all into BENCH_fd.json:

   - [detector sweep]: the replicated store (clients route by detector
     view) under the fd stress scenarios, swept over fixed timeouts
     and phi-accrual thresholds.  The crash scenarios price detection
     latency and missed detections; the no-crash scenarios
     (asym-link, suspect-burst) make every suspicion false by
     construction, isolating the false-positive cost.  The headline:
     aggressive fixed timeouts detect fast but pay hundreds of false
     positives under loss bursts, while the accrual detector adapts
     its horizon to observed inter-arrival jitter and keeps both ends
     of the tradeoff.

   - [membership]: the dynamic-membership register under Poisson churn
     with the controller either omniscient (resize) or blinded to the
     members' quorum-merged detector views with flap hysteresis (fd).
     The availability gap is the measured price of realistic failure
     detection; stale_reads must be 0 in both arms.

   - [hedging]: the store under the gray scenario with hedging off vs
     on — duplicated stragglers cut the p99 while safety counters stay
     untouched.

   The seed (47) is pinned and echoed into BENCH_fd.json, so any row
   is replayed exactly. *)

module C = Protocols.Chaos

let seed = 47
let universe = 30
let mrows = 5
let mean_downtime = 130.0
let churn_rate = 0.1
let horizon () = if !Util.fast then 120.0 else 300.0
let spec = "htriang(15)"

type detector = Fixed of float | Accrual of float

let detectors () =
  if !Util.fast then [ Fixed 5.0; Accrual 2.0 ]
  else
    [ Fixed 2.0; Fixed 5.0; Fixed 8.0; Accrual 1.0; Accrual 2.0; Accrual 3.0 ]

let sweep_labels () =
  if !Util.fast then [ "churn-iid"; "suspect-burst" ]
  else [ "churn-iid"; "gray-flap"; "asym-link"; "suspect-burst" ]

let run_one ~det ~hedge scenario =
  let system = Util.system spec in
  let fd_timeout, accrual =
    match det with
    | Fixed tau -> (tau, None)
    | Accrual phi -> (5.0, Some phi)
  in
  let r, _ =
    C.run_fd_h ~seed ~fd_timeout ?accrual ~hedge ~read_system:system
      ~write_system:system scenario
  in
  if r.C.stale_reads > 0 then
    failwith
      (Printf.sprintf "fd bench: %d stale reads at %s/%s" r.C.stale_reads
         r.C.label r.C.detector);
  r

let sweep_json ~scenario (r : C.fd_report) =
  Printf.sprintf
    "{\"scenario\": %S, \"detector\": %S, \"seed\": %d, \"issued\": %d, \
     \"ok\": %d, \"stale_reads\": %d, \"unavailable\": %d, \"hedges\": %d, \
     \"degraded_writes\": %d, \"detections\": %d, \"mean_detect\": %.2f, \
     \"max_detect\": %.2f, \"false_positives\": %d, \"missed\": %d, \
     \"transitions\": %d, \"p99_latency\": %.2f, \"budget_hit\": %b}"
    scenario r.C.detector r.C.seed r.C.issued r.C.ok r.C.stale_reads
    r.C.unavailable r.C.hedges r.C.degraded_writes r.C.detections
    r.C.mean_detect r.C.max_detect r.C.false_positives r.C.missed
    r.C.transitions r.C.p99_latency r.C.budget_hit

let churn_scenario () =
  let h = horizon () in
  {
    C.label = Printf.sprintf "rate=%.2f" churn_rate;
    horizon = h;
    plan =
      {
        C.calm with
        loss = 0.02;
        churn_sustained = Some (churn_rate, mean_downtime);
      };
  }

let membership_json (r : C.churn_report) =
  Printf.sprintf
    "{\"mode\": %S, \"seed\": %d, \"issued\": %d, \"ok\": %d, \
     \"availability\": %.4f, \"stale_reads\": %d, \"epoch_switches\": %d, \
     \"proposals\": %d, \"replacements\": %d, \"false_evictions\": %d, \
     \"switch_downtime\": %.2f, \"final_members\": %d, \"budget_hit\": %b}"
    r.C.mode r.C.seed r.C.issued r.C.ok r.C.availability r.C.stale_reads
    r.C.epoch_switches r.C.proposals r.C.replacements r.C.false_evictions
    r.C.switch_downtime r.C.final_members r.C.budget_hit

let hedge_json ~hedge (r : C.fd_report) =
  Printf.sprintf
    "{\"scenario\": %S, \"hedge\": %b, \"seed\": %d, \"ok\": %d, \
     \"hedges\": %d, \"stale_reads\": %d, \"p99_latency\": %.2f, \
     \"budget_hit\": %b}"
    r.C.label hedge r.C.seed r.C.ok r.C.hedges r.C.stale_reads
    r.C.p99_latency r.C.budget_hit

let write_json ~sweep ~membership ~hedging =
  let block rows =
    String.concat ",\n" (List.map (fun j -> "    " ^ j) rows)
  in
  let oc = open_out (Util.out_path "BENCH_fd.json") in
  Printf.fprintf oc
    "{\n\
    \  \"bench\": \"fd\",\n\
    \  \"fast\": %b,\n\
    \  \"horizon\": %g,\n\
    \  \"seed\": %d,\n\
    \  \"detector_sweep\": [\n%s\n  ],\n\
    \  \"membership\": [\n%s\n  ],\n\
    \  \"hedging\": [\n%s\n  ]\n\
     }\n"
    !Util.fast (horizon ()) seed (block sweep) (block membership)
    (block hedging);
  close_out oc

let run () =
  let h = horizon () in
  let n = (Util.system spec).Quorum.System.n in
  Printf.printf "\n== fd: detection time vs accuracy (%s) ==\n" spec;
  Printf.printf "%s\n" (C.fd_header ());
  (* 1. Detector sweep over the fd stress scenarios. *)
  let sweep_tasks =
    List.concat_map
      (fun label ->
        let scenario = C.scenario_of_label ~n ~horizon:h label in
        List.map
          (fun det () ->
            let r = run_one ~det ~hedge:false scenario in
            (Printf.sprintf "%s\n" (C.fd_row r), sweep_json ~scenario:label r))
          (detectors ()))
      (sweep_labels ())
  in
  let sweep_out =
    let tasks = Array.of_list sweep_tasks in
    match Util.pool () with
    | None -> Array.map (fun task -> task ()) tasks
    | Some pool -> Exec.Pool.map_array pool (fun task -> task ()) tasks
  in
  Array.iter (fun (display, _) -> print_string display) sweep_out;
  (* 2. FD-driven vs omniscient membership under Poisson churn. *)
  Printf.printf
    "\n== fd: membership availability, omniscient vs detector-driven ==\n";
  Printf.printf "%s\n" (C.churn_header ());
  let membership =
    List.map
      (fun mode ->
        let r, _ =
          C.run_churn_h ~seed ~rate:2.0 ~op_timeout:30.0 ~rows:mrows
            ~period:8.0 ~mode ~universe (churn_scenario ())
        in
        if r.C.stale_reads > 0 then
          failwith
            (Printf.sprintf "fd bench: %d stale reads in membership/%s"
               r.C.stale_reads r.C.mode);
        Printf.printf "%s\n" (C.churn_row r);
        membership_json r)
      [ C.Resize; C.Fd ]
  in
  (* 3. Hedging's p99 effect under gray failure. *)
  Printf.printf "\n== fd: hedged requests under gray failure ==\n";
  Printf.printf "%s\n" (C.fd_header ());
  let gray = C.scenario_of_label ~n ~horizon:h "gray" in
  let hedging =
    List.map
      (fun hedge ->
        let r = run_one ~det:(Fixed 5.0) ~hedge gray in
        Printf.printf "%s\n" (C.fd_row r);
        hedge_json ~hedge r)
      [ false; true ]
  in
  write_json
    ~sweep:(Array.to_list (Array.map snd sweep_out))
    ~membership ~hedging;
  Printf.printf "\n  wrote BENCH_fd.json (seed %d)\n" seed
