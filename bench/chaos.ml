(* Chaos harness comparison: every quorum system through every standard
   and crash-recovery fault scenario, for all three protocols.
   Violations and stale reads must print as 0 everywhere — the
   scenarios stress liveness, never safety.

   With --jobs N the (system, scenario) grid is flattened into one pool
   task per run; every task builds its own system (nothing mutable is
   shared across domains) and renders its row — and metrics dump, under
   --metrics — to a string.  Rows print in grid order, so the output is
   byte-identical to the sequential sweep.

   Every run's seed is pinned (mutex 41, store 42, reconfig 43) and
   echoed into BENCH_chaos.json, so any reported row is replayed
   exactly by re-running with the same seed, scenario and system. *)

module C = Protocols.Chaos

let mutex_seed = 41
let store_seed = 42
let reconfig_seed = 43
let horizon () = if !Util.fast then 150.0 else 400.0
let scenarios ~n =
  C.standard ~n ~horizon:(horizon ())
  @ C.recovery ~n ~horizon:(horizon ())
  @ C.churn ~n ~horizon:(horizon ())

(* Under --metrics, each run gets its own registry and dumps it after
   the report row. *)
let maybe_obs () = if !Util.metrics then Some (Obs.create ()) else None

let metrics_dump ~spec ~label = function
  | None -> ""
  | Some obs ->
      Printf.sprintf "--- metrics %s / %s ---\n%s" spec label
        (Obs.Metrics.render (Obs.metrics obs))

(* Run the flattened task list, sequentially or on the bench pool, and
   print the rendered outputs in order.  Each task yields its report
   row (plus optional metrics dump) and a JSON object for
   BENCH_chaos.json. *)
let sweep tasks =
  let outputs =
    match Util.pool () with
    | None -> Array.map (fun task -> task ()) tasks
    | Some pool -> Exec.Pool.map_array pool (fun task -> task ()) tasks
  in
  Array.iter (fun (display, _) -> print_string display) outputs;
  Array.to_list (Array.map snd outputs)

let mutex_json (r : C.mutex_report) =
  Printf.sprintf
    "{\"system\": %S, \"scenario\": %S, \"seed\": %d, \"issued\": %d, \
     \"entries\": %d, \"violations\": %d, \"unavailable\": %d, \
     \"dead_letters\": %d, \"budget_hit\": %b}"
    r.C.system r.C.label r.C.seed r.C.issued r.C.entries r.C.violations
    r.C.unavailable r.C.dead_letters r.C.budget_hit

let store_json (r : C.store_report) =
  Printf.sprintf
    "{\"system\": %S, \"scenario\": %S, \"seed\": %d, \"issued\": %d, \
     \"reads_ok\": %d, \"writes_ok\": %d, \"stale_reads\": %d, \
     \"rejoins\": %d, \"rejoin_refusals\": %d, \"unavailable\": %d, \
     \"timeouts\": %d, \"budget_hit\": %b}"
    r.C.system r.C.label r.C.seed r.C.issued r.C.reads_ok r.C.writes_ok
    r.C.stale_reads r.C.rejoins r.C.rejoin_refusals r.C.unavailable
    r.C.timeouts r.C.budget_hit

let reconfig_json (r : C.reconfig_report) =
  Printf.sprintf
    "{\"system\": %S, \"scenario\": %S, \"seed\": %d, \"issued\": %d, \
     \"reads_ok\": %d, \"writes_ok\": %d, \"retries\": %d, \"failed\": %d, \
     \"stale_reads\": %d, \"epoch_switches\": %d, \"final_epoch\": %d, \
     \"budget_hit\": %b}"
    r.C.system r.C.label r.C.seed r.C.issued r.C.reads_ok r.C.writes_ok
    r.C.retries r.C.failed r.C.stale_reads r.C.epoch_switches
    r.C.final_epoch r.C.budget_hit

(* n differs across systems (15 vs 16), so scenarios are built per
   system: the partition group scales with n. *)
let mutex_specs = [ "majority(15)"; "hgrid(4x4)"; "htgrid(4x4)"; "htriang(15)" ]

let mutex_runs () =
  Printf.printf "\n== chaos: mutual exclusion under fault scenarios ==\n";
  Printf.printf "%s\n" (C.mutex_header ());
  let tasks =
    List.concat_map
      (fun spec ->
        let n = (Util.system spec).Quorum.System.n in
        List.map
          (fun scenario () ->
            let system = Util.system spec in
            let obs = maybe_obs () in
            let r, _ = C.run_mutex_h ~seed:mutex_seed ?obs ~system scenario in
            ( Printf.sprintf "%s\n%s" (C.mutex_row r)
                (metrics_dump ~spec ~label:scenario.C.label obs),
              mutex_json r ))
          (scenarios ~n))
      mutex_specs
  in
  sweep (Array.of_list tasks)

let store_runs () =
  Printf.printf "\n== chaos: replicated store under fault scenarios ==\n";
  Printf.printf "%s\n" (C.store_header ());
  let pairs =
    [
      ("majority(15)", "majority(15)", "majority(15)");
      ("hgrid-read(4x4)", "hgrid-write(4x4)", "hgrid-r/w(4x4)");
      ("htgrid(4x4)", "htgrid(4x4)", "htgrid(4x4)");
      ("htriang(15)", "htriang(15)", "htriang(15)");
    ]
  in
  let tasks =
    List.concat_map
      (fun (rspec, wspec, name) ->
        let n = (Util.system rspec).Quorum.System.n in
        List.map
          (fun scenario () ->
            let read_system = Util.system rspec in
            let write_system = Util.system wspec in
            let obs = maybe_obs () in
            let r, _ =
              C.run_store_h ~seed:store_seed ?obs ~read_system ~write_system
                ~name scenario
            in
            ( Printf.sprintf "%s\n%s" (C.store_row r)
                (metrics_dump ~spec:name ~label:scenario.C.label obs),
              store_json r ))
          (scenarios ~n))
      pairs
  in
  sweep (Array.of_list tasks)

(* Reconfiguration under chaos: switch initial -> next -> initial
   mid-traffic while the scenario's faults (including crash-restart
   and amnesia windows) land during the seal / install sequence. *)
let reconfig_runs () =
  Printf.printf "\n== chaos: reconfiguration under fault scenarios ==\n";
  Printf.printf "%s\n" (C.reconfig_header ());
  let pairs =
    [
      ("majority(15)", "htriang(15)", "majority->htriang");
      ("htgrid(4x4)", "hgrid(4x4)", "htgrid->hgrid");
    ]
  in
  let tasks =
    List.concat_map
      (fun (ispec, nspec, name) ->
        let n =
          max (Util.system ispec).Quorum.System.n
            (Util.system nspec).Quorum.System.n
        in
        List.map
          (fun scenario () ->
            let initial = Util.system ispec in
            let next = Util.system nspec in
            let obs = maybe_obs () in
            let r, _ =
              C.run_reconfig_h ~seed:reconfig_seed ?obs ~initial ~next ~name
                scenario
            in
            ( Printf.sprintf "%s\n%s" (C.reconfig_row r)
                (metrics_dump ~spec:name ~label:scenario.C.label obs),
              reconfig_json r ))
          (scenarios ~n))
      pairs
  in
  sweep (Array.of_list tasks)

let write_json ~mutex ~store ~reconfig =
  let oc = open_out (Util.out_path "BENCH_chaos.json") in
  let section rows =
    String.concat ",\n" (List.map (fun j -> "    " ^ j) rows)
  in
  Printf.fprintf oc
    "{\n\
    \  \"bench\": \"chaos\",\n\
    \  \"fast\": %b,\n\
    \  \"horizon\": %g,\n\
    \  \"seeds\": {\"mutex\": %d, \"store\": %d, \"reconfig\": %d},\n\
    \  \"mutex\": [\n%s\n  ],\n\
    \  \"store\": [\n%s\n  ],\n\
    \  \"reconfig\": [\n%s\n  ]\n\
     }\n"
    !Util.fast (horizon ()) mutex_seed store_seed reconfig_seed
    (section mutex) (section store) (section reconfig);
  close_out oc

let run () =
  let mutex = mutex_runs () in
  let store = store_runs () in
  let reconfig = reconfig_runs () in
  write_json ~mutex ~store ~reconfig;
  Printf.printf "\n  wrote BENCH_chaos.json (seeds: mutex %d, store %d, reconfig %d)\n"
    mutex_seed store_seed reconfig_seed
