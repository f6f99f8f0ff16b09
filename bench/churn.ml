(* Availability under sustained churn: the dynamic-membership register
   (Protocols.Membership over Reconfig) against the static baseline,
   swept over churn rates.

   Each row is one seeded run of a Poisson join/leave process over a
   fixed universe while live clients issue a read/write mix.  The
   [static] mode keeps the t=0 h-triang placement forever; [resize]
   runs the replace/grow/shrink controller; [timed] additionally runs
   the register in timed-quorum (lease) mode so epoch switches drain
   validity windows instead of sealing a structural old-system quorum;
   [fd] is [resize] with the controller blinded — its liveness opinion
   comes from the members' quorum-merged failure-detector views (with
   flap hysteresis) instead of the engine oracle, so the availability
   gap between [resize] and [fd] prices realistic failure detection.

   The headline of BENCH_churn.json: at the highest swept rate —
   enough sustained churn to keep ~23 of 30 processes down at once —
   the static configuration's availability collapses below 0.5 while
   the timed-quorum register stays above 0.9 (plain resize degrades
   gracefully in between), and stale_reads is 0 in every cell, so the
   availability is not bought with safety.  Reconfiguration downtime
   is the merged "reconfig.switch" span windows, extracted by
   Obs.Trace_analysis from each run's span collector.

   The seed (45) is pinned and echoed into BENCH_churn.json, so any
   row is replayed exactly. *)

module C = Protocols.Chaos

let seed = 45
let universe = 30
let rows = 5 (* h-triang(15): half the universe spare at t=0 *)
let mean_downtime = 130.0
let op_rate = 2.0
let op_timeout = 30.0
let period = 8.0
let lease = 3.0
let horizon () = if !Util.fast then 150.0 else 300.0

(* Swept churn rates (leave events per time unit): the expected number
   of simultaneously-down processes is rate * mean_downtime (capped by
   the universe), so the top rate keeps roughly three quarters of the
   population down once the churn has ramped up. *)
let rates () = if !Util.fast then [ 0.05; 0.18 ] else [ 0.05; 0.1; 0.18 ]

let modes = [ C.Static; C.Resize; C.Timed; C.Fd ]

let scenario ~rate =
  let h = horizon () in
  {
    C.label = Printf.sprintf "rate=%.2f" rate;
    horizon = h;
    plan = { C.calm with loss = 0.02; churn_sustained = Some (rate, mean_downtime) };
  }

let json ~rate (r : C.churn_report) =
  Printf.sprintf
    "{\"rate\": %g, \"mode\": %S, \"seed\": %d, \"issued\": %d, \"ok\": %d, \
     \"failed\": %d, \"availability\": %.4f, \"stale_reads\": %d, \
     \"epoch_switches\": %d, \"proposals\": %d, \"grows\": %d, \
     \"shrinks\": %d, \"replacements\": %d, \"lease_refusals\": %d, \
     \"false_evictions\": %d, \"switch_downtime\": %.2f, \
     \"final_members\": %d, \"budget_hit\": %b}"
    rate r.C.mode r.C.seed r.C.issued r.C.ok r.C.failed r.C.availability
    r.C.stale_reads r.C.epoch_switches r.C.proposals r.C.grows r.C.shrinks
    r.C.replacements r.C.lease_refusals r.C.false_evictions
    r.C.switch_downtime r.C.final_members r.C.budget_hit

let write_json rows_json =
  let oc = open_out (Util.out_path "BENCH_churn.json") in
  Printf.fprintf oc
    "{\n\
    \  \"bench\": \"churn\",\n\
    \  \"fast\": %b,\n\
    \  \"horizon\": %g,\n\
    \  \"seed\": %d,\n\
    \  \"universe\": %d,\n\
    \  \"rows\": %d,\n\
    \  \"mean_downtime\": %g,\n\
    \  \"runs\": [\n%s\n  ]\n\
     }\n"
    !Util.fast (horizon ()) seed universe rows mean_downtime
    (String.concat ",\n" (List.map (fun j -> "    " ^ j) rows_json));
  close_out oc

let run () =
  Printf.printf
    "\n== churn: availability of static vs dynamic membership ==\n";
  Printf.printf
    "(universe %d, h-triang %d rows, mean downtime %g, op rate %g)\n" universe
    rows mean_downtime op_rate;
  Printf.printf "%s\n" (C.churn_header ());
  let tasks =
    List.concat_map
      (fun rate ->
        List.map
          (fun mode () ->
            let r, _ =
              C.run_churn_h ~seed ~rate:op_rate ~op_timeout ~rows ~period ~lease
                ~mode ~universe (scenario ~rate)
            in
            (* Availability is never bought with safety: any stale read
               under churn is a bug, and CI runs this bench. *)
            if r.C.stale_reads > 0 then
              failwith
                (Printf.sprintf "churn bench: %d stale reads at %s/%s"
                   r.C.stale_reads r.C.label r.C.mode);
            (Printf.sprintf "%s\n" (C.churn_row r), json ~rate r))
          modes)
      (rates ())
  in
  let outputs =
    let tasks = Array.of_list tasks in
    match Util.pool () with
    | None -> Array.map (fun task -> task ()) tasks
    | Some pool -> Exec.Pool.map_array pool (fun task -> task ()) tasks
  in
  Array.iter (fun (display, _) -> print_string display) outputs;
  write_json (Array.to_list (Array.map snd outputs));
  Printf.printf "\n  wrote BENCH_churn.json (seed %d)\n" seed
