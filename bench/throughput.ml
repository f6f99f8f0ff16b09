(* Store throughput: sessioned/pipelined/batched clients against flat
   majority, h-triang and sharded h-grid systems, swept over n.

   Three sections feed BENCH_throughput.json:

   - closed-loop capacity sweep: n in {3..25}, one session per node
     keeping a pipeline window full.  With per-request service cost, a
     flat majority puts ~n/2 nodes in every quorum so its capacity
     stays flat; h-triang touches ~sqrt(2n) nodes; the sharded h-grid
     splits disjoint keys across disjoint subquorums.  The headline:
     the sharded hierarchical arm overtakes flat majority at n >= 9
     and the gap widens with n (the bench aborts if it ever does not).
   - open-loop overload: Poisson arrivals past capacity; queue growth
     and shedding show where each arm saturates.
   - batch ablation: same load, batch sizes 1/4/16 — one fsync per
     batch is what amortizes a non-zero fsync latency.

   The n=15 closed-loop runs carry a span collector, so each of those
   rows also reports the critical-path breakdown (network / fsync /
   queueing / retransmit) from Obs.Trace_analysis.

   The seed (46) is pinned and echoed into BENCH_throughput.json;
   repeated runs are bit-identical. *)

module C = Protocols.Chaos
module T = Protocols.Throughput

let seed = 46
let horizon () = if !Util.fast then 80.0 else 200.0
let ns () = if !Util.fast then [ 3; 9; 15 ] else [ 3; 5; 7; 9; 12; 15; 20; 25 ]
let breakdown_n = 15
let window = 6
let batch = 4
let batch_delay = 0.25
let fsync = 0.2
let open_n = 15
let open_rate = 12.0
let open_queue = 64
let ablation_sizes = [ 1; 4; 16 ]

let scenario ~label = { C.label; horizon = horizon (); plan = { C.calm with fsync } }

let json (r : T.report) =
  Printf.sprintf
    "{\"scenario\": %S, \"system\": %S, \"mode\": %S, \"seed\": %d, \"n\": \
     %d, \"shards\": %d, \"window\": %d, \"batch\": %d, \"offered\": %g, \
     \"issued\": %d, \"completed\": %d, \"failed\": %d, \"shed\": %d, \
     \"ops_per_sec\": %.4f, \"mean_latency\": %.4f, \"p95_latency\": %.4f, \
     \"peak_backlog\": %d, \"final_backlog\": %d, \"batches\": %d, \
     \"batched_ops\": %d, \"retransmissions\": %d, \"stale_reads\": %d, \
     \"breakdown\": {\"network\": %.3f, \"fsync\": %.3f, \"queueing\": \
     %.3f, \"retransmit\": %.3f}, \"budget_hit\": %b}"
    r.T.label r.T.system r.T.mode r.T.seed r.T.n r.T.shards r.T.window
    r.T.batch r.T.offered r.T.issued r.T.completed r.T.failed r.T.shed
    r.T.ops_per_sec r.T.mean_latency r.T.p95_latency r.T.peak_backlog
    r.T.final_backlog r.T.batches r.T.batched_ops r.T.retransmissions
    r.T.stale_reads r.T.breakdown.Obs.Trace_analysis.network
    r.T.breakdown.Obs.Trace_analysis.fsync
    r.T.breakdown.Obs.Trace_analysis.queueing
    r.T.breakdown.Obs.Trace_analysis.retransmit r.T.budget_hit

(* Regular-register semantics is not negotiable at any throughput:
   this bench runs in CI. *)
let check (r : T.report) =
  if r.T.stale_reads > 0 then
    failwith
      (Printf.sprintf "throughput bench: %d stale reads at %s n=%d"
         r.T.stale_reads r.T.system r.T.n);
  r

let write_json sections =
  let oc = open_out (Util.out_path "BENCH_throughput.json") in
  let section (name, rows) =
    Printf.sprintf "  \"%s\": [\n%s\n  ]" name
      (String.concat ",\n" (List.map (fun j -> "    " ^ j) rows))
  in
  Printf.fprintf oc
    "{\n\
    \  \"bench\": \"throughput\",\n\
    \  \"fast\": %b,\n\
    \  \"seed\": %d,\n\
    \  \"horizon\": %g,\n\
    \  \"window\": %d,\n\
    \  \"batch\": %d,\n\
    \  \"fsync\": %g,\n\
     %s\n\
     }\n"
    !Util.fast seed (horizon ()) window batch fsync
    (String.concat ",\n" (List.map section sections));
  close_out oc

let run () =
  Printf.printf "\n== throughput: sessioned store, flat vs hierarchical ==\n";
  Printf.printf
    "(window %d, batch %d, service per_req 0.3 per_batch 0.1, fsync %g)\n"
    window batch fsync;

  (* --- closed-loop capacity sweep --------------------------------- *)
  Printf.printf "\nclosed-loop capacity sweep:\n%s\n" (T.header ());
  let sweep =
    List.concat_map
      (fun n ->
        let arms = Util.ok_or_die (T.arms ~n ()) in
        List.map
          (fun arm ->
            let obs = if n = breakdown_n then Some (Obs.create ()) else None in
            let r =
              check
                (fst
                   (T.run_h ~seed ~window ~batch_size:batch ~batch_delay ?obs
                      arm
                      (scenario ~label:"closed")))
            in
            Printf.printf "%s\n" (T.row r);
            r)
          arms)
      (ns ())
  in
  (* The acceptance bar: sharded hierarchical beats flat majority at
     every n >= 9 in the closed-loop sweep. *)
  List.iter
    (fun n ->
      if n >= 9 then
        let ops sys_prefix =
          match
            List.find_opt
              (fun (r : T.report) ->
                r.T.n = n
                && String.length r.T.system >= String.length sys_prefix
                && String.sub r.T.system 0 (String.length sys_prefix)
                   = sys_prefix)
              sweep
          with
          | Some r -> r.T.ops_per_sec
          | None -> 0.0
        in
        let flat = ops "flat-majority" and sharded = ops "shard-hgrid" in
        if sharded <= flat then
          failwith
            (Printf.sprintf
               "throughput bench: no crossover at n=%d (flat %.2f >= sharded \
                %.2f ops/s)"
               n flat sharded))
    (ns ());

  (* --- open-loop overload ------------------------------------------ *)
  let n = open_n in
  Printf.printf
    "\nopen-loop overload (n=%d, offered %.1f ops/s, max_queue %d):\n%s\n" n
    open_rate open_queue (T.header ());
  let overload =
    List.map
      (fun arm ->
        let r =
          check
            (fst
               (T.run_h ~seed ~mode:(T.Open open_rate) ~window
                  ~batch_size:batch ~batch_delay ~max_queue:open_queue arm
                  (scenario ~label:"open")))
        in
        Printf.printf "%s\n" (T.row r);
        r)
      (Util.ok_or_die (T.arms ~n ()))
  in

  (* --- batch ablation ---------------------------------------------- *)
  Printf.printf "\nbatch ablation (h-triang, n=%d, closed loop):\n%s\n" n
    (T.header ());
  let ablation =
    List.map
      (fun size ->
        let r =
          check
            (fst
               (T.run_h ~seed ~window ~batch_size:size ~batch_delay
                  (T.htriang_arm ~n)
                  (scenario ~label:Printf.(sprintf "batch=%d" size))))
        in
        Printf.printf "%s\n" (T.row r);
        r)
      ablation_sizes
  in

  (* Critical-path summary of the instrumented rows. *)
  (match
     List.filter (fun (r : T.report) -> r.T.n = breakdown_n) sweep
   with
  | [] -> ()
  | instrumented ->
      Printf.printf "\ncritical path at n=%d (time in component, closed loop):\n"
        breakdown_n;
      List.iter
        (fun (r : T.report) ->
          let b = r.T.breakdown in
          Printf.printf
            "  %-15s network %8.1f  fsync %8.1f  queueing %8.1f  retransmit \
             %8.1f\n"
            r.T.system b.Obs.Trace_analysis.network
            b.Obs.Trace_analysis.fsync b.Obs.Trace_analysis.queueing
            b.Obs.Trace_analysis.retransmit)
        instrumented);

  write_json
    [
      ("closed_loop", List.map json sweep);
      ("open_loop", List.map json overload);
      ("batch_ablation", List.map json ablation);
    ];
  Printf.printf "\n  wrote BENCH_throughput.json (seed %d)\n" seed
