(* One command for the repository's benchmark.

     main.exe --workload W --seed N --seconds S --trace 0|1

   Workloads: store-read, store-write-overload, mutex-restart,
   optimize-n18 (see README.md for why each exists and which layer it
   exercises).  A run repeats the workload's timed call for S seconds
   of wall time with tracing off, checks every repetition's outputs,
   and prints the end-to-end metrics.  With --trace 1 it then makes one
   traced run (trace ring, spans and profiler on) and prints the
   per-layer metrics instead.  The last line of standard output is one
   JSON object: correct, attempted (timed calls), failed (timed calls
   whose outputs failed a check) and metrics.  Any correctness or
   determinism failure exits 1. *)

open Perfbench

let now = Unix.gettimeofday
let say fmt = Printf.printf (fmt ^^ "\n%!")

(* Every catalogued metric, in catalogue order; a metric the workload
   does not exercise reads 0. *)
let emit catalogue values =
  List.map
    (fun (name, unit_) ->
      Metric.make name unit_ (Option.value ~default:0.0 (List.assoc_opt name values)))
    catalogue

(* --- Timed repetitions ------------------------------------------------- *)

(* Correctness and determinism failures, in the order found. *)
let errors = ref []
let error fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt

type rep = { run_s : float; minor_words : float }

(* One repetition: set-up, then the timed call, after a full major
   collection so earlier repetitions leave no garbage behind. *)
let timed ~setup ~run =
  Gc.full_major ();
  let p = setup () in
  let t1 = now () in
  let w0 = Gc.minor_words () in
  let out = run p in
  let w1 = Gc.minor_words () in
  let t2 = now () in
  (p, out, { run_s = t2 -. t1; minor_words = w1 -. w0 })

(* Peak OCaml heap so far.  Read right after the first run of the
   workload — the first heavy work of the process — it is that run's
   peak. *)
let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

let median_of f reps = Stats.median (Array.of_list (List.map f reps))

(* Seconds of the timed call.  A simulation runs in stretches of
   simulated time, and every repetition of a seed does bit for bit the
   same work in each stretch (the determinism check below), so the call
   is timed as the sum over stretches of the fastest repetition of
   each.  On a shared host a co-tenant only ever adds time: a 2-vCPU
   KVM guest alternated, within seconds, between a fast state and one
   about 1.6 times slower, and the share of a run spent slow changed
   from minute to minute.  The median repetition of a whole call
   tracks that share: over eight 20 s runs of store-read it spread by
   0.25 (quartile distance over median).  A stretch of a few
   milliseconds almost always meets the fast state in some repetition:
   two sets of ten 25 s runs timed this way spread by 0.04 and 0.06.
   The sweep runs in one piece and is timed by its median repetition. *)
let call_seconds reps stretches =
  match stretches with
  | first :: _ when Array.length first > 0 -> Stats.sum_of_fastest stretches
  | _ -> median_of (fun r -> r.run_s) reps

(* Repeat [once] for [seconds] of wall time, at least three times.
   Before each repetition, time [setup_batches] batches of set-ups of
   at least 10 ms each, so that set-up is sampled over the same stretch
   of time as the timed call.  Each batch starts on a heap just
   collected, like the timed call's set-up: batches that inherit
   garbage run markedly slower, and a median over the two kinds is
   unsteady.  Returns the median seconds per set-up over all batches,
   and the repetitions. *)
let setup_batches = 2

let repeat ~seconds ~setup once =
  let time_setup =
    Layers.batch_timer ~min_s:0.01 (fun _ -> ignore (Sys.opaque_identity (setup ())))
  in
  let deadline = now () +. seconds in
  let rec go setups acc =
    let setups =
      List.init setup_batches (fun _ -> Gc.full_major (); time_setup ()) @ setups
    in
    let acc = once () :: acc in
    if now () < deadline || List.length acc < 3 then go setups acc
    else begin
      let setups = Array.of_list setups in
      say "# set-up: %d batches, median %.3g s, min %.3g s" (Array.length setups)
        (Stats.median setups) (Array.fold_left Float.min Float.infinity setups);
      (Stats.median setups, List.rev acc)
    end
  in
  go [] []

(* --- Simulator workloads ----------------------------------------------- *)

type sim_wl = {
  setup : seed:int -> unit;  (** set-up alone, for {!repeat} *)
  attempt : seed:int -> obs:Obs.t -> rep * Layers.sim * (unit -> (string * float) list);
      (** one set-up + timed call; the closure reads trace-only layers *)
  whole : (seed:int -> Layers.sim) option;
      (** for a call run in stretches: the same call in one piece *)
  systems : unit -> Quorum.System.t list;
}

let sim_attempt ~setup ~run ~result ~traced ~seed ~obs =
  let p, out, rep = timed ~setup:(fun () -> setup ~seed ~obs) ~run in
  let sim = result p out in
  (rep, sim, fun () -> traced p sim)

let untraced_obs () = Obs.create ~trace_capacity:0 ()

let store_wl spec =
  let attempt run =
    sim_attempt ~setup:(Wl_store.setup spec) ~run ~result:Wl_store.result
      ~traced:Wl_store.traced_layer
  in
  {
    setup = (fun ~seed -> ignore (Wl_store.setup spec ~seed ~obs:(untraced_obs ())));
    attempt = attempt Wl_store.run;
    whole =
      Some
        (fun ~seed ->
          let _, sim, _ = attempt Wl_store.run_whole ~seed ~obs:(untraced_obs ()) in
          sim);
    systems = (fun () -> Wl_store.systems spec);
  }

let mutex_wl =
  {
    setup = (fun ~seed -> ignore (Wl_mutex.setup ~seed ~obs:(untraced_obs ())));
    attempt =
      sim_attempt ~setup:Wl_mutex.setup ~run:Wl_mutex.run ~result:Wl_mutex.result
        ~traced:(fun _ _ -> []);
    whole = Some (fun ~seed -> Wl_mutex.whole ~seed ~obs:(untraced_obs ()));
    systems = (fun () -> [ Wl_mutex.system () ]);
  }

let check_sim ~what (sim : Layers.sim) =
  List.iter (fun e -> error "%s: %s" what e) sim.errors

(* [~words:false] for a traced run, which allocates for its trace. *)
let same_sim ?(words = true) ~what (a_rep, (a : Layers.sim)) (b_rep, (b : Layers.sim)) =
  if a.fingerprint <> b.fingerprint then
    error "determinism: %s: simulated results differ for the same seed" what;
  if words && a_rep.minor_words <> b_rep.minor_words then
    error "determinism: %s: %.0f vs %.0f minor words for the same seed" what
      a_rep.minor_words b_rep.minor_words

(* The traced run's profile; its shares must sum to 1 within 1%. *)
let checked_profile obs =
  let prof = Obs.Prof.report (Obs.prof obs) in
  let sum = List.fold_left (fun a (row : Obs.Prof.row) -> a +. row.time_share) 0.0 prof.rows in
  if Float.abs (sum -. 1.0) > 0.01 then error "profile shares sum to %.4f, not 1 within 1%%" sum;
  prof

let untraced wl ~seed =
  let rep, sim, _ = wl.attempt ~seed ~obs:(untraced_obs ()) in
  check_sim ~what:(Printf.sprintf "untraced run, seed %d" seed) sim;
  (rep, sim)

let run_sim wl ~seed ~seconds ~trace =
  (* An untimed warm-up repetition, checked like the others. *)
  let warm = untraced wl ~seed in
  let peak = peak_heap_mb () in
  (* Each repetition is compared with the warm-up and only its timings
     kept, so the live heap stays the same from one to the next. *)
  let nrep = ref 0 in
  let once () =
    incr nrep;
    let r = untraced wl ~seed in
    same_sim ~what:(Printf.sprintf "repetition %d" !nrep) warm r;
    (fst r, (snd r).Layers.stretches)
  in
  let setup, runs = repeat ~seconds ~setup:(fun () -> wl.setup ~seed) once in
  let reps = List.map fst runs in
  let _, other = untraced wl ~seed:(seed + 1) in
  let rep0, sim = warm in
  if other.Layers.fingerprint = sim.fingerprint then
    error "determinism: seeds %d and %d give identical simulated results" seed (seed + 1);
  Option.iter
    (fun whole ->
      let w = whole ~seed in
      check_sim ~what:"run in one piece" w;
      if w.Layers.fingerprint <> sim.fingerprint then
        error "determinism: running the call in stretches changes its simulated results")
    wl.whole;
  let attempted = Stats.attempted sim.outcomes in
  let median_s = median_of (fun r -> r.run_s) reps in
  let run_s = call_seconds reps (List.map snd runs) in
  say "# %d timed repetitions over %d attempted ops: %.3f s timed, %.3f s median repetition"
    (List.length reps) attempted run_s median_s;
  say "# %.1f minor words per attempted op" (rep0.minor_words /. float_of_int attempted);
  say "# outcomes: %d completed, %d failed, %d shed; fail_share %.4f"
    sim.outcomes.completed sim.outcomes.failed sim.outcomes.shed
    (Stats.fail_share sim.outcomes);
  let p50 = sim.latency 0.5 and p99 = sim.latency 0.99 in
  let tail = Stats.highest_supported sim.latency [ 0.99; 0.95; 0.9; 0.75; 0.5 ] in
  say "# latency from due time: %s, %s" (Stats.describe_tail p50) (Stats.describe_tail p99);
  if not p99.supported then
    say "# sim_latency_p99 not reported: fewer than %d samples beyond it" Stats.min_beyond;
  let e2e =
    [
      ("setup_s", setup);
      ("wall_us_per_op", run_s *. 1e6 /. float_of_int attempted);
      ("peak_heap_mb", peak);
    ]
  in
  let results =
    [
      ("sim_goodput", float_of_int sim.outcomes.completed /. sim.horizon);
      ("sim_latency_p50", p50.value);
      ("sim_latency_p99", if p99.supported then p99.value else 0.0);
      ("sim_latency_tail", match tail with Some t -> t.value | None -> 0.0);
      ("sim_latency_tail_q", match tail with Some t -> t.q | None -> 0.0);
      ("sim_latency_samples", float_of_int p50.samples);
      ("fail_share", Stats.fail_share sim.outcomes);
    ]
  in
  let layer =
    if not trace then []
    else begin
      let obs = Obs.create ~trace_capacity:(1 lsl 21) ~profile:true () in
      let trep, tsim, traced_layer = wl.attempt ~seed ~obs in
      check_sim ~what:"traced run" tsim;
      same_sim ~words:false ~what:"traced run" (rep0, sim) (trep, tsim);
      let prof = checked_profile obs in
      let pevents = Layers.prof_events prof in
      say "# traced run: %.3f s; profile:\n%s" trep.run_s (Obs.Prof.render (Obs.prof obs));
      let samples = Layers.simulated_samples obs in
      let c = Layers.counter samples in
      let per_op x = x /. float_of_int attempted in
      let us cat = per_op (Layers.prof_seconds prof cat *. 1e6) in
      let all_msgs = c "sim.messages_sent" + c "sim.messages_background" in
      List.concat
        [
          [
            ("quorum.select_ns", Layers.select_ns ~seed (wl.systems ()));
            ("quorum.avail_mask_ns", Layers.avail_mask_ns ~seed (wl.systems ()));
            ("sim.events_per_op", per_op (float_of_int pevents));
            ("sim.minor_words_per_op", per_op rep0.minor_words);
            ("prof.engine.heap.us_per_op", us Obs.Prof.Heap);
            ("prof.engine.loop.us_per_op", us Obs.Prof.Loop);
            ("prof.engine.dispatch.timer.us_per_op", us Obs.Prof.Dispatch_timer);
            ("prof.sim.rpc.us_per_op", us Obs.Prof.Rpc);
            ("prof.sim.durable.us_per_op", us Obs.Prof.Durable);
            ("sim.messages_per_op", per_op (float_of_int (c "sim.messages_sent")));
            ("rpc.retransmits_per_op", per_op (float_of_int (c "rpc.retransmits")));
            ("rpc.delivery_ratio", Layers.per (c "sim.messages_delivered") all_msgs);
            ("protocol.dispatch_s_per_op", per_op (Layers.prof_seconds prof Obs.Prof.Dispatch_msg));
            ("obs.trace_overhead", trep.run_s /. median_s);
            ("obs.share", Layers.obs_share prof);
          ];
          traced_layer ();
        ]
    end
  in
  (List.length reps + 1, e2e, results @ sim.layer @ layer)

(* --- The analysis workload --------------------------------------------- *)

let run_optimize ~seed ~seconds ~trace =
  let jobs = 2 in
  let cands = Wl_optimize.setup () in
  (* The pool-size-1 sweep is the reference every pooled sweep must
     equal bit for bit.  Run before any second domain exists, as the
     first heavy work of the process, it also gives the heap peak.  A
     pooled sweep's peak depends on how its two domains interleave: over
     runs of the same code it spread by 0.14 (quartile distance over
     median), so no workload measures the pooled heap. *)
  let report0 =
    Exec.Pool.with_pool ~jobs:1 (fun p1 -> Wl_optimize.sweep ~pool:p1 ~seed cands)
  in
  let peak = peak_heap_mb () in
  Exec.Pool.with_pool ~jobs (fun pool ->
      let bits r = Marshal.to_string r [] in
      let once () =
        let _, report, rep =
          timed ~setup:Wl_optimize.setup ~run:(Wl_optimize.sweep ~pool ~seed)
        in
        if bits report <> bits report0 then
          error "sweep report differs between pool sizes 1 and %d" jobs;
        rep
      in
      ignore (once () : rep);
      let setup, reps = repeat ~seconds ~setup:Wl_optimize.setup once in
      let ncand = Array.length cands in
      let nerr = List.length report0.errors in
      List.iter (fun (l, e) -> say "# candidate %s failed: %s" l e) report0.errors;
      let sweep_s = median_of (fun r -> r.run_s) reps in
      say "# %d timed sweeps of %.3f s (median) over %d candidates, %d on the frontier"
        (List.length reps) sweep_s ncand (List.length report0.frontier);
      let e2e =
        [
          ("setup_s", setup);
          ("wall_us_per_op", sweep_s *. 1e6 /. float_of_int ncand);
          ("peak_heap_mb", peak);
        ]
      in
      let results =
        [ ("sweep_s", sweep_s); ("fail_share", Layers.per nerr ncand) ]
      in
      let layer =
        if not trace then []
        else begin
          let obs = Obs.create ~trace_capacity:0 ~profile:true () in
          let traced =
            Exec.Pool.with_pool ~jobs ~metrics:(Obs.metrics obs) ~prof:(Obs.prof obs)
              (fun tp ->
                let t0 = now () in
                let r = Wl_optimize.sweep ~pool:tp ~seed cands in
                (r, now () -. t0))
          in
          let treport, twall = traced in
          if bits treport <> bits report0 then error "traced sweep differs from untraced";
          let prof = checked_profile obs in
          let samples = Obs.Metrics.snapshot (Obs.metrics obs) in
          let chunk_sum_ms, chunk_max_ms = Wl_optimize.chunk_ms samples in
          let k = Wl_optimize.kernels ~seed cands in
          let systems = List.concat_map Wl_optimize.systems_of (Array.to_list cands) in
          [
            ("quorum.select_ns", Layers.select_ns ~seed systems);
            ("quorum.avail_mask_ns", Layers.avail_mask_ns ~seed systems);
            ("analysis.exact_s", k.exact_s);
            ( "analysis.live_sets_per_s",
              float_of_int (k.exact_calls * (1 lsl Wl_optimize.n)) /. k.exact_s );
            ("analysis.lp_s", k.lp_s);
            ("analysis.lp_columns", float_of_int k.lp_columns);
            ("analysis.monte_carlo_s", k.monte_carlo_s);
            ("analysis.candidate_s_max", chunk_max_ms /. 1000.0);
            ("exec.chunks", float_of_int (Layers.counter samples "exec.chunks"));
            ("exec.busy_share", chunk_sum_ms /. 1000.0 /. (float_of_int jobs *. twall));
            ("obs.trace_overhead", twall /. sweep_s);
            ("obs.share", Layers.obs_share prof);
          ]
        end
      in
      (List.length reps + 1, e2e, results @ layer))

(* --- Command line ------------------------------------------------------ *)

let workloads =
  [
    ("store-read", fun ~seed ~seconds ~trace -> run_sim (store_wl Wl_store.read_heavy) ~seed ~seconds ~trace);
    ( "store-write-overload",
      fun ~seed ~seconds ~trace -> run_sim (store_wl Wl_store.write_overload) ~seed ~seconds ~trace );
    ("mutex-restart", fun ~seed ~seconds ~trace -> run_sim mutex_wl ~seed ~seconds ~trace);
    ("optimize-n18", run_optimize);
  ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of the workloads");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S wall seconds of timed repetitions");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let run =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None ->
        prerr_endline
          ("error: unknown workload " ^ !workload ^ " (have: "
          ^ String.concat ", " (List.map fst workloads) ^ ")");
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then (prerr_endline "error: --trace is 0 or 1"; exit 2);
  say "# workload %s, seed %d, %g s, trace %d" !workload !seed !seconds !trace;
  let t0 = now () in
  let calls, e2e, layer = run ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) in
  let metrics = if !trace = 1 then emit Metric.per_layer layer else emit Metric.end_to_end e2e in
  List.iter (fun m -> say "%s" (Metric.render m)) metrics;
  let errs = List.rev !errors in
  List.iter (fun e -> say "# ERROR %s" e) errs;
  say "# total wall %.1f s" (now () -. t0);
  let correct = errs = [] in
  say "%s"
    (Metric.result_line ~correct ~attempted:calls ~failed:(if correct then 0 else calls) metrics);
  if not correct then exit 1
