module Engine = Sim.Engine
module Ta = Obs.Trace_analysis

type protocol = Mutex | Store | Reconfig | Throughput

let protocol_name = function
  | Mutex -> "mutex"
  | Store -> "store"
  | Reconfig -> "reconfig"
  | Throughput -> "throughput"

(* The pinned chaos seeds (bench chaos writes them into
   BENCH_chaos.json, bench throughput into BENCH_throughput.json);
   reports made with the defaults are replayed exactly by any other
   tool using the same seed. *)
let default_seed = function
  | Mutex -> 41
  | Store -> 42
  | Reconfig -> 43
  | Throughput -> 46

type t = {
  protocol : protocol;
  system : string;
  scenario : string;
  seed : int;
  horizon : float;
  summary : string;  (** chaos header + row, fixed width *)
  profiles : Ta.op_profile list;
  audit : Ta.audit option;  (** [None] for the mutex (no data history) *)
  obs : Obs.t;
}

let run ?seed ?(horizon = 400.0) ?(trace_capacity = 1 lsl 19) ?next ~protocol
    ~system ~scenario () =
  let seed = match seed with Some s -> s | None -> default_seed protocol in
  let next = Option.value next ~default:system in
  let n =
    match protocol with
    | Mutex | Store | Throughput -> system.Quorum.System.n
    | Reconfig -> max system.Quorum.System.n next.Quorum.System.n
  in
  let s = Chaos.scenario_of_label ~n ~horizon scenario in
  let obs = Obs.create ~trace_capacity ~profile:true () in
  let summary, audit, name =
    match protocol with
    | Mutex ->
        let r, _mx = Chaos.run_mutex_h ~seed ~obs ~system s in
        ( Chaos.mutex_header () ^ "\n" ^ Chaos.mutex_row r,
          None,
          system.Quorum.System.name )
    | Store ->
        let r, store =
          Chaos.run_store_h ~seed ~obs ~read_system:system
            ~write_system:system ~name:system.Quorum.System.name s
        in
        ( Chaos.store_header () ^ "\n" ^ Chaos.store_row r,
          Some
            (Ta.audit_history ~trace:(Obs.trace obs) ~spans:(Obs.spans obs)
               (Replicated_store.history store)),
          system.Quorum.System.name )
    | Throughput ->
        let arm =
          {
            Throughput.arm_label = system.Quorum.System.name;
            read_sys = system;
            write_sys = system;
            router = None;
          }
        in
        let r, store = Throughput.run_h ~seed ~obs arm s in
        ( Throughput.header () ^ "\n" ^ Throughput.row r,
          Some
            (Ta.audit_history ~trace:(Obs.trace obs) ~spans:(Obs.spans obs)
               (Replicated_store.history store)),
          system.Quorum.System.name )
    | Reconfig ->
        let name =
          system.Quorum.System.name ^ "->" ^ next.Quorum.System.name
        in
        let r, rc =
          Chaos.run_reconfig_h ~seed ~obs ~initial:system ~next ~name s
        in
        ( Chaos.reconfig_header () ^ "\n" ^ Chaos.reconfig_row r,
          Some
            (Ta.audit_history ~trace:(Obs.trace obs) ~spans:(Obs.spans obs)
               (Reconfig.history rc)),
          name )
  in
  let profiles =
    Ta.profile_ops ~trace:(Obs.trace obs) ~spans:(Obs.spans obs) ()
  in
  {
    protocol;
    system = name;
    scenario = s.Chaos.label;
    seed;
    horizon;
    summary;
    profiles;
    audit;
    obs;
  }

(* --- Markdown rendering --------------------------------------------- *)

let pct part total = if total <= 0.0 then 0.0 else 100.0 *. part /. total

let latency_section buf profiles =
  Buffer.add_string buf "## Operation latency (critical-path breakdown)\n\n";
  if profiles = [] then
    Buffer.add_string buf
      "No finished operations were profiled (empty trace or no spans).\n\n"
  else begin
    Buffer.add_string buf
      "| op | count | complete | mean | p50 | p90 | p99 | max | network | \
       fsync | queueing | retransmit |\n";
    Buffer.add_string buf
      "|---|---|---|---|---|---|---|---|---|---|---|---|\n";
    List.iter
      (fun (name, ps) ->
        let a = Ta.aggregate ps in
        let t = Ta.breakdown_total a.Ta.total in
        Printf.bprintf buf
          "| %s | %d | %d | %.2f | %.2f | %.2f | %.2f | %.2f | %.1f%% | \
           %.1f%% | %.1f%% | %.1f%% |\n"
          name a.Ta.count a.Ta.complete a.Ta.mean a.Ta.p50 a.Ta.p90 a.Ta.p99
          a.Ta.max_v
          (pct a.Ta.total.Ta.network t)
          (pct a.Ta.total.Ta.fsync t)
          (pct a.Ta.total.Ta.queueing t)
          (pct a.Ta.total.Ta.retransmit t))
      (Ta.by_name profiles);
    Buffer.add_string buf
      "\nBreakdown components partition each operation's end-to-end \
       latency; percentages are of total time in that op class.\n\n"
  end

let audit_section buf = function
  | None ->
      Buffer.add_string buf
        "## Consistency audit\n\n\
         Not applicable: the mutex records no read/write history (safety \
         is the violations counter above).\n\n"
  | Some (a : Ta.audit) ->
      Printf.bprintf buf
        "## Consistency audit\n\n\
         Checked %d reads against %d writes (stale-read, read-your-writes, \
         monotonic-reads): **%s**\n\n"
        a.Ta.reads a.Ta.writes (Ta.verdict a);
      List.iter
        (fun (v : Ta.violation) ->
          Printf.bprintf buf "- `%s`: %s (%d witnessing trace events)\n"
            v.Ta.check v.Ta.detail (List.length v.Ta.witness))
        a.Ta.violations;
      if a.Ta.violations <> [] then Buffer.add_char buf '\n'

(* The failure detector's oracle-measured health, when the run carried
   one (the mutex and store always do; the bare register only with
   [with_fd]).  [fd.beats_sent] doubles as the presence probe: a
   detector that never beat never ran. *)
let fd_section buf obs =
  let m = Obs.metrics obs in
  let c name = Obs.Metrics.(counter_value (counter m name)) in
  if c "fd.beats_sent" > 0 then begin
    let detect = Obs.Metrics.histogram m "fd.detection_latency" in
    Buffer.add_string buf "## Failure-detector health\n\n";
    Buffer.add_string buf "| metric | value |\n|---|---|\n";
    Printf.bprintf buf "| suspicion transitions | %d |\n" (c "fd.transitions");
    Printf.bprintf buf "| false-positive onsets | %d |\n"
      (c "fd.false_positives");
    Printf.bprintf buf "| false-suspicion samples | %d |\n"
      (c "fd.false_suspicions");
    Printf.bprintf buf "| missed-detection samples | %d |\n"
      (c "fd.missed_suspicions");
    Printf.bprintf buf "| crash detections | %d |\n"
      (Obs.Metrics.count detect);
    Printf.bprintf buf "| detection latency | %s |\n"
      (Obs.Metrics.summary detect);
    let hedges = c "store.hedges" in
    let degraded = c "store.degraded_writes" in
    if hedges > 0 then Printf.bprintf buf "| hedged requests | %d |\n" hedges;
    if degraded > 0 then
      Printf.bprintf buf "| degraded-mode write refusals | %d |\n" degraded;
    Buffer.add_string buf
      "\nOnsets count suspicion flips against the engine oracle; sample \
       counts accumulate once per beat period per (observer, peer).\n\n"
  end

let trace_section buf obs =
  let tr = Obs.trace obs in
  let dropped = Obs.Trace.dropped tr in
  let metered =
    Obs.Metrics.(
      counter_value (counter (Obs.metrics obs) "obs.trace.dropped"))
  in
  Printf.bprintf buf
    "## Trace health\n\n\
     %d events recorded, %d buffered, %d evicted by the ring \
     (`obs.trace.dropped` metered %d).\n"
    (Obs.Trace.recorded tr) (Obs.Trace.length tr) dropped metered;
  (let sp = Obs.spans obs in
   let k = Obs.Span.sampler_keep_1_in sp in
   if k <> 1 then
     Printf.bprintf buf
       "Span sampling: 1 in %d — kept %d of %d root spans; descendants \
        follow their root, so surviving trees are complete.\n"
       k (Obs.Span.roots_kept sp) (Obs.Span.roots_seen sp)
   else if Obs.Span.roots_seen sp > 0 then
     Printf.bprintf buf "Span sampling: off — all %d root spans kept.\n"
       (Obs.Span.roots_seen sp));
  if dropped > 0 then
    Buffer.add_string buf
      "**Warning:** the ring overwrote events; causal chains may be \
       broken (profiles above marked incomplete) and the causality check \
       below is advisory only.\n";
  (match Obs.Trace.causality_violations tr with
  | [] ->
      Buffer.add_string buf
        "Causality: ok — every surviving deliver links to a recorded \
         send.\n\n"
  | vs ->
      Printf.bprintf buf
        "Causality: %d deliver(s) without a matching send%s.\n\n"
        (List.length vs)
        (if dropped > 0 then " (expected: their sends were evicted)"
         else ""))

(* The simulator's own cost, when the run was profiled.  Everything
   else in the report is simulated (deterministic, seed-replayable);
   these are real wall-clock and allocation measurements of the engine
   and vary run to run — the per-category *shares* are the signal. *)
let profile_section buf obs =
  let p = Obs.prof obs in
  if Obs.Prof.enabled p then begin
    let r = Obs.Prof.report p in
    if r.Obs.Prof.rows <> [] then begin
      Buffer.add_string buf "## Engine profile\n\n";
      Buffer.add_string buf
        "Simulator self-measurement (real wall time and minor-heap \
         allocation, not simulated time).  Absolute numbers vary run to \
         run; the per-category shares are the signal and sum to 100% of \
         the probed total.\n\n";
      Buffer.add_string buf (Obs.Prof.render_markdown p);
      if r.Obs.Prof.truncated > 0 || r.Obs.Prof.unbalanced > 0 then
        Printf.bprintf buf
          "\n**Warning:** probe stack anomalies (%d truncated, %d \
           unbalanced) — attribution is approximate.\n"
          r.Obs.Prof.truncated r.Obs.Prof.unbalanced;
      Buffer.add_char buf '\n'
    end
  end

let to_markdown t =
  let buf = Buffer.create 4096 in
  Printf.bprintf buf "# Chaos run report: %s / %s / %s\n\n"
    (protocol_name t.protocol) t.system t.scenario;
  Printf.bprintf buf
    "Seed %d, horizon %g simulated time units.  The run is deterministic: \
     the same protocol, system, scenario and seed replay it exactly.\n\n"
    t.seed t.horizon;
  Buffer.add_string buf "## Run summary\n\n```\n";
  Buffer.add_string buf t.summary;
  Buffer.add_string buf "\n```\n\n";
  latency_section buf t.profiles;
  audit_section buf t.audit;
  fd_section buf t.obs;
  trace_section buf t.obs;
  profile_section buf t.obs;
  Buffer.add_string buf "## Metrics registry\n\n```\n";
  Buffer.add_string buf (Obs.Metrics.render (Obs.metrics t.obs));
  Buffer.add_string buf "```\n";
  Buffer.contents buf
