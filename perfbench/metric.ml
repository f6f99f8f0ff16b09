(* Named, unit-carrying measurements and the result line. *)

(* --- The catalogue ---------------------------------------------------- *)

(* Must match BENCHMARK.json. *)
let end_to_end = [ ("setup_s", "s"); ("wall_us_per_op", "us"); ("peak_heap_mb", "MB") ]

let per_layer =
  [
    (* results of the untraced runs that are defined on only some
       workloads (0 elsewhere) *)
    ("sweep_s", "s");
    ("sim_goodput", "ops/tu");
    ("sim_latency_p50", "tu");
    ("sim_latency_p99", "tu");
    ("sim_latency_tail", "tu");
    ("sim_latency_tail_q", "quantile");
    ("sim_latency_samples", "count");
    ("fail_share", "share");
    (* quorum / core / systems *)
    ("quorum.select_ns", "ns");
    ("quorum.avail_mask_ns", "ns");
    (* analysis / lp *)
    ("analysis.exact_s", "s");
    ("analysis.live_sets_per_s", "1/s");
    ("analysis.lp_s", "s");
    ("analysis.lp_columns", "count");
    ("analysis.monte_carlo_s", "s");
    ("analysis.candidate_s_max", "s");
    (* exec *)
    ("exec.chunks", "count");
    ("exec.busy_share", "share");
    (* sim *)
    ("sim.events_per_op", "count");
    ("sim.minor_words_per_op", "words");
    ("prof.engine.heap.us_per_op", "us");
    ("prof.engine.loop.us_per_op", "us");
    ("prof.engine.dispatch.timer.us_per_op", "us");
    ("prof.sim.rpc.us_per_op", "us");
    ("prof.sim.durable.us_per_op", "us");
    ("sim.messages_per_op", "count");
    ("rpc.retransmits_per_op", "count");
    ("rpc.delivery_ratio", "share");
    ("durable.appends_per_op", "count");
    (* protocols *)
    ("protocol.dispatch_s_per_op", "s");
    ("store.attempts_per_op", "count");
    ("store.useful_attempt_ratio", "share");
    ("store.batch_mean", "count");
    ("store.hedges_per_op", "count");
    ("store.backlog_wait_p99", "tu");
    ("store.generator_lateness", "tu");
    ("store.cp.network_share", "share");
    ("store.cp.fsync_share", "share");
    ("store.cp.queueing_share", "share");
    ("store.cp.retransmit_share", "share");
    ("mutex.msgs_per_entry", "count");
    ("mutex.reselections_per_entry", "count");
    ("mutex.abandoned_share", "share");
    (* obs *)
    ("obs.trace_overhead", "ratio");
    ("obs.share", "share");
  ]

(* --- Values ------------------------------------------------------------ *)

type t = { name : string; unit_ : string; value : float }

let valid_char = function
  | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
  | _ -> false

(* Names are [A-Za-z0-9_.-]+, start with a letter or digit and stay
   within 64 characters. *)
let valid_name s =
  let n = String.length s in
  n > 0 && n <= 64
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all valid_char s

let make name unit_ value =
  if not (valid_name name) then invalid_arg ("Metric.make: bad name " ^ name);
  if not (Float.is_finite value) then
    invalid_arg (Printf.sprintf "Metric.make: %s is not finite" name);
  { name; unit_; value }

(* [%.17g] keeps every digit the measurement has. *)
let json_number v = Printf.sprintf "%.17g" v

let render m = Printf.sprintf "%-40s %20s %s" m.name (json_number m.value) m.unit_

let result_line ~correct ~attempted ~failed metrics =
  let field m =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
      (json_number m.value) m.unit_
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map field metrics))
