(* optimize-n18: one [Optimizer.sweep] over the n = 18 catalogue — all
   analysis (exact enumeration, load LPs, sampling), no simulator. *)

module Opt = Analysis.Optimizer
module Metrics = Obs.Metrics

let n = 18
let trials = 50_000

let workload =
  match
    Analysis.Workload.make ~failures:(Analysis.Workload.Iid 0.1) ~resilience:1
      ~read_fraction:0.9 ()
  with
  | Ok w -> w
  | Error e -> failwith e

(* Set-up is the candidate list. *)
let setup () = Array.of_list (Opt.candidates ~n)

let sweep ?pool ~seed candidates =
  match
    Opt.sweep ?pool ~trials ~seed ~candidates:(Array.to_list candidates)
      ~workload ~n ()
  with
  | Ok r -> r
  | Error e -> failwith e

let build spec =
  match Core.Registry.build spec with Ok s -> s | Error e -> failwith e

(* Read and write system of a candidate; one system when symmetric. *)
let systems_of (c : Opt.candidate) =
  if c.read_spec = c.write_spec then [ build c.read_spec ]
  else [ build c.read_spec; build c.write_spec ]

let is_threshold_pair (c : Opt.candidate) =
  String.length c.read_spec >= 7 && String.sub c.read_spec 0 7 = "thresh("

(* The analysis kernels the sweep spends its time in, timed one by one
   on every candidate, sequentially: exact failure polynomials, the
   load LP (plain or mixed) and, where no quorum list enumerates, the
   sampled selection strategy. *)
type kernels = {
  exact_s : float;
  exact_calls : int;
  lp_s : float;
  lp_columns : int;
  monte_carlo_s : float;
}

let time f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

let kernels ~seed candidates =
  let fr = workload.Analysis.Workload.read_fraction in
  let rng = Quorum.Rng.create seed in
  Array.fold_left
    (fun k (c : Opt.candidate) ->
      let systems = systems_of c in
      let k =
        List.fold_left
          (fun k s ->
            let (_ : Quorum.Failure_poly.t), dt =
              time (fun () -> Analysis.Failure.exact_poly s)
            in
            { k with exact_s = k.exact_s +. dt; exact_calls = k.exact_calls + 1 })
          k systems
      in
      if is_threshold_pair c then k
      else
        match systems with
        | [ s ] -> (
            match time (fun () -> Analysis.Load.try_optimal s) with
            | Ok _, dt ->
                let cols =
                  match Quorum.System.quorums s with
                  | Ok qs -> List.length qs
                  | Error _ -> 0
                in
                { k with lp_s = k.lp_s +. dt; lp_columns = k.lp_columns + cols }
            | Error _, dt ->
                let (_ : Quorum.Strategy.empirical), mc =
                  time (fun () ->
                      Quorum.Strategy.empirical_of_select ~n:s.n ~trials rng
                        s.select)
                in
                { k with lp_s = k.lp_s +. dt; monte_carlo_s = k.monte_carlo_s +. mc })
        | rs :: ws :: _ -> (
            match (Quorum.System.quorums rs, Quorum.System.quorums ws) with
            | Ok reads, Ok writes ->
                let _, dt =
                  time (fun () -> Opt.mixed_load ~read_fraction:fr ~n ~reads ~writes)
                in
                {
                  k with
                  lp_s = k.lp_s +. dt;
                  lp_columns = k.lp_columns + List.length reads + List.length writes;
                }
            | _ -> k)
        | [] -> k)
    { exact_s = 0.0; exact_calls = 0; lp_s = 0.0; lp_columns = 0; monte_carlo_s = 0.0 }
    candidates

(* The pool's own instruments, from the traced sweep's registry. *)
let chunk_ms samples =
  List.fold_left
    (fun (sum, mx) (s : Metrics.sample) ->
      match s.value with
      | Metrics.Histogram h when s.name = "exec.chunk_ms" ->
          (sum +. h.total, Float.max mx h.max_v)
      | _ -> (sum, mx))
    (0.0, 0.0) samples
