(* Medians, the tail-support rule for percentiles, and outcome
   accounting shared by every workload. *)

(* Median of a non-empty sample; the mean of the middle pair when the
   count is even. *)
let median a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: empty sample";
  let s = Array.copy a in
  Array.sort compare s;
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* Sum over positions of the least value at each position, across
   samples of equal length: the time of a call run in stretches, taking
   each stretch from its fastest repetition. *)
let sum_of_fastest = function
  | [] -> invalid_arg "Stats.sum_of_fastest: no samples"
  | first :: _ as all ->
      let n = Array.length first in
      let best = Array.make n Float.infinity in
      List.iter
        (fun a ->
          if Array.length a <> n then invalid_arg "Stats.sum_of_fastest: unequal lengths";
          Array.iteri (fun i t -> best.(i) <- Float.min best.(i) t) a)
        all;
      Array.fold_left ( +. ) 0.0 best

(* --- Tail support ------------------------------------------------------ *)

(* A percentile is only reported as measured when at least this many
   samples lie beyond it; with fewer, one unlucky op moves it. *)
let min_beyond = 10

type tail = {
  q : float;
  value : float;
  samples : int;
  beyond : int;  (** samples strictly past the percentile's rank *)
  supported : bool;  (** [beyond >= min_beyond] *)
}

(* [value] is the nearest-rank [q]-quantile of [samples] samples, whose
   1-based rank is ceil (q * samples) clamped to [1, samples] — the
   convention of [Obs.Metrics.percentile]. *)
let tail_of ~samples ~value q =
  if q < 0.0 || q > 1.0 then invalid_arg "Stats.tail_of: q outside [0, 1]";
  let rank = min samples (max 1 (int_of_float (ceil (q *. float_of_int samples)))) in
  let beyond = samples - rank in
  { q; value; samples; beyond; supported = beyond >= min_beyond }

(* The [q]-quantile of a registry histogram, with its support. *)
let histogram_tail h q =
  tail_of ~samples:(Obs.Metrics.count h)
    ~value:(Obs.Metrics.percentile_or ~default:0.0 h q)
    q

(* The highest of [qs] that has enough samples beyond it, trying them
   in the given order. *)
let highest_supported tail_at qs =
  List.find_map (fun q -> let t = tail_at q in if t.supported then Some t else None) qs

let describe_tail t =
  Printf.sprintf "p%g=%.4f (n=%d, %d beyond%s)" (t.q *. 100.0) t.value
    t.samples t.beyond
    (if t.supported then "" else Printf.sprintf ", UNSUPPORTED: < %d beyond" min_beyond)

(* --- Outcome accounting ----------------------------------------------- *)

(* Every op the generator produced is attempted: shed ops (refused at
   submission) and failed ops (timed out, no quorum, abandoned) count
   against the total exactly like completed ones count for it. *)
type outcomes = { completed : int; failed : int; shed : int }

let attempted o = o.completed + o.failed + o.shed

let fail_share o =
  let a = attempted o in
  if a = 0 then invalid_arg "Stats.fail_share: nothing attempted"
  else float_of_int (o.failed + o.shed) /. float_of_int a
