(* Tests of the benchmark's own helpers: the tail-support rule for
   nearest-rank percentiles, the stretch-wise call time, outcome
   accounting, and metric names. *)

open Perfbench

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end

let raises f = match f () with _ -> false | exception Invalid_argument _ -> true

(* A registry histogram holding 1, 2, ..., n. *)
let ascending n =
  let h = Obs.Metrics.histogram (Obs.Metrics.create ()) "h" in
  for i = 1 to n do
    Obs.Metrics.observe h (float_of_int i)
  done;
  h

(* A p99 is reported only with at least ten samples beyond it. *)
let test_tail_support () =
  let t = Stats.histogram_tail (ascending 1000) 0.99 in
  check "p99 of 1..1000 is 990" (t.value = 990.0);
  check "1000 samples: 10 beyond p99" (t.beyond = 10 && t.supported);
  let t = Stats.histogram_tail (ascending 999) 0.99 in
  check "999 samples: 9 beyond p99, flagged" (t.beyond = 9 && not t.supported);
  let h = ascending 138 in
  check "138 samples: p99 flagged" (not (Stats.histogram_tail h 0.99).supported);
  (match Stats.highest_supported (Stats.histogram_tail h) [ 0.99; 0.95; 0.9; 0.5 ] with
  | Some t -> check "138 samples: p90 is the highest supported" (t.q = 0.9 && t.value = 125.0)
  | None -> check "138 samples: some percentile supported" false);
  check "no percentile of 5 samples is supported"
    (Stats.highest_supported (Stats.histogram_tail (ascending 5)) [ 0.99; 0.5 ] = None);
  let t = Stats.histogram_tail (ascending 0) 0.5 in
  check "no samples: nothing supported" (t.samples = 0 && not t.supported);
  check "tail_of rejects q > 1" (raises (fun () -> Stats.tail_of ~samples:5 ~value:0.0 1.5))

let test_median () =
  check "odd median" (Stats.median [| 3.0; 1.0; 2.0 |] = 2.0);
  check "even median" (Stats.median [| 4.0; 1.0; 3.0; 2.0 |] = 2.5);
  check "empty median raises" (raises (fun () -> Stats.median [||]))

(* A call run in stretches is timed from each stretch's fastest
   repetition. *)
let test_sum_of_fastest () =
  check "sum of per-stretch minima"
    (Stats.sum_of_fastest [ [| 3.0; 1.0; 2.0 |]; [| 1.0; 4.0; 2.0 |] ] = 4.0);
  check "one repetition is its own sum" (Stats.sum_of_fastest [ [| 0.5; 0.25 |] ] = 0.75);
  check "no repetitions raises" (raises (fun () -> Stats.sum_of_fastest []));
  check "unequal stretch counts raise"
    (raises (fun () -> Stats.sum_of_fastest [ [| 1.0 |]; [| 1.0; 2.0 |] ]))

(* Shed and failed ops both count against the attempted total. *)
let test_fail_share () =
  let o = { Stats.completed = 8; failed = 1; shed = 1 } in
  check "attempted counts every outcome" (Stats.attempted o = 10);
  check "fail_share counts failed and shed" (Stats.fail_share o = 0.2);
  check "all completed: fail_share 0"
    (Stats.fail_share { Stats.completed = 5; failed = 0; shed = 0 } = 0.0);
  check "all shed: fail_share 1"
    (Stats.fail_share { Stats.completed = 0; failed = 0; shed = 4 } = 1.0);
  check "nothing attempted raises"
    (raises (fun () -> Stats.fail_share { Stats.completed = 0; failed = 0; shed = 0 }))

let test_names () =
  List.iter
    (fun (name, _) -> check ("valid name " ^ name) (Metric.valid_name name))
    (Metric.end_to_end @ Metric.per_layer);
  let names = List.map fst (Metric.end_to_end @ Metric.per_layer) in
  check "names are unique"
    (List.length (List.sort_uniq compare names) = List.length names);
  List.iter
    (fun bad -> check ("invalid name " ^ bad) (not (Metric.valid_name bad)))
    [ ""; "a b"; "x/y"; ".lead"; "_lead"; "ü"; String.make 65 'a' ];
  check "make rejects a bad name" (raises (fun () -> Metric.make "a b" "s" 1.0));
  check "make rejects nan" (raises (fun () -> Metric.make "a" "s" Float.nan))

(* The [(name, unit)] pairs of one BENCHMARK.json section, in order:
   every ["name"] key after the section key and before [stop]. *)
let json_section text ~key ~stop =
  let find sub from =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length text then None
      else if String.sub text i n = sub then Some (i + n)
      else go (i + 1)
    in
    go from
  in
  let string_at i = String.sub text i (String.index_from text i '"' - i) in
  let start = Option.get (find (Printf.sprintf "%S:" key) 0) in
  let stop = match stop with None -> String.length text | Some s -> Option.get (find s start) in
  let rec pairs from acc =
    match find "\"name\": \"" from with
    | Some i when i < stop ->
        let j = Option.get (find "\"unit\": \"" i) in
        pairs j ((string_at i, string_at j) :: acc)
    | _ -> List.rev acc
  in
  pairs start []

let test_benchmark_json () =
  let text = In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all in
  check "BENCHMARK.json end_to_end matches the catalogue"
    (json_section text ~key:"end_to_end" ~stop:(Some "\"per_layer\"") = Metric.end_to_end);
  check "BENCHMARK.json per_layer matches the catalogue"
    (json_section text ~key:"per_layer" ~stop:None = Metric.per_layer)

let test_result_line () =
  let line =
    Metric.result_line ~correct:true ~attempted:3 ~failed:0
      [ Metric.make "setup_s" "s" 0.5 ]
  in
  check "result line"
    (line
    = {|{"correct": true, "attempted": 3, "failed": 0, "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}|})

let () =
  test_tail_support ();
  test_median ();
  test_sum_of_fastest ();
  test_fail_share ();
  test_names ();
  test_result_line ();
  test_benchmark_json ();
  if !failures > 0 then begin
    Printf.printf "%d failures\n" !failures;
    exit 1
  end
  else print_endline "perfbench helpers: all tests passed"
