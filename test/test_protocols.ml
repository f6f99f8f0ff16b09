(* End-to-end protocol tests: quorum mutual exclusion (safety under
   contention, liveness) and the replicated store (consistency, fault
   handling). *)

module Engine = Sim.Engine
module Rng = Quorum.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Acquisitions wait up to 1000 time units before they are abandoned. *)
let config = Protocols.Client_config.(default |> with_timeout 1000.0)

let run_mutex ?(seed = 1) ?(requests = 30) ?(spacing = 0.1) ?faults spec =
  let system = Core.Registry.build_exn spec in
  let mx = Protocols.Mutex.of_config ~config ~system ~cs_duration:0.8 () in
  let engine =
    Engine.create ~seed ~nodes:system.Quorum.System.n
      (Protocols.Mutex.handlers mx)
  in
  Protocols.Mutex.bind mx engine;
  (match faults with
  | Some events -> Sim.Failure_injector.scripted engine events
  | None -> ());
  Protocols.Workload.staggered_requests engine ~every:spacing ~count:requests
    (fun ~client -> Protocols.Mutex.request mx ~node:client);
  Engine.run engine;
  mx

let test_mutex_safety_liveness () =
  List.iter
    (fun spec ->
      let mx = run_mutex spec in
      check_int (spec ^ ": no violations") 0 (Protocols.Mutex.violations mx);
      check_int (spec ^ ": all served") 30 (Protocols.Mutex.entries mx);
      check_int (spec ^ ": none unavailable") 0
        (Protocols.Mutex.unavailable mx))
    [ "majority(7)"; "htriang(10)"; "htgrid(3x3)"; "cwlog(8)"; "fpp(7)" ]

let test_mutex_heavy_contention () =
  (* All requests in a burst: INQUIRE/YIELD machinery must untangle. *)
  let mx = run_mutex ~requests:15 ~spacing:0.0001 "htriang(15)" in
  check_int "burst: safe" 0 (Protocols.Mutex.violations mx);
  check_int "burst: all served" 15 (Protocols.Mutex.entries mx)

let test_mutex_many_seeds () =
  List.iter
    (fun seed ->
      let mx = run_mutex ~seed ~requests:20 ~spacing:0.05 "htriang(10)" in
      check_int "seeded: safe" 0 (Protocols.Mutex.violations mx);
      check_int "seeded: served" 20 (Protocols.Mutex.entries mx))
    [ 2; 3; 4; 5; 6; 7; 8 ]

let test_mutex_with_dead_nodes () =
  (* Crash two nodes before any request: live-aware selection must
     route around them. *)
  let faults =
    [ (0.0, Sim.Failure_injector.Crash 0); (0.0, Sim.Failure_injector.Crash 7) ]
  in
  let system = Core.Registry.build_exn "htriang(15)" in
  let mx = Protocols.Mutex.of_config ~config ~system ~cs_duration:0.5 () in
  let engine = Engine.create ~seed:4 ~nodes:15 (Protocols.Mutex.handlers mx) in
  Protocols.Mutex.bind mx engine;
  Sim.Failure_injector.scripted engine faults;
  (* Only live nodes request. *)
  List.iter
    (fun (i, t) ->
      Engine.schedule engine ~time:t (fun () ->
          Protocols.Mutex.request mx ~node:i))
    [ (1, 1.0); (2, 1.1); (3, 1.2); (8, 1.3); (14, 1.4) ];
  Engine.run engine;
  check_int "faulty: safe" 0 (Protocols.Mutex.violations mx);
  check_int "faulty: served" 5 (Protocols.Mutex.entries mx)

let test_mutex_waits_positive () =
  let mx = run_mutex ~requests:10 ~spacing:0.01 "majority(7)" in
  let stats = Protocols.Mutex.acquire_latency mx in
  check_int "latency samples" 10 (Obs.Metrics.count stats);
  check "waits positive" true (Obs.Metrics.mean stats > 0.0)

(* --- Replicated store ---------------------------------------------- *)

(* A Poisson read/write mix on [store]; returns the ops scheduled. *)
let store_mix store engine ~rng ~rate ~horizon ~read_fraction ~keys =
  let workload = Result.get_ok (Analysis.Workload.make ~read_fraction ()) in
  Result.get_ok
    (Protocols.Workload.read_write_mix engine ~rng ~rate ~horizon ~workload
       ~keys
       ~read:(fun ~client ~key ->
         Protocols.Replicated_store.read store ~client ~key)
       ~write:(fun ~client ~key ~value ->
         Protocols.Replicated_store.write store ~client ~key ~value))

let make_store ?(seed = 11) spec_read spec_write =
  let read_system = Core.Registry.build_exn spec_read in
  let write_system = Core.Registry.build_exn spec_write in
  let store =
    Protocols.Replicated_store.of_config
      ~config:Protocols.Client_config.(default |> with_timeout 50.0)
      ~read_system ~write_system ()
  in
  let engine =
    Engine.create ~seed ~nodes:read_system.Quorum.System.n
      (Protocols.Replicated_store.handlers store)
  in
  Protocols.Replicated_store.bind store engine;
  (store, engine)

let test_store_basic_rw () =
  let store, engine = make_store "hgrid-read(4x4)" "hgrid-write(4x4)" in
  Engine.schedule engine ~time:1.0 (fun () ->
      Protocols.Replicated_store.write store ~client:0 ~key:1 ~value:42);
  Engine.schedule engine ~time:10.0 (fun () ->
      Protocols.Replicated_store.read store ~client:5 ~key:1);
  Engine.run engine;
  check_int "write ok" 1 (Protocols.Replicated_store.writes_ok store);
  check_int "read ok" 1 (Protocols.Replicated_store.reads_ok store);
  check_int "no stale" 0 (Protocols.Replicated_store.stale_reads store);
  check_int "no timeouts" 0 (Protocols.Replicated_store.timeouts store)

let test_store_mixed_workload () =
  List.iter
    (fun (r, w) ->
      let store, engine = make_store r w in
      let rng = Rng.create 5 in
      let n =
        store_mix store engine ~rng ~rate:2.0 ~horizon:100.0
          ~read_fraction:0.7 ~keys:4
      in
      Engine.run engine;
      let done_ =
        Protocols.Replicated_store.reads_ok store
        + Protocols.Replicated_store.writes_ok store
      in
      check_int (r ^ ": all ops complete") n done_;
      check_int (r ^ ": no stale reads") 0
        (Protocols.Replicated_store.stale_reads store))
    [
      ("hgrid-read(4x4)", "hgrid-write(4x4)");
      ("htriang(15)", "htriang(15)");
      ("majority(9)", "majority(9)");
    ]

let test_store_under_faults () =
  (* iid transient faults: operations may time out or be refused but
     completed reads stay consistent. *)
  let store, engine = make_store ~seed:21 "htriang(15)" "htriang(15)" in
  Sim.Failure_injector.iid_faults engine ~rng:(Rng.create 9) ~p:0.15
    ~mean_downtime:10.0 ~horizon:400.0;
  let rng = Rng.create 6 in
  let n =
    store_mix store engine ~rng ~rate:1.0 ~horizon:400.0
      ~read_fraction:0.5 ~keys:3
  in
  Engine.run engine;
  let ok =
    Protocols.Replicated_store.reads_ok store
    + Protocols.Replicated_store.writes_ok store
  in
  let failed =
    Protocols.Replicated_store.timeouts store
    + Protocols.Replicated_store.unavailable store
  in
  check "some ops issued" true (n > 50);
  check "most ops complete" true (ok > n / 2);
  check_int "accounting" n (ok + failed);
  check_int "no stale reads under faults" 0
    (Protocols.Replicated_store.stale_reads store)

let test_store_retries_improve_availability () =
  (* Same fault process, with and without retry-on-timeout: retries
     recover most mid-flight member crashes, consistency intact. *)
  let run retries =
    let read_system = Core.Registry.build_exn "htriang(15)" in
    let store =
      Protocols.Replicated_store.of_config
        ~config:Protocols.Client_config.(
          default |> with_timeout 25.0 |> with_retries retries)
        ~read_system ~write_system:read_system ()
    in
    let engine =
      Engine.create ~seed:41 ~nodes:15
        (Protocols.Replicated_store.handlers store)
    in
    Protocols.Replicated_store.bind store engine;
    Sim.Failure_injector.iid_faults engine ~rng:(Rng.create 42) ~p:0.15
      ~mean_downtime:12.0 ~horizon:500.0;
    let n =
      store_mix store engine ~rng:(Rng.create 43) ~rate:1.0 ~horizon:500.0
        ~read_fraction:0.5 ~keys:2
    in
    Engine.run engine;
    let ok =
      Protocols.Replicated_store.reads_ok store
      + Protocols.Replicated_store.writes_ok store
    in
    (n, ok, store)
  in
  let n0, ok0, store0 = run 0 in
  let n3, ok3, store3 = run 3 in
  check_int "same workload" n0 n3;
  check "retries help" true (ok3 > ok0);
  check "retries actually used" true
    (Protocols.Replicated_store.retried store3 > 0);
  check_int "still consistent (0 retries)" 0
    (Protocols.Replicated_store.stale_reads store0);
  check_int "still consistent (3 retries)" 0
    (Protocols.Replicated_store.stale_reads store3)

let test_store_partition_unavailability () =
  (* A partition isolating most nodes makes quorums unavailable for
     clients on the minority side: operations time out rather than
     return inconsistent data. *)
  let read_system = Core.Registry.build_exn "majority(9)" in
  let write_system = Core.Registry.build_exn "majority(9)" in
  let store =
    Protocols.Replicated_store.of_config
      ~config:Protocols.Client_config.(default |> with_timeout 20.0)
      ~read_system ~write_system ()
  in
  let network = Sim.Network.create () in
  let engine =
    Engine.create ~seed:31 ~nodes:9 ~network
      (Protocols.Replicated_store.handlers store)
  in
  Protocols.Replicated_store.bind store engine;
  Engine.schedule engine ~time:1.0 (fun () ->
      ignore (Sim.Network.partition network ~group_a:[ 0; 1 ]));
  Engine.schedule engine ~time:2.0 (fun () ->
      Protocols.Replicated_store.write store ~client:0 ~key:0 ~value:7);
  Engine.run engine;
  check_int "minority write cannot complete" 0
    (Protocols.Replicated_store.writes_ok store);
  (* With retries the attempt may end as a timeout or — once the far
     side is suspected and no quorum remains in view — as unavailable;
     either way it fails exactly once and never "succeeds". *)
  check_int "it fails" 1
    (Protocols.Replicated_store.timeouts store
    + Protocols.Replicated_store.unavailable store)

(* --- Hedging: latency rings, hedge delay, backup choice --------------- *)

module Hedge = Protocols.Hedge
module Bitset = Quorum.Bitset

let check_float = Alcotest.(check (float 0.0))

(* A tracker for 4 peers hedging at quantile [q] with the given floor,
   each peer's samples recorded in list order. *)
let tracker ?(hedge = true) ~q ~floor samples =
  let routing =
    Protocols.Client_config.(
      with_routing ~hedge ~hedge_quantile:q ~hedge_floor:floor default)
      .routing
  in
  let h = Hedge.create routing 4 in
  List.iter (fun (peer, xs) -> List.iter (Hedge.record h ~peer) xs) samples;
  h

let delay h peers = Hedge.delay h (Bitset.of_list 4 peers)

let test_hedge_quantile_after_wrap () =
  (* 40 samples, a permutation of 1..40: the ring keeps the last 32. *)
  let recorded =
    List.init 40 (fun i -> float_of_int (((i * 17) mod 40) + 1))
  in
  let window =
    List.filteri (fun i _ -> i >= 8) recorded
    |> List.sort compare |> Array.of_list
  in
  List.iter
    (fun q ->
      let rank = int_of_float (ceil (q *. 32.0)) in
      check_float
        (Printf.sprintf "nearest rank at q = %g" q)
        window.(rank - 1)
        (delay (tracker ~q ~floor:0.0 [ (2, recorded) ]) [ 2 ]))
    [ 0.01; 0.5; 0.9; 0.99 ];
  (* 1..40 in order leaves 9..40: the 16th smallest is 24. *)
  let ascending = List.init 40 (fun i -> float_of_int (i + 1)) in
  check_float "q = 0.5 of 9..40" 24.0
    (delay (tracker ~q:0.5 ~floor:0.0 [ (3, ascending) ]) [ 3 ])

let test_hedge_floor () =
  let empty = tracker ~q:0.9 ~floor:2.5 [] in
  check_float "empty rings give the floor" 2.5 (delay empty [ 0; 1; 3 ]);
  check_float "no peers give the floor" 2.5 (delay empty []);
  let samples = [ (0, [ 0.1; 0.3; 0.2 ]); (1, [ 7.0 ]) ] in
  let h = tracker ~q:0.9 ~floor:2.0 samples in
  check_float "floor wins over small samples" 2.0 (delay h [ 0 ]);
  check_float "worst peer in the set" 7.0 (delay h [ 0; 1 ]);
  check_float "peers outside the set ignored" 0.3
    (delay (tracker ~q:0.9 ~floor:0.0 samples) [ 0 ]);
  check_float "hedging off records nothing" 0.0
    (delay (tracker ~hedge:false ~q:0.9 ~floor:0.0 samples) [ 0; 1 ])

let test_hedge_pick_backups () =
  let picks ~limit =
    let view = Bitset.of_list 8 [ 0; 1; 2; 4; 5; 6; 7 ] (* 3 is suspected *) in
    let targets = Bitset.of_list 8 [ 0; 1; 2 ] in
    let sent = ref [] in
    Hedge.pick_backups ~view ~targets ~limit (Bitset.of_list 8 [ 1; 2 ])
      (fun b -> sent := b :: !sent);
    (List.rev !sent, Bitset.to_list targets)
  in
  let ilist = Alcotest.(list int) in
  let sent, targets = picks ~limit:8 in
  Alcotest.check ilist "distinct backups, skipping targets and suspects"
    [ 4; 5 ] sent;
  Alcotest.check ilist "backups join the targets" [ 0; 1; 2; 4; 5 ] targets;
  let sent, _ = picks ~limit:5 in
  Alcotest.check ilist "limit bounds the candidates" [ 4 ] sent;
  let sent, _ = picks ~limit:3 in
  Alcotest.check ilist "no candidate below the limit" [] sent

(* --- Config range checks: each constructor rejects the fields it reads *)

let invalid f =
  match f () with _ -> false | exception Invalid_argument _ -> true

let test_hedge_quantile_range () =
  List.iter
    (fun q ->
      check
        (Printf.sprintf "quantile %g rejected" q)
        true
        (invalid (fun () -> tracker ~hedge:false ~q ~floor:0.0 [])))
    [ 0.0; 1.0; -0.5; 1.5 ]

let test_hedge_floor_range () =
  check "negative floor rejected" true
    (invalid (fun () -> tracker ~q:0.9 ~floor:(-1.0) []));
  check "zero floor accepted" false
    (invalid (fun () -> tracker ~q:0.9 ~floor:0.0 []))

let store_with config =
  let system = Core.Registry.build_exn "majority(5)" in
  Protocols.Replicated_store.of_config ~config ~read_system:system
    ~write_system:system ()

let test_store_timeout_range () =
  List.iter
    (fun timeout ->
      check
        (Printf.sprintf "store timeout %g rejected" timeout)
        true
        (invalid (fun () ->
             store_with
               Protocols.Client_config.(default |> with_timeout timeout))))
    [ 0.0; -1.0 ]

let test_store_retries_range () =
  check "negative retries rejected" true
    (invalid (fun () ->
         store_with Protocols.Client_config.(default |> with_retries (-1))));
  check "zero retries accepted" false
    (invalid (fun () ->
         store_with Protocols.Client_config.(default |> with_retries 0)))

let test_reconfig_timeout_range () =
  let initial = Core.Registry.build_exn "majority(5)" in
  List.iter
    (fun timeout ->
      check
        (Printf.sprintf "register timeout %g rejected" timeout)
        true
        (invalid (fun () ->
             Protocols.Reconfig.of_config
               ~config:Protocols.Client_config.(default |> with_timeout timeout)
               ~initial ~universe:5 ())))
    [ 0.0; -1.0 ]

let () =
  Alcotest.run "protocols"
    [
      ( "mutex",
        [
          Alcotest.test_case "safety+liveness" `Quick test_mutex_safety_liveness;
          Alcotest.test_case "heavy contention" `Quick
            test_mutex_heavy_contention;
          Alcotest.test_case "many seeds" `Quick test_mutex_many_seeds;
          Alcotest.test_case "dead nodes" `Quick test_mutex_with_dead_nodes;
          Alcotest.test_case "wait stats" `Quick test_mutex_waits_positive;
        ] );
      ( "replicated store",
        [
          Alcotest.test_case "basic rw" `Quick test_store_basic_rw;
          Alcotest.test_case "mixed workload" `Quick test_store_mixed_workload;
          Alcotest.test_case "under faults" `Quick test_store_under_faults;
          Alcotest.test_case "retries" `Quick
            test_store_retries_improve_availability;
          Alcotest.test_case "partition" `Quick
            test_store_partition_unavailability;
        ] );
      ( "hedge",
        [
          Alcotest.test_case "quantile after wrap" `Quick
            test_hedge_quantile_after_wrap;
          Alcotest.test_case "floor" `Quick test_hedge_floor;
          Alcotest.test_case "pick backups" `Quick test_hedge_pick_backups;
        ] );
      ( "config checks",
        [
          Alcotest.test_case "hedge quantile" `Quick test_hedge_quantile_range;
          Alcotest.test_case "hedge floor" `Quick test_hedge_floor_range;
          Alcotest.test_case "store timeout" `Quick test_store_timeout_range;
          Alcotest.test_case "store retries" `Quick test_store_retries_range;
          Alcotest.test_case "register timeout" `Quick
            test_reconfig_timeout_range;
        ] );
    ]
