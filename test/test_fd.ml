(* The failure-detector contract, as executable properties: over random
   crash/recovery schedules and both detector modes, a crashed node is
   suspected by every live observer within the mode's detection bound
   (completeness) and trusted again within a beat period of recovering
   (eventual accuracy).  Plus accrual-mode unit tests and a safety
   smoke over the fd stress scenarios — the fast CI gate for the
   detector stack. *)

module Fd = Sim.Failure_detector
module Engine = Sim.Engine
module Chaos = Protocols.Chaos

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

type wire = Beat

let make_world ?(seed = 5) ?mode ?(period = 1.0) ?(timeout = 4.0) ~nodes () =
  let fd = Fd.create ~period ~timeout ?mode ~nodes ~beat:Beat () in
  let handlers : wire Engine.handlers =
    {
      on_message = (fun _ ~node ~src Beat -> Fd.heard fd ~node ~from:src);
      on_timer = (fun _ ~node ~tag -> ignore (Fd.on_timer fd ~node ~tag));
      on_crash = (fun _ ~node:_ -> ());
      on_recover = (fun _ ~node ~amnesia:_ -> Fd.on_recover fd ~node);
    }
  in
  let engine = Engine.create ~seed ~nodes handlers in
  Fd.bind fd engine;
  Fd.start fd;
  (fd, engine)

(* Detection bound per mode.  Fixed timeout: [timeout] of silence plus
   the beat period granularity plus network latency.  Accrual: phi
   reaches tau after ~2.303 * tau * mean inter-arrival; the mean
   concentrates near [period] (base latency cancels between
   consecutive beats), budgeted here at twice that for jitter. *)
let detect_bound ~period ~timeout = function
  | None -> timeout +. (2.0 *. period) +. 3.0
  | Some tau ->
      Float.max timeout (2.303 *. tau *. (2.0 *. period))
      +. (2.0 *. period) +. 3.0

(* --- The contract, as qcheck properties over random schedules -------- *)

(* (nodes, seed, crash time, extra downtime, accrual threshold option);
   the victim is derived from the seed. *)
let schedule_gen =
  QCheck.Gen.(
    (fun nodes seed crash_t extra tau -> (nodes, seed, crash_t, extra, tau))
    <$> int_range 3 8 <*> int_range 0 999 <*> int_range 8 20
    <*> int_range 0 10
    <*> oneofl [ None; Some 1.0; Some 1.5; Some 2.0 ])

let schedule_arb =
  QCheck.make
    ~print:(fun (n, seed, ct, extra, tau) ->
      Printf.sprintf "n=%d seed=%d crash@%d +%d %s" n seed ct extra
        (match tau with
        | None -> "fixed"
        | Some tau -> Printf.sprintf "accrual(%g)" tau))
    schedule_gen

let fd_contract =
  QCheck.Test.make
    ~name:
      "completeness within the detection bound, accuracy within a period \
       of recovery" ~count:40 schedule_arb
    (fun (nodes, seed, crash_t, extra, tau) ->
      let period = 1.0 and timeout = 4.0 in
      let mode =
        Option.map
          (fun threshold ->
            Fd.Accrual { threshold; window = 16; min_samples = 3 })
          tau
      in
      let fd, engine = make_world ~seed ?mode ~period ~timeout ~nodes () in
      let victim = seed mod nodes in
      let crash_time = float_of_int crash_t in
      let detect_by = crash_time +. detect_bound ~period ~timeout tau in
      let recover_time = detect_by +. float_of_int extra in
      let trust_by = recover_time +. period +. 3.0 in
      Engine.crash_at engine ~time:crash_time ~node:victim;
      Engine.recover_at engine ~time:recover_time ~node:victim;
      let ok = ref true in
      let each_observer f =
        for i = 0 to nodes - 1 do
          if i <> victim then ok := !ok && f i
        done
      in
      (* Trusted while alive (beats have been flowing since t~1). *)
      Engine.schedule engine ~time:(crash_time -. 0.5) (fun () ->
          each_observer (fun i -> not (Fd.suspects fd ~node:i victim)));
      (* Completeness: every live observer suspects the crashed node,
         and its view excludes it. *)
      Engine.schedule engine ~time:detect_by (fun () ->
          each_observer (fun i ->
              Fd.suspects fd ~node:i victim
              && not (Quorum.Bitset.mem (Fd.view fd ~node:i) victim)));
      (* Eventual accuracy: suspicion clears shortly after recovery,
         everywhere. *)
      Engine.schedule engine ~time:trust_by (fun () ->
          each_observer (fun i -> not (Fd.suspects fd ~node:i victim)));
      let keeper = (victim + 1) mod nodes in
      Engine.set_timer engine ~node:keeper ~delay:(trust_by +. 1.0) ~tag:0;
      Engine.run engine;
      !ok)

(* Suspicion is normalized across modes: >= 1.0 exactly when suspected,
   0.0 for self, graded below 1.0 for trusted live peers. *)
let suspicion_normalized =
  QCheck.Test.make ~name:"suspicion >= 1.0 coincides with suspects"
    ~count:20 schedule_arb
    (fun (nodes, seed, crash_t, _, tau) ->
      let period = 1.0 and timeout = 4.0 in
      let mode =
        Option.map
          (fun threshold ->
            Fd.Accrual { threshold; window = 16; min_samples = 3 })
          tau
      in
      let fd, engine = make_world ~seed ?mode ~period ~timeout ~nodes () in
      let victim = seed mod nodes in
      let crash_time = float_of_int crash_t in
      Engine.crash_at engine ~time:crash_time ~node:victim;
      let ok = ref true in
      let probe () =
        for i = 0 to nodes - 1 do
          ok := !ok && Fd.suspicion fd ~node:i i = 0.0;
          for j = 0 to nodes - 1 do
            if j <> i then begin
              let s = Fd.suspicion fd ~node:i j in
              let sus = Fd.suspects fd ~node:i j in
              (* The strict/large comparison at exactly 1.0 differs by
                 mode; probe away from the boundary. *)
              if s > 1.0 +. 1e-6 then ok := !ok && sus
              else if s < 1.0 -. 1e-6 then ok := !ok && not sus
            end
          done
        done
      in
      Engine.schedule engine ~time:(crash_time -. 0.5) probe;
      Engine.schedule engine
        ~time:(crash_time +. detect_bound ~period ~timeout tau)
        probe;
      let keeper = (victim + 1) mod nodes in
      Engine.set_timer engine ~node:keeper
        ~delay:(crash_time +. 30.0) ~tag:0;
      Engine.run engine;
      !ok)

(* --- Accrual mode: unit tests ---------------------------------------- *)

let test_accrual_create_validates () =
  let mk mode = ignore (Fd.create ~mode ~nodes:3 ~beat:Beat ()) in
  let raises f = try f (); false with Invalid_argument _ -> true in
  check "threshold must be positive" true
    (raises (fun () ->
         mk (Fd.Accrual { threshold = 0.0; window = 8; min_samples = 3 })));
  check "window >= 2" true
    (raises (fun () ->
         mk (Fd.Accrual { threshold = 1.0; window = 1; min_samples = 1 })));
  check "min_samples within window" true
    (raises (fun () ->
         mk (Fd.Accrual { threshold = 1.0; window = 4; min_samples = 5 })));
  check "timeout must exceed period" true
    (raises (fun () ->
         ignore (Fd.create ~period:2.0 ~timeout:1.0 ~nodes:3 ~beat:Beat ())))

let test_accrual_detects_and_heals () =
  let mode = Fd.Accrual { threshold = 1.5; window = 16; min_samples = 3 } in
  let fd, engine = make_world ~mode ~timeout:6.0 ~nodes:5 () in
  Engine.crash_at engine ~time:12.0 ~node:2;
  Engine.recover_at engine ~time:30.0 ~node:2;
  Engine.schedule engine ~time:11.5 (fun () ->
      check "trusted while beating" false (Fd.suspects fd ~node:0 2);
      check "graded level low while beating" true
        (Fd.suspicion fd ~node:0 2 < 1.0));
  (* phi = log10(e) * elapsed / mean ~ 0.434 * elapsed at mean ~ 1.0:
     threshold 1.5 crosses near elapsed ~ 3.5; well before t = 22. *)
  Engine.schedule engine ~time:22.0 (fun () ->
      check "crashed node suspected" true (Fd.suspects fd ~node:0 2);
      check "level above threshold" true (Fd.suspicion fd ~node:0 2 >= 1.0);
      check_int "only the victim" 1 (Fd.suspected_count fd ~node:0));
  Engine.schedule engine ~time:35.0 (fun () ->
      check "trusted again after recovery" false (Fd.suspects fd ~node:0 2);
      check_int "nobody suspected" 0 (Fd.suspected_count fd ~node:0));
  Engine.set_timer engine ~node:0 ~delay:36.0 ~tag:0;
  Engine.run engine

let test_accrual_stats_measure_detection () =
  let mode = Fd.Accrual { threshold = 1.5; window = 16; min_samples = 3 } in
  let fd, engine = make_world ~mode ~timeout:6.0 ~nodes:5 () in
  Engine.crash_at engine ~time:12.0 ~node:2;
  Engine.set_timer engine ~node:0 ~delay:30.0 ~tag:0;
  Engine.run engine;
  let st = Fd.stats fd ~node:0 in
  check_int "one detection at node 0" 1 st.Fd.detections;
  check "latency positive" true (st.Fd.mean_detect > 0.0);
  check "latency within the accrual bound" true (st.Fd.mean_detect < 10.0);
  check_int "no false positives in a calm run" 0 st.Fd.false_positives;
  check "transition recorded" true (st.Fd.transitions >= 1)

let test_mode_accessors () =
  let mode = Fd.Accrual { threshold = 2.0; window = 8; min_samples = 2 } in
  let fd = Fd.create ~period:0.5 ~timeout:3.0 ~mode ~nodes:3 ~beat:Beat () in
  check "mode is accrual" true (Fd.mode fd = mode);
  Alcotest.(check (float 1e-9)) "period" 0.5 (Fd.period fd);
  Alcotest.(check (float 1e-9)) "timeout kept as fallback" 3.0 (Fd.timeout fd)

(* --- Safety smoke over the fd stress scenarios ----------------------- *)

let smoke_horizon = 100.0

let fd_scenarios () =
  Chaos.scenario_of_label ~n:15 ~horizon:smoke_horizon "churn-iid"
  :: Chaos.fd_family ~n:15 ~horizon:smoke_horizon

let test_fd_scenarios_safe () =
  (* Zero stale reads across the detector stress family, with the
     detector actually steering quorum selection — both modes, and
     with hedging + degraded reads on. *)
  let system = Core.Registry.build_exn "htriang(15)" in
  List.iter
    (fun scenario ->
      List.iter
        (fun (accrual, hedge) ->
          let r, _ =
            Chaos.run_fd_h ~seed:47 ?accrual ~hedge ~degraded_reads:hedge
              ~read_system:system ~write_system:system scenario
          in
          check_int
            (Printf.sprintf "stale reads %s/%s" r.Chaos.label r.Chaos.detector)
            0 r.Chaos.stale_reads;
          check
            (Printf.sprintf "progress %s/%s" r.Chaos.label r.Chaos.detector)
            true
            (r.Chaos.ok > 0))
        [ (None, false); (Some 2.0, true) ])
    (fd_scenarios ())

let test_fd_run_deterministic () =
  let system = Core.Registry.build_exn "htriang(15)" in
  let scenario =
    Chaos.scenario_of_label ~n:15 ~horizon:smoke_horizon "suspect-burst"
  in
  let run () =
    fst
      (Chaos.run_fd_h ~seed:47 ~accrual:2.0 ~hedge:true ~read_system:system
         ~write_system:system scenario)
  in
  check "same seed, same report" true (run () = run ())

let test_churn_fd_mode_safe () =
  let scenario =
    {
      Chaos.label = "churn";
      horizon = smoke_horizon;
      plan =
        {
          Chaos.calm with
          loss = 0.02;
          churn_sustained = Some (0.1, 50.0);
        };
    }
  in
  let r, _ =
    Chaos.run_churn_h ~seed:47 ~rows:5 ~period:8.0 ~mode:Chaos.Fd ~universe:30
      scenario
  in
  check_int "no stale reads under fd-driven membership" 0 r.Chaos.stale_reads;
  check "progress under fd-driven membership" true (r.Chaos.ok > 0)

let () =
  Alcotest.run "fd"
    [
      ( "contract",
        [
          QCheck_alcotest.to_alcotest fd_contract;
          QCheck_alcotest.to_alcotest suspicion_normalized;
        ] );
      ( "accrual",
        [
          Alcotest.test_case "create validates" `Quick
            test_accrual_create_validates;
          Alcotest.test_case "detects and heals" `Quick
            test_accrual_detects_and_heals;
          Alcotest.test_case "stats measure detection" `Quick
            test_accrual_stats_measure_detection;
          Alcotest.test_case "mode accessors" `Quick test_mode_accessors;
        ] );
      ( "scenarios",
        [
          Alcotest.test_case "fd stress family is safe" `Quick
            test_fd_scenarios_safe;
          Alcotest.test_case "runs are deterministic" `Quick
            test_fd_run_deterministic;
          Alcotest.test_case "fd-driven membership is safe" `Quick
            test_churn_fd_mode_safe;
        ] );
    ]
