(* Tests for the discrete-event simulation substrate. *)

module Engine = Sim.Engine
module Heap = Sim.Heap
module Network = Sim.Network
module Rng = Quorum.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Heap ----------------------------------------------------------- *)

let pop_or h default = if Heap.is_empty h then default else Heap.pop h

let test_heap_order () =
  let h = Heap.create ~dummy:(-1) in
  List.iter (fun t -> Heap.push h ~time:t (int_of_float t)) [ 3.0; 1.0; 2.0 ];
  let pop () = pop_or h (-1) in
  check_int "first" 1 (pop ());
  check_int "second" 2 (pop ());
  check_int "third" 3 (pop ());
  check "empty" true (Heap.is_empty h);
  check "pop on empty raises" true
    (try
       ignore (Heap.pop h);
       false
     with Invalid_argument _ -> true)

let test_heap_fifo_ties () =
  let h = Heap.create ~dummy:(-1) in
  List.iter (fun v -> Heap.push h ~time:1.0 v) [ 10; 20; 30 ];
  let pop () = pop_or h (-1) in
  check_int "tie fifo 1" 10 (pop ());
  check_int "tie fifo 2" 20 (pop ());
  check_int "tie fifo 3" 30 (pop ())

let heap_sorts =
  QCheck.Test.make ~name:"heap pops in nondecreasing time order" ~count:200
    QCheck.(list (float_bound_inclusive 100.0))
    (fun times ->
      let h = Heap.create ~dummy:() in
      List.iter (fun t -> Heap.push h ~time:t ()) times;
      let rec drain last =
        if Heap.is_empty h then true
        else
          let t = h.Heap.times.(0) in
          Heap.pop h;
          t >= last && drain t
      in
      drain neg_infinity)

(* Interleaved pushes ([Some time], times drawn from a handful of values
   so ties abound) and pops ([None]), checked against a reference: a
   stable sort of the pending entries by (time, push index). *)
let heap_matches_stable_sort =
  QCheck.Test.make ~name:"heap pop order = stable sort by (time, push index)"
    ~count:300
    QCheck.(list_of_size Gen.(0 -- 400) (option (int_bound 3)))
    (fun ops ->
      let h = Heap.create ~dummy:(-1) in
      let pending = ref [] and pushed = ref 0 in
      let pop_both () =
        let time = h.Heap.times.(0) in
        let idx = Heap.pop h in
        let by_time (a, _) (b, _) = Float.compare a b in
        match List.stable_sort by_time !pending with
        | (t, i) :: rest ->
            pending := rest;
            Float.equal t time && i = idx
        | [] -> false
      in
      let step ok = function
        | Some k ->
            let time = float_of_int k in
            Heap.push h ~time !pushed;
            pending := !pending @ [ (time, !pushed) ];
            incr pushed;
            ok
        | None -> if Heap.is_empty h then ok else pop_both () && ok
      in
      let ok = List.fold_left step true ops in
      let rec drain ok =
        if Heap.is_empty h then ok else drain (pop_both () && ok)
      in
      let ok = drain ok in
      ok && !pending = [])

(* Push two boxed values and pop the earlier one, out of line so no
   stack slot of the caller still holds either. *)
let[@inline never] push_two_pop_one h w =
  let a = ref 1 and b = ref 2 in
  Weak.set w 0 (Some a);
  Weak.set w 1 (Some b);
  Heap.push h ~time:1.0 a;
  Heap.push h ~time:2.0 b;
  ignore (Sys.opaque_identity (Heap.pop h))

let test_heap_retention () =
  let h = Heap.create ~dummy:(ref 0) in
  let w = Weak.create 2 in
  push_two_pop_one h w;
  Gc.full_major ();
  check "popped value collected" false (Weak.check w 0);
  check "queued value kept" true (Weak.check w 1);
  ignore (Sys.opaque_identity (Heap.pop h));
  Gc.full_major ();
  check "last popped value collected" false (Weak.check w 1);
  check "drained" true (Heap.is_empty h)

(* --- Network -------------------------------------------------------- *)

let test_network_latency_positive () =
  let net = Network.create ~base_latency:2.0 ~jitter:0.5 () in
  let rng = Rng.create 1 in
  for _ = 1 to 100 do
    match Network.delay net rng ~src:0 ~dst:1 with
    | Some d -> check "latency >= base" true (d >= 2.0)
    | None -> Alcotest.fail "lossless network dropped"
  done

let test_network_loss () =
  let net = Network.create ~loss:0.5 () in
  let rng = Rng.create 2 in
  let dropped = ref 0 in
  for _ = 1 to 2000 do
    if Network.delay net rng ~src:0 ~dst:1 = None then incr dropped
  done;
  let rate = float_of_int !dropped /. 2000.0 in
  check "loss near 0.5" true (abs_float (rate -. 0.5) < 0.05)

let test_network_partition () =
  let net = Network.create () in
  let cut = Network.partition net ~group_a:[ 0; 1 ] in
  let rng = Rng.create 3 in
  check "cross-cut blocked" true (Network.delay net rng ~src:0 ~dst:2 = None);
  check "same side ok" true (Network.delay net rng ~src:0 ~dst:1 <> None);
  check "other side ok" true (Network.delay net rng ~src:2 ~dst:3 <> None);
  Network.heal net cut;
  check "healed" true (Network.delay net rng ~src:0 ~dst:2 <> None)

let test_network_overlapping_cuts () =
  (* Two overlapping cuts heal independently; a link crosses only when
     every cut containing it is gone. *)
  let net = Network.create () in
  let rng = Rng.create 4 in
  let c1 = Network.partition net ~group_a:[ 0 ] in
  let c2 = Network.partition net ~group_a:[ 0; 1 ] in
  check "blocked by both" true (Network.delay net rng ~src:0 ~dst:2 = None);
  Network.heal net c1;
  check "still one cut" true (Network.partitioned net);
  check "0-2 still blocked by c2" true
    (Network.delay net rng ~src:0 ~dst:2 = None);
  check "0-1 freed by healing c1" true
    (Network.delay net rng ~src:0 ~dst:1 <> None);
  Network.heal net c1;
  (* double-heal is a no-op *)
  check "0-2 blocked after double heal" true
    (Network.delay net rng ~src:0 ~dst:2 = None);
  Network.heal net c2;
  check "all healed" false (Network.partitioned net);
  check "0-2 open" true (Network.delay net rng ~src:0 ~dst:2 <> None)

let test_network_heal_all () =
  let net = Network.create () in
  let rng = Rng.create 5 in
  let _ = Network.partition net ~group_a:[ 0 ] in
  let _ = Network.partition net ~group_a:[ 1 ] in
  Network.heal_all net;
  check "heal_all removes every cut" false (Network.partitioned net);
  check "traffic flows" true (Network.delay net rng ~src:0 ~dst:1 <> None)

let test_network_link_loss () =
  let net = Network.create () in
  let rng = Rng.create 6 in
  Network.set_link_loss net ~src:0 ~dst:1 1.0;
  check "lossy direction drops" true (Network.delay net rng ~src:0 ~dst:1 = None);
  check "reverse direction flows" true
    (Network.delay net rng ~src:1 ~dst:0 <> None);
  Network.set_link_loss net ~src:0 ~dst:1 0.0;
  check "cleared" true (Network.delay net rng ~src:0 ~dst:1 <> None)

let test_network_slowdown () =
  (* A gray node inflates latency on every adjacent link, both ways. *)
  let net = Network.create ~jitter:0.0 () in
  let rng = Rng.create 7 in
  let base =
    match Network.delay net rng ~src:1 ~dst:2 with
    | Some d -> d
    | None -> Alcotest.fail "unexpected drop"
  in
  Network.set_slowdown net ~node:1 10.0;
  (match Network.delay net rng ~src:1 ~dst:2 with
  | Some d -> check "outbound slowed" true (d >= base +. 10.0)
  | None -> Alcotest.fail "unexpected drop");
  (match Network.delay net rng ~src:0 ~dst:1 with
  | Some d -> check "inbound slowed" true (d >= base +. 10.0)
  | None -> Alcotest.fail "unexpected drop");
  Network.set_slowdown net ~node:1 0.0;
  match Network.delay net rng ~src:1 ~dst:2 with
  | Some d -> check "slowdown cleared" true (d < base +. 10.0)
  | None -> Alcotest.fail "unexpected drop"

let test_network_cleared_tables () =
  (* Installing and then clearing a link loss and a slowdown leaves the
     network on its empty-table fast path: the delay stream (floats and
     RNG draws) equals a fresh network's on the same seed. *)
  let make () = Network.create ~loss:0.1 ~jitter:0.3 () in
  let touched = make () in
  Network.set_link_loss touched ~src:0 ~dst:1 0.5;
  Network.set_slowdown touched ~node:2 3.0;
  Network.set_link_loss touched ~src:0 ~dst:1 0.0;
  Network.set_slowdown touched ~node:2 0.0;
  let stream net =
    let rng = Rng.create 11 in
    List.init 500 (fun i ->
        Network.delay net rng ~src:(i mod 4) ~dst:((i + 1) mod 4))
  in
  check "same delay stream" true (stream touched = stream (make ()))

(* --- Engine --------------------------------------------------------- *)

type probe_msg = Ping | Pong

let probe_handlers log : probe_msg Engine.handlers =
  {
    on_message =
      (fun engine ~node ~src msg ->
        log := (Engine.now engine, `Msg (node, src)) :: !log;
        match msg with
        | Ping -> Engine.send engine ~src:node ~dst:src Pong
        | Pong -> ());
    on_timer =
      (fun engine ~node ~tag ->
        log := (Engine.now engine, `Timer (node, tag)) :: !log);
    on_crash = (fun engine ~node -> log := (Engine.now engine, `Crash node) :: !log);
    on_recover =
      (fun engine ~node ~amnesia:_ ->
        log := (Engine.now engine, `Recover node) :: !log);
  }

let test_engine_ping_pong () =
  let log = ref [] in
  let e = Engine.create ~seed:5 ~nodes:3 (probe_handlers log) in
  Engine.send e ~src:0 ~dst:1 Ping;
  Engine.run e;
  check_int "two deliveries" 2 (Engine.messages_delivered e);
  check_int "two sends" 2 (Engine.messages_sent e);
  check "time advanced" true (Engine.now e > 0.0)

let test_engine_determinism () =
  let run () =
    let log = ref [] in
    let e = Engine.create ~seed:9 ~nodes:4 (probe_handlers log) in
    Engine.send e ~src:0 ~dst:1 Ping;
    Engine.send e ~src:2 ~dst:3 Ping;
    Engine.set_timer e ~node:0 ~delay:0.5 ~tag:7;
    Engine.run e;
    (!log, Engine.now e)
  in
  let a = run () and b = run () in
  check "identical traces" true (a = b)

let test_engine_crash_drops_messages () =
  let log = ref [] in
  let e = Engine.create ~seed:6 ~nodes:2 (probe_handlers log) in
  Engine.crash_at e ~time:0.0 ~node:1;
  Engine.schedule e ~time:1.0 (fun () -> Engine.send e ~src:0 ~dst:1 Ping);
  Engine.run e;
  let deliveries =
    List.filter (fun (_, ev) -> match ev with `Msg _ -> true | _ -> false) !log
  in
  check_int "no deliveries to dead node" 0 (List.length deliveries)

let test_engine_recover () =
  let log = ref [] in
  let e = Engine.create ~seed:6 ~nodes:2 (probe_handlers log) in
  Engine.crash_at e ~time:0.0 ~node:1;
  Engine.recover_at e ~time:5.0 ~node:1;
  Engine.schedule e ~time:6.0 (fun () -> Engine.send e ~src:0 ~dst:1 Ping);
  Engine.run e;
  let deliveries =
    List.filter (fun (_, ev) -> match ev with `Msg _ -> true | _ -> false) !log
  in
  (* ping delivered to 1, pong back to 0 *)
  check_int "delivered after recovery" 2 (List.length deliveries)

let test_engine_until () =
  let log = ref [] in
  let e = Engine.create ~seed:1 ~nodes:1 (probe_handlers log) in
  Engine.set_timer e ~node:0 ~delay:1.0 ~tag:1;
  Engine.set_timer e ~node:0 ~delay:10.0 ~tag:2;
  Engine.run ~until:5.0 e;
  check_int "only first timer" 1 (List.length !log);
  Alcotest.(check (float 1e-9)) "clock clamped" 5.0 (Engine.now e)

let test_engine_live_set () =
  let log = ref [] in
  let e = Engine.create ~seed:1 ~nodes:4 (probe_handlers log) in
  Engine.crash_at e ~time:0.0 ~node:2;
  Engine.run e;
  let live = Engine.live_set e in
  check "2 dead" false (Quorum.Bitset.mem live 2);
  check_int "3 live" 3 (Quorum.Bitset.cardinal live)

let test_engine_background_drains () =
  (* A perpetual background timer chain must not keep [run] alive. *)
  let fired = ref 0 in
  let handlers : probe_msg Engine.handlers =
    {
      on_message = (fun _ ~node:_ ~src:_ _ -> ());
      on_timer =
        (fun e ~node ~tag ->
          incr fired;
          Engine.set_timer ~background:true e ~node ~delay:1.0 ~tag);
      on_crash = (fun _ ~node:_ -> ());
      on_recover = (fun _ ~node:_ ~amnesia:_ -> ());
    }
  in
  let e = Engine.create ~seed:2 ~nodes:1 handlers in
  Engine.set_timer ~background:true e ~node:0 ~delay:1.0 ~tag:0;
  Engine.set_timer e ~node:0 ~delay:3.5 ~tag:1;
  (* foreground *)
  let outcome = Engine.run_status e in
  check "drained" true (outcome = Engine.Drained);
  (* Background beats at 1,2,3 ran while foreground work remained, plus
     the foreground timer at 3.5. *)
  check_int "heartbeats ran while foreground lived" 4 !fired;
  check_int "background not in messages_sent" 0 (Engine.messages_sent e)

let test_engine_budget_reported () =
  (* A self-perpetuating foreground timer never drains: the event
     budget must trip, be reported, and be counted. *)
  let handlers : probe_msg Engine.handlers =
    {
      on_message = (fun _ ~node:_ ~src:_ _ -> ());
      on_timer =
        (fun e ~node ~tag -> Engine.set_timer e ~node ~delay:1.0 ~tag);
      on_crash = (fun _ ~node:_ -> ());
      on_recover = (fun _ ~node:_ ~amnesia:_ -> ());
    }
  in
  let e = Engine.create ~seed:2 ~nodes:1 handlers in
  Engine.set_timer e ~node:0 ~delay:1.0 ~tag:0;
  let outcome = Engine.run_status ~max_events:100 e in
  check "budget exhausted" true (outcome = Engine.Budget_exhausted);
  check_int "exhaustion counted" 1 (Engine.budget_exhaustions e);
  check "run raises on exhaustion" true
    (try
       Engine.run ~max_events:100 e;
       false
     with Failure _ -> true);
  check_int "counted again" 2 (Engine.budget_exhaustions e)

let test_engine_ctx_rides_in_event () =
  (* A message is handled under the context it was sent with: a live
     span, the sampled-out sentinel (-2), or none (-1) when it is
     background traffic, whatever the ambient context was. *)
  let seen = ref [] in
  let handlers : probe_msg Engine.handlers =
    {
      on_message =
        (fun e ~node:_ ~src:_ _ -> seen := Engine.span_ctx e :: !seen);
      on_timer = (fun _ ~node:_ ~tag:_ -> ());
      on_crash = (fun _ ~node:_ -> ());
      on_recover = (fun _ ~node:_ ~amnesia:_ -> ());
    }
  in
  let e = Engine.create ~seed:4 ~nodes:2 handlers in
  Engine.set_span_ctx e 7;
  Engine.send e ~src:0 ~dst:1 Ping;
  Engine.send ~background:true e ~src:0 ~dst:1 Ping;
  Engine.set_span_ctx e (-2);
  Engine.send e ~src:0 ~dst:1 Ping;
  Engine.set_span_ctx e (-1);
  (* Foreground work outlasting the messages, so the background one is
     dispatched before the run drains. *)
  Engine.set_timer e ~node:0 ~delay:10.0 ~tag:0;
  Engine.run e;
  Alcotest.(check (list int))
    "contexts" [ -2; -1; 7 ] (List.sort compare !seen)

(* --- Golden dispatch order ----------------------------------------- *)

(* Every handler call of a pinned-seed run, folded into one FNV-1a
   digest: the dispatch instant (bit-exact), the kind, node, source,
   timer tag and the span context the handler runs under.  The
   constants below were recorded before the event queue became a
   struct-of-arrays heap; a change to the queue, the engine's
   tie-breaking or its span propagation moves them. *)
let fnv h x = Int64.(mul (logxor h x) 0x100000001b3L)

let digesting ~(seen : int array) (digest : int64 ref)
    (h : 'msg Engine.handlers) : 'msg Engine.handlers =
  let record engine kind ~node ~src ~tag =
    (* Tally the contexts: [seen.(0)] none (-1), [seen.(1)] sampled out
       (-2), [seen.(2)] a live span. *)
    let ctx = Engine.span_ctx engine in
    let slot = if ctx >= 0 then 2 else -ctx - 1 in
    seen.(slot) <- seen.(slot) + 1;
    let d = fnv !digest (Int64.bits_of_float (Engine.now engine)) in
    let d = fnv d (Int64.of_int kind) in
    let d = fnv d (Int64.of_int node) in
    let d = fnv d (Int64.of_int src) in
    let d = fnv d (Int64.of_int tag) in
    digest := fnv d (Int64.of_int ctx)
  in
  {
    on_message =
      (fun e ~node ~src msg ->
        record e 0 ~node ~src ~tag:0;
        h.on_message e ~node ~src msg);
    on_timer =
      (fun e ~node ~tag ->
        record e 1 ~node ~src:(-1) ~tag;
        h.on_timer e ~node ~tag);
    on_crash =
      (fun e ~node ->
        record e 2 ~node ~src:(-1) ~tag:0;
        h.on_crash e ~node);
    on_recover =
      (fun e ~node ~amnesia ->
        record e 3 ~node ~src:(-1) ~tag:(Bool.to_int amnesia);
        h.on_recover e ~node ~amnesia);
  }

let fnv_basis = 0xcbf29ce484222325L

(* The store under [restart], with the accrual detector's heartbeats as
   background traffic (context -1) and a 1-in-3 root-span sampler, so
   the sampled-out sentinel (-2) rides along too. *)
let golden_store_digest () =
  let module C = Protocols.Chaos in
  let read_system = Core.Registry.build_exn "hgrid-read(3x3)" in
  let write_system = Core.Registry.build_exn "hgrid-write(3x3)" in
  let n = read_system.Quorum.System.n in
  let scenario = C.scenario_of_label ~n ~horizon:60.0 "restart" in
  let rng = Rng.create 17 in
  let network = Network.create ~loss:scenario.C.plan.C.loss () in
  let config =
    Protocols.Client_config.(
      default |> with_timeout 25.0 |> with_retries 2
      |> with_fd ~period:1.0 ~timeout:5.0 ~accrual:2.0
      |> with_routing ~hedge:true ~degraded_reads:false
      |> with_durability (C.durability_of_plan scenario.C.plan))
  in
  let store =
    Protocols.Replicated_store.of_config ~config ~read_system ~write_system ()
  in
  let obs = Obs.create ~span_keep_1_in:3 () in
  let digest = ref fnv_basis and seen = Array.make 3 0 in
  let engine =
    Engine.create ~seed:18 ~nodes:n ~network ~obs
      (digesting ~seen digest (Protocols.Replicated_store.handlers store))
  in
  Protocols.Replicated_store.bind store engine;
  C.apply engine ~rng scenario;
  let workload = Result.get_ok (Analysis.Workload.make ~read_fraction:0.7 ()) in
  let _issued =
    Protocols.Workload.read_write_mix engine ~rng ~rate:2.0
      ~horizon:scenario.C.horizon ~workload ~keys:4
      ~read:(fun ~client ~key ->
        Protocols.Replicated_store.read store ~client ~key)
      ~write:(fun ~client ~key ~value ->
        Protocols.Replicated_store.write store ~client ~key ~value)
    |> Result.get_ok
  in
  ignore (Engine.run_status engine);
  (!digest, seen)

let golden_mutex_digest () =
  let module C = Protocols.Chaos in
  let system = Core.Registry.build_exn "htgrid(4x4)" in
  let n = system.Quorum.System.n in
  let scenario = C.scenario_of_label ~n ~horizon:120.0 "restart" in
  let rng = Rng.create 23 in
  let network = Network.create ~loss:scenario.C.plan.C.loss () in
  let config =
    Protocols.Client_config.(
      default |> with_timeout 80.0
      |> with_durability (C.durability_of_plan scenario.C.plan))
  in
  let mx = Protocols.Mutex.of_config ~config ~system ~cs_duration:1.0 () in
  let digest = ref fnv_basis and seen = Array.make 3 0 in
  let engine =
    Engine.create ~seed:24 ~nodes:n ~network
      (digesting ~seen digest (Protocols.Mutex.handlers mx))
  in
  Protocols.Mutex.bind mx engine;
  C.apply engine ~rng scenario;
  let _issued =
    Protocols.Workload.poisson_ops engine ~rng ~rate:0.4
      ~horizon:scenario.C.horizon (fun ~client ->
        Protocols.Mutex.request mx ~node:client)
  in
  ignore (Engine.run_status engine);
  (!digest, seen)

let test_golden_dispatch () =
  let store, seen = golden_store_digest () in
  check "store: background context seen" true (seen.(0) > 0);
  check "store: sampled-out context seen" true (seen.(1) > 0);
  check "store: live span context seen" true (seen.(2) > 0);
  Alcotest.(check int64) "store digest" (-4148320140527333545L) store;
  let mutex, seen = golden_mutex_digest () in
  check "mutex: live span context seen" true (seen.(2) > 0);
  Alcotest.(check int64) "mutex digest" 3491710622755970710L mutex

(* --- Failure injector ------------------------------------------------ *)

let test_iid_faults_fraction () =
  (* Measure the down-fraction of a node across a long horizon. *)
  let log = ref [] in
  let e = Engine.create ~seed:3 ~nodes:5 (probe_handlers log) in
  Sim.Failure_injector.iid_faults e ~rng:(Rng.create 42) ~p:0.25
    ~mean_downtime:2.0 ~horizon:5000.0;
  (* Track downtime of node 0 through crash/recover events. *)
  Engine.run e;
  let events =
    List.rev
      (List.filter_map
         (fun (t, ev) ->
           match ev with
           | `Crash 0 -> Some (t, `Down)
           | `Recover 0 -> Some (t, `Up)
           | _ -> None)
         !log)
  in
  let rec downtime acc last_down = function
    | [] -> (match last_down with Some t -> acc +. (5000.0 -. t) | None -> acc)
    | (t, `Down) :: rest -> downtime acc (Some t) rest
    | (t, `Up) :: rest ->
        (match last_down with
        | Some d -> downtime (acc +. (t -. d)) None rest
        | None -> downtime acc None rest)
  in
  let frac = downtime 0.0 None events /. 5000.0 in
  check "down fraction near p" true (abs_float (frac -. 0.25) < 0.06)

let test_scripted () =
  let log = ref [] in
  let e = Engine.create ~seed:3 ~nodes:2 (probe_handlers log) in
  Sim.Failure_injector.scripted e
    [ (1.0, Sim.Failure_injector.Crash 0); (2.0, Sim.Failure_injector.Recover 0) ];
  Engine.run e;
  check_int "two events" 2 (List.length !log)

let test_crash_random_subset () =
  let log = ref [] in
  let e = Engine.create ~seed:3 ~nodes:100 (probe_handlers log) in
  Sim.Failure_injector.crash_random_subset e ~rng:(Rng.create 8) ~at:1.0
    ~p:0.3;
  Engine.run e;
  let crashed = 100 - Quorum.Bitset.cardinal (Engine.live_set e) in
  check "roughly 30 crashed" true (crashed > 15 && crashed < 45)

(* --- Rpc delivery --------------------------------------------------- *)

type rpc_rig = {
  rpc : (int, int Sim.Rpc.msg) Sim.Rpc.t;
  engine : int Sim.Rpc.msg Engine.t;
  delivered : int array;  (** deliveries per payload *)
  acks : int ref;  (** acks received by senders *)
}

(* An rpc layer carrying int payloads (below [payloads]) over a
   lossless network whose round trip (2.0) beats the timeout. *)
let rpc_rig ~nodes ~payloads =
  let rpc = Sim.Rpc.create ~timeout:5.0 ~jitter:0.0 ~wrap:Fun.id () in
  let delivered = Array.make payloads 0 and acks = ref 0 in
  let handlers : int Sim.Rpc.msg Engine.handlers =
    {
      on_message =
        (fun _ ~node ~src msg ->
          (match msg with Sim.Rpc.Ack _ -> incr acks | Sim.Rpc.Data _ -> ());
          Sim.Rpc.on_message rpc ~node ~src msg ~deliver:(fun ~src:_ p ->
              delivered.(p) <- delivered.(p) + 1));
      on_timer = (fun _ ~node ~tag -> ignore (Sim.Rpc.on_timer rpc ~node ~tag));
      on_crash = (fun _ ~node -> Sim.Rpc.on_crash rpc ~node);
      on_recover = (fun _ ~node:_ ~amnesia:_ -> ());
    }
  in
  let engine =
    Engine.create ~seed:3 ~nodes
      ~network:(Network.create ~jitter:0.0 ())
      handlers
  in
  Sim.Rpc.bind rpc engine;
  { rpc; engine; delivered; acks }

let test_rpc_dedup_past_growth () =
  (* 2000 sequence numbers outgrow the dedup bitset's first 512 bits
     twice over; each is fed twice, the second pass in reverse so the
     earliest seqs are re-checked after every growth. *)
  let k = 2000 in
  let r = rpc_rig ~nodes:2 ~payloads:k in
  let feed seq =
    Sim.Rpc.on_message r.rpc ~node:1 ~src:0
      (Sim.Rpc.Data { seq; payload = seq })
      ~deliver:(fun ~src:_ p -> r.delivered.(p) <- r.delivered.(p) + 1)
  in
  for seq = 0 to k - 1 do
    feed seq
  done;
  for seq = k - 1 downto 0 do
    feed seq
  done;
  check "each payload delivered once" true
    (Array.for_all (fun c -> c = 1) r.delivered);
  check_int "every repeat suppressed" k (Sim.Rpc.duplicates_suppressed r.rpc);
  (* A duplicate is still re-acked: the first ack may have been lost. *)
  check_int "one ack per receipt" (2 * k) (Engine.messages_sent r.engine);
  Engine.run r.engine;
  check_int "acks delivered" (2 * k) !(r.acks)

let test_rpc_send_exactly_once () =
  (* End to end over a lossy network: retransmissions produce
     duplicates, and past 512 seqs none of them is delivered twice. *)
  let k = 1500 in
  let r = rpc_rig ~nodes:3 ~payloads:k in
  Network.set_extra_loss (Engine.network r.engine) 0.3;
  for p = 0 to k - 1 do
    Sim.Rpc.send r.rpc ~src:(p mod 2) ~dst:2 p
  done;
  Engine.run r.engine;
  check "duplicates arose" true (Sim.Rpc.duplicates_suppressed r.rpc > 0);
  check "no payload delivered twice" true
    (Array.for_all (fun c -> c <= 1) r.delivered);
  check "nearly all delivered" true
    (Array.fold_left ( + ) 0 r.delivered
    >= k - Sim.Rpc.dead_letters r.rpc)

let test_rpc_crash_drops_own_inflight () =
  let r = rpc_rig ~nodes:3 ~payloads:5 in
  List.iter (fun p -> Sim.Rpc.send r.rpc ~src:0 ~dst:2 p) [ 0; 1; 2 ];
  List.iter (fun p -> Sim.Rpc.send r.rpc ~src:1 ~dst:2 p) [ 3; 4 ];
  check_int "all in flight" 5 (Sim.Rpc.inflight_count r.rpc);
  Sim.Rpc.on_crash r.rpc ~node:0;
  check_int "only the crashed sender's dropped" 2
    (Sim.Rpc.inflight_count r.rpc);
  Engine.run r.engine;
  check_int "survivors acked" 0 (Sim.Rpc.inflight_count r.rpc);
  check_int "no retransmission" 0 (Sim.Rpc.retransmissions r.rpc)

(* --- Rpc retransmit backoff ---------------------------------------- *)

let test_backoff_jitter_zero () =
  (* jitter = 0: the classic deterministic schedule, prev * backoff
     clamped to the cap — no RNG draw at all. *)
  let rpc =
    Sim.Rpc.create ~timeout:2.0 ~backoff:2.0 ~jitter:0.0 ~cap:16.0
      ~wrap:Fun.id ()
  in
  let rng = Rng.create 1 in
  let d1 = Sim.Rpc.next_backoff rpc rng ~prev:2.0 in
  let d2 = Sim.Rpc.next_backoff rpc rng ~prev:d1 in
  let d3 = Sim.Rpc.next_backoff rpc rng ~prev:d2 in
  let d4 = Sim.Rpc.next_backoff rpc rng ~prev:d3 in
  Alcotest.(check (float 1e-9)) "doubles" 4.0 d1;
  Alcotest.(check (float 1e-9)) "doubles again" 8.0 d2;
  Alcotest.(check (float 1e-9)) "hits cap" 16.0 d3;
  Alcotest.(check (float 1e-9)) "stays capped" 16.0 d4

let backoff_within_bounds =
  QCheck.Test.make ~count:200
    ~name:"decorrelated backoff stays in [timeout, min cap (3*prev)]"
    QCheck.(pair (int_range 0 10_000) (float_range 2.0 40.0))
    (fun (seed, prev) ->
      let rpc =
        Sim.Rpc.create ~timeout:2.0 ~jitter:0.3 ~cap:32.0 ~wrap:Fun.id ()
      in
      let d = Sim.Rpc.next_backoff rpc (Rng.create seed) ~prev in
      d >= 2.0 && d <= Float.min 32.0 (3.0 *. prev))

let test_backoff_deterministic () =
  (* Same seed, same prev sequence -> identical delays: jittered runs
     stay exactly reproducible. *)
  let draw seed =
    let rpc = Sim.Rpc.create ~timeout:2.0 ~jitter:0.3 ~wrap:Fun.id () in
    let rng = Rng.create seed in
    let rec go prev k acc =
      if k = 0 then List.rev acc
      else
        let d = Sim.Rpc.next_backoff rpc rng ~prev in
        go d (k - 1) (d :: acc)
    in
    go 2.0 8 []
  in
  Alcotest.(check (list (float 1e-12))) "same seed" (draw 9) (draw 9);
  check "different seed differs" true (draw 9 <> draw 10)

let () =
  Alcotest.run "sim"
    [
      ( "heap",
        [
          Alcotest.test_case "order" `Quick test_heap_order;
          Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
          QCheck_alcotest.to_alcotest heap_sorts;
          QCheck_alcotest.to_alcotest heap_matches_stable_sort;
          Alcotest.test_case "retention" `Quick test_heap_retention;
        ] );
      ( "network",
        [
          Alcotest.test_case "latency" `Quick test_network_latency_positive;
          Alcotest.test_case "loss" `Quick test_network_loss;
          Alcotest.test_case "partition" `Quick test_network_partition;
          Alcotest.test_case "overlapping cuts" `Quick
            test_network_overlapping_cuts;
          Alcotest.test_case "heal all" `Quick test_network_heal_all;
          Alcotest.test_case "link loss" `Quick test_network_link_loss;
          Alcotest.test_case "slowdown" `Quick test_network_slowdown;
          Alcotest.test_case "cleared tables" `Quick
            test_network_cleared_tables;
        ] );
      ( "engine",
        [
          Alcotest.test_case "ping pong" `Quick test_engine_ping_pong;
          Alcotest.test_case "determinism" `Quick test_engine_determinism;
          Alcotest.test_case "crash drops" `Quick
            test_engine_crash_drops_messages;
          Alcotest.test_case "recover" `Quick test_engine_recover;
          Alcotest.test_case "until" `Quick test_engine_until;
          Alcotest.test_case "live set" `Quick test_engine_live_set;
          Alcotest.test_case "background drains" `Quick
            test_engine_background_drains;
          Alcotest.test_case "budget reported" `Quick
            test_engine_budget_reported;
          Alcotest.test_case "context rides in the event" `Quick
            test_engine_ctx_rides_in_event;
          Alcotest.test_case "golden dispatch order" `Quick
            test_golden_dispatch;
        ] );
      ( "failure injector",
        [
          Alcotest.test_case "iid fraction" `Slow test_iid_faults_fraction;
          Alcotest.test_case "scripted" `Quick test_scripted;
          Alcotest.test_case "random subset" `Quick test_crash_random_subset;
        ] );
      ( "rpc",
        [
          Alcotest.test_case "dedup past bitset growth" `Quick
            test_rpc_dedup_past_growth;
          Alcotest.test_case "send exactly once" `Quick
            test_rpc_send_exactly_once;
          Alcotest.test_case "crash drops own inflight" `Quick
            test_rpc_crash_drops_own_inflight;
        ] );
      ( "rpc backoff",
        [
          Alcotest.test_case "jitter zero" `Quick test_backoff_jitter_zero;
          QCheck_alcotest.to_alcotest backoff_within_bounds;
          Alcotest.test_case "deterministic" `Quick test_backoff_deterministic;
        ] );
    ]
