module Rng = Quorum.Rng
module Bitset = Quorum.Bitset
module Metrics = Obs.Metrics
module Trace = Obs.Trace
module Prof = Obs.Prof

(* Built once: hot paths must not allocate a label list per event. *)
let labels_net = [ ("reason", "net") ]
let labels_dead_dst = [ ("reason", "dead_dst") ]
let labels_amnesia_true = [ ("amnesia", "true") ]
let labels_amnesia_false = [ ("amnesia", "false") ]

(* Every event carries the span context captured when it was enqueued,
   so dispatch restores it without a side table.  The background flag
   lives in the event too: a [Deliver] is background exactly when its
   [uid] is [-1]; crashes and recoveries are always foreground. *)
type 'msg event =
  | Deliver of { src : int; dst : int; msg : 'msg; uid : int; ctx : int }
      (** [uid] identifies the message for trace causality links; [-1]
          for background traffic, which is metered but not traced and
          carries context [-1]. *)
  | Timer of { node : int; tag : int; ctx : int; background : bool }
      (** [ctx] is the span context captured when the timer was set, so
          retransmit timers fire under the operation that armed them. *)
  | Crash of int
  | Recover of { node : int; amnesia : bool }
  | Thunk of { f : unit -> unit; ctx : int; background : bool }

type 'msg handlers = {
  on_message : 'msg t -> node:int -> src:int -> 'msg -> unit;
  on_timer : 'msg t -> node:int -> tag:int -> unit;
  on_crash : 'msg t -> node:int -> unit;
  on_recover : 'msg t -> node:int -> amnesia:bool -> unit;
}

and instruments = {
  m_sent : Metrics.counter;
  m_background : Metrics.counter;
  m_delivered : Metrics.counter;
  m_dropped : Metrics.counter;
  m_crashes : Metrics.counter;
  m_recoveries : Metrics.counter;
}

and 'msg t = {
  n : int;
  queue : 'msg event Heap.t;
  live : bool array;
  network : Network.t;
  net_rng : Rng.t;
  proto_rng : Rng.t;
  handlers : 'msg handlers;
  obs : Obs.t;
  ins : instruments;
  prof : Prof.t;
  tracing : bool;  (** trace ring has capacity; guards record call sites *)
  mutable ctx : int;  (** ambient span context; -1 = none *)
  mutable next_uid : int;
  mutable time : float;
  mutable sent : int;
  mutable background_sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable dispatched : int;  (** events handed to [dispatch] *)
  mutable foreground : int;  (** queued events that keep [run] alive *)
  mutable budget_hits : int;
}

type outcome = Drained | Reached_until | Budget_exhausted

let make_instruments m =
  {
    m_sent =
      Metrics.counter m ~help:"foreground messages sent" "sim.messages_sent";
    m_background =
      Metrics.counter m ~help:"background messages sent (heartbeats...)"
        "sim.messages_background";
    m_delivered =
      Metrics.counter m ~help:"messages handed to on_message"
        "sim.messages_delivered";
    m_dropped =
      Metrics.counter m
        ~help:"messages lost in flight, by reason (net | dead_dst)"
        "sim.messages_dropped";
    m_crashes = Metrics.counter m ~help:"node crash events" "sim.crashes";
    m_recoveries =
      Metrics.counter m ~help:"node recovery events" "sim.recoveries";
  }

let create ~seed ~nodes ?network ?obs handlers =
  if nodes <= 0 then invalid_arg "Engine.create: nodes";
  let root = Rng.create seed in
  let obs = match obs with Some o -> o | None -> Obs.create () in
  {
    n = nodes;
    queue = Heap.create ~dummy:(Crash (-1));
    live = Array.make nodes true;
    network = (match network with Some n -> n | None -> Network.create ());
    net_rng = Rng.split root;
    proto_rng = Rng.split root;
    handlers;
    obs;
    ins = make_instruments (Obs.metrics obs);
    prof = Obs.prof obs;
    tracing = Trace.capacity (Obs.trace obs) > 0;
    ctx = -1;
    next_uid = 0;
    time = 0.0;
    sent = 0;
    background_sent = 0;
    delivered = 0;
    dropped = 0;
    dispatched = 0;
    foreground = 0;
    budget_hits = 0;
  }

let nodes t = t.n
let now t = t.time
let rng t = t.proto_rng
let network t = t.network
let obs t = t.obs
let is_live t i = t.live.(i)

let live_set t =
  let s = Bitset.create t.n in
  Array.iteri (fun i alive -> if alive then Bitset.add s i) t.live;
  s

let trace t = Obs.trace t.obs

(* Span context: an ambient span id that send/set_timer/schedule capture
   and dispatch restores around handlers, so causality crosses both the
   network and the event queue without protocols threading it by hand. *)
let span_ctx t = t.ctx
let set_span_ctx t ctx = t.ctx <- ctx

let with_span_ctx t ctx f =
  let saved = t.ctx in
  t.ctx <- ctx;
  Fun.protect ~finally:(fun () -> t.ctx <- saved) f

let note ?(label = "") t ~node =
  if t.tracing then
    Trace.record (trace t) ~time:t.time ~node ~span:t.ctx ~label Trace.Note

let is_background = function
  | Deliver { uid; _ } -> uid < 0
  | Timer { background; _ } | Thunk { background; _ } -> background
  | Crash _ | Recover _ -> false

let enqueue t ~time ev =
  if not (is_background ev) then t.foreground <- t.foreground + 1;
  Prof.enter t.prof Prof.Heap;
  Heap.push t.queue ~time ev;
  Prof.leave t.prof Prof.Heap

let push t ~delay ev =
  if delay < 0.0 then invalid_arg "Engine: negative delay";
  enqueue t ~time:(t.time +. delay) ev

let drop t ~labels =
  t.dropped <- t.dropped + 1;
  Metrics.incr t.ins.m_dropped ~labels

let send ?(background = false) t ~src ~dst msg =
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Engine.send: bad node id";
  if t.live.(src) then begin
    let uid =
      (* Background traffic (heartbeats) would flood the trace ring and
         evict the protocol messages the causality check cares about,
         so it is metered but never traced. *)
      if background then begin
        t.background_sent <- t.background_sent + 1;
        Metrics.incr t.ins.m_background;
        -1
      end
      else begin
        t.sent <- t.sent + 1;
        Metrics.incr t.ins.m_sent;
        let uid = t.next_uid in
        t.next_uid <- uid + 1;
        if t.tracing then
          Trace.record (trace t) ~time:t.time ~node:src ~peer:dst ~msg_id:uid
            ~span:t.ctx Trace.Send;
        uid
      end
    in
    (* The ambient context — including the sampled-out sentinel — rides
       in the event, so the receiver's children share the root's
       sampling fate; background traffic carries none. *)
    let ctx = if background then -1 else t.ctx in
    if src = dst then push t ~delay:0.0 (Deliver { src; dst; msg; uid; ctx })
    else
      match Network.delay t.network t.net_rng ~src ~dst with
      | None ->
          drop t ~labels:labels_net;
          if (not background) && t.tracing then
            Trace.record (trace t) ~time:t.time ~node:src ~peer:dst
              ~msg_id:uid ~span:t.ctx ~label:"net" Trace.Drop
      | Some d -> push t ~delay:d (Deliver { src; dst; msg; uid; ctx })
  end

let broadcast ?(background = false) t ~src ~dsts msg =
  List.iter (fun dst -> send ~background t ~src ~dst msg) dsts

let set_timer ?(background = false) t ~node ~delay ~tag =
  if node < 0 || node >= t.n then invalid_arg "Engine.set_timer: bad node";
  push t ~delay (Timer { node; tag; ctx = t.ctx; background })

let at_absolute t ~time ev =
  if time < t.time then invalid_arg "Engine: scheduling in the past";
  enqueue t ~time ev

let crash_at t ~time ~node = at_absolute t ~time (Crash node)

let recover_at ?(amnesia = false) t ~time ~node =
  at_absolute t ~time (Recover { node; amnesia })

let schedule ?(background = false) t ~time thunk =
  at_absolute t ~time (Thunk { f = thunk; ctx = t.ctx; background })

let messages_sent t = t.sent
let messages_background t = t.background_sent
let messages_delivered t = t.delivered
let messages_dropped t = t.dropped
let events_dispatched t = t.dispatched
let budget_exhaustions t = t.budget_hits

(* Restore the saved ambient context and close the probe on the handler's
   exception path; the happy path inlines the same two steps.  Written
   out per branch rather than through [with_span_ctx] so dispatch
   allocates no closure per event. *)
let[@inline] reraise t cat saved e =
  let bt = Printexc.get_raw_backtrace () in
  t.ctx <- saved;
  Prof.leave t.prof cat;
  Printexc.raise_with_backtrace e bt

let dispatch t = function
  | Deliver { src; dst; msg; uid; ctx } ->
      if t.live.(dst) then begin
        t.delivered <- t.delivered + 1;
        Metrics.incr t.ins.m_delivered;
        if uid >= 0 && t.tracing then
          Trace.record (trace t) ~time:t.time ~node:dst ~peer:src ~msg_id:uid
            ~span:ctx Trace.Deliver;
        (* The handler runs under the sender's span context: replies it
           sends (and timers it arms) inherit the operation that caused
           this delivery. *)
        let saved = t.ctx in
        t.ctx <- ctx;
        Prof.enter t.prof Prof.Dispatch_msg;
        (try t.handlers.on_message t ~node:dst ~src msg
         with e -> reraise t Prof.Dispatch_msg saved e);
        t.ctx <- saved;
        Prof.leave t.prof Prof.Dispatch_msg
      end
      else begin
        drop t ~labels:labels_dead_dst;
        if uid >= 0 && t.tracing then
          Trace.record (trace t) ~time:t.time ~node:dst ~peer:src ~msg_id:uid
            ~span:ctx ~label:"dead_dst" Trace.Drop
      end
  | Timer { node; tag; ctx; _ } ->
      if t.live.(node) then begin
        let saved = t.ctx in
        t.ctx <- ctx;
        Prof.enter t.prof Prof.Dispatch_timer;
        (try t.handlers.on_timer t ~node ~tag
         with e -> reraise t Prof.Dispatch_timer saved e);
        t.ctx <- saved;
        Prof.leave t.prof Prof.Dispatch_timer
      end
  | Crash node ->
      if t.live.(node) then begin
        t.live.(node) <- false;
        Metrics.incr t.ins.m_crashes;
        if t.tracing then
          Trace.record (trace t) ~time:t.time ~node Trace.Crash;
        let saved = t.ctx in
        t.ctx <- -1;
        Prof.enter t.prof Prof.Dispatch_recovery;
        (try t.handlers.on_crash t ~node
         with e -> reraise t Prof.Dispatch_recovery saved e);
        t.ctx <- saved;
        Prof.leave t.prof Prof.Dispatch_recovery
      end
  | Recover { node; amnesia } ->
      if not t.live.(node) then begin
        t.live.(node) <- true;
        Metrics.incr t.ins.m_recoveries
          ~labels:(if amnesia then labels_amnesia_true else labels_amnesia_false);
        if t.tracing then
          if amnesia then
            Trace.record (trace t) ~time:t.time ~node ~label:"amnesia"
              Trace.Recover
          else Trace.record (trace t) ~time:t.time ~node Trace.Recover;
        let saved = t.ctx in
        t.ctx <- -1;
        Prof.enter t.prof Prof.Dispatch_recovery;
        (try t.handlers.on_recover t ~node ~amnesia
         with e -> reraise t Prof.Dispatch_recovery saved e);
        t.ctx <- saved;
        Prof.leave t.prof Prof.Dispatch_recovery
      end
  | Thunk { f; ctx; _ } ->
      let saved = t.ctx in
      t.ctx <- ctx;
      Prof.enter t.prof Prof.Thunk;
      (try f () with e -> reraise t Prof.Thunk saved e);
      t.ctx <- saved;
      Prof.leave t.prof Prof.Thunk

let run_status ?until ?(max_events = 10_000_000) t =
  let clamp_until () =
    match until with Some u -> if u > t.time then t.time <- u | None -> ()
  in
  let rec loop budget =
    if budget = 0 then begin
      t.budget_hits <- t.budget_hits + 1;
      Budget_exhausted
    end
    else if t.foreground = 0 then begin
      (* Only background events (heartbeats, ...) remain: the
         simulation's real work has drained. *)
      clamp_until ();
      Drained
    end
    else if t.queue.size = 0 then begin
      clamp_until ();
      Drained
    end
    else begin
      (* Read in place: an unboxed float, no option. *)
      let time = t.queue.times.(0) in
      let stop = match until with Some u -> time > u | None -> false in
      if stop then begin
        clamp_until ();
        Reached_until
      end
      else begin
        Prof.enter t.prof Prof.Heap;
        let ev = Heap.pop t.queue in
        Prof.leave t.prof Prof.Heap;
        if not (is_background ev) then t.foreground <- t.foreground - 1;
        t.time <- time;
        t.dispatched <- t.dispatched + 1;
        dispatch t ev;
        loop (budget - 1)
      end
    end
  in
  (* The loop probe brackets the whole drain, so every category of a
     profiled run nests inside it and the report's total is the run's
     wall time — self time lands in [Loop] for the loop's own
     bookkeeping (peeks, budget and drain checks). *)
  Prof.enter t.prof Prof.Loop;
  match loop max_events with
  | outcome ->
      Prof.leave t.prof Prof.Loop;
      outcome
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Prof.leave t.prof Prof.Loop;
      Printexc.raise_with_backtrace e bt

let run ?until ?max_events t =
  match run_status ?until ?max_events t with
  | Drained | Reached_until -> ()
  | Budget_exhausted -> failwith "Engine.run: event budget exhausted"
