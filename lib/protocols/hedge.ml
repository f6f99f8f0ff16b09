module Bitset = Quorum.Bitset

let ring = 32

(* Peer [p]'s ring is [samples.(p * ring) ..]: [len.(p)] slots hold
   samples, [pos.(p)] is the next one to write. *)
type t = {
  routing : Client_config.routing;
  samples : float array;
  len : int array;
  pos : int array;
  scratch : float array;
}

let create (routing : Client_config.routing) n =
  if routing.hedge_quantile <= 0.0 || routing.hedge_quantile >= 1.0 then
    invalid_arg "Hedge.create: hedge_quantile must lie in (0, 1)";
  if routing.hedge_floor < 0.0 then
    invalid_arg "Hedge.create: hedge_floor must be >= 0";
  let n = if routing.hedge then n else 0 in
  {
    routing;
    samples = Array.make (n * ring) 0.0;
    len = Array.make n 0;
    pos = Array.make n 0;
    scratch = Array.make ring 0.0;
  }

let record t ~peer sample =
  if t.routing.hedge then begin
    t.samples.((peer * ring) + t.pos.(peer)) <- sample;
    t.pos.(peer) <- (t.pos.(peer) + 1) mod ring;
    if t.len.(peer) < ring then t.len.(peer) <- t.len.(peer) + 1
  end

(* Nearest rank, by insertion-sorting a copy of the ring in [scratch]:
   the hedge delay is taken on every attempt, so it allocates no array. *)
let quantile t ~peer =
  let len = t.len.(peer) and s = t.scratch in
  Array.blit t.samples (peer * ring) s 0 len;
  for i = 1 to len - 1 do
    let x = s.(i) in
    let k = ref (i - 1) in
    while !k >= 0 && s.(!k) > x do
      s.(!k + 1) <- s.(!k);
      decr k
    done;
    s.(!k + 1) <- x
  done;
  let q = t.routing.hedge_quantile in
  let rank = int_of_float (ceil (q *. float_of_int len)) in
  s.(max 0 (min (len - 1) (rank - 1)))

let delay t waiting =
  let worst = ref 0.0 in
  if t.routing.hedge then
    Bitset.iter
      (fun peer ->
        if t.len.(peer) > 0 then worst := Float.max !worst (quantile t ~peer))
      waiting;
  Float.max t.routing.hedge_floor !worst

let pick_backups ~view ~targets ~limit stragglers send =
  let rec next j =
    if j >= limit || (Bitset.mem view j && not (Bitset.mem targets j)) then j
    else next (j + 1)
  in
  let cursor = ref 0 in
  Bitset.iter
    (fun _straggler ->
      let b = next !cursor in
      cursor := b + 1;
      if b < limit then begin
        Bitset.add targets b;
        send b
      end)
    stragglers
