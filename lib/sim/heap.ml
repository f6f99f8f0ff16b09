(* A 4-ary min-heap over parallel arrays.  Slot [i]'s children are
   [4i+1 .. 4i+4], its parent [(i-1)/4].  The sift loops keep the key
   in locals (a float ref that never escapes stays unboxed) and move a
   hole rather than swapping, so neither push nor pop allocates. *)

type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable values : 'a array;
  mutable size : int;
  mutable next_seq : int;
  dummy : 'a;
}

let initial_capacity = 16

let create ~dummy =
  {
    times = Array.make initial_capacity 0.0;
    seqs = Array.make initial_capacity 0;
    values = Array.make initial_capacity dummy;
    size = 0;
    next_seq = 0;
    dummy;
  }

let is_empty t = t.size = 0

let grow t =
  let cap = 2 * Array.length t.times in
  let times = Array.make cap 0.0
  and seqs = Array.make cap 0
  and values = Array.make cap t.dummy in
  Array.blit t.times 0 times 0 t.size;
  Array.blit t.seqs 0 seqs 0 t.size;
  Array.blit t.values 0 values 0 t.size;
  t.times <- times;
  t.seqs <- seqs;
  t.values <- values

let push t ~time value =
  if t.size = Array.length t.times then grow t;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let times = t.times and seqs = t.seqs and values = t.values in
  (* The new seq exceeds every queued one, so the new key is smaller
     than a parent's exactly when its time is: equal times stay below
     their elders, which is what makes ties FIFO. *)
  let i = ref t.size and moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) lsr 2 in
    let pt = times.(p) in
    if time < pt then begin
      times.(!i) <- pt;
      seqs.(!i) <- seqs.(p);
      values.(!i) <- values.(p);
      i := p
    end
    else moving := false
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  values.(!i) <- value;
  t.size <- t.size + 1

let pop t =
  if t.size = 0 then invalid_arg "Heap.pop: empty";
  let times = t.times and seqs = t.seqs and values = t.values in
  let top = values.(0) in
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then begin
    (* Sift the last entry down from the root. *)
    let lt = times.(last) and ls = seqs.(last) and lv = values.(last) in
    let i = ref 0 and moving = ref true in
    while !moving do
      let c = (4 * !i) + 1 in
      if c >= last then moving := false
      else begin
        let e = if c + 3 < last then c + 3 else last - 1 in
        let m = ref c and mt = ref times.(c) and ms = ref seqs.(c) in
        for k = c + 1 to e do
          let kt = times.(k) in
          if kt < !mt || (kt = !mt && seqs.(k) < !ms) then begin
            m := k;
            mt := kt;
            ms := seqs.(k)
          end
        done;
        if !mt < lt || (!mt = lt && !ms < ls) then begin
          times.(!i) <- !mt;
          seqs.(!i) <- !ms;
          values.(!i) <- values.(!m);
          i := !m
        end
        else moving := false
      end
    done;
    times.(!i) <- lt;
    seqs.(!i) <- ls;
    values.(!i) <- lv
  end;
  (* Clear the vacated slot so the queue keeps no popped value alive. *)
  values.(last) <- t.dummy;
  top
