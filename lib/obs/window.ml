(* Ring of sketch buckets over a deterministic logical clock, built on
   the shared lazily evicting epoch ring (Ring, also behind the Ledger's
   exemplar slots). *)

module Ring = struct
  (* Slot [e mod slots] holds epoch [e]'s value; a newer epoch touching
     the slot replaces it with a fresh one. Stale slots (the clock jumped
     past them) stay until overwritten; readers filter by epoch. *)
  type 'a t = { width : int; epochs : int array; values : 'a array; fresh : unit -> 'a }

  let create ~width ~slots fresh =
    if width < 1 || slots < 1 then invalid_arg "Window.Ring.create: width and slots must be >= 1";
    { width; epochs = Array.make slots (-1); values = Array.init slots (fun _ -> fresh ()); fresh }

  let width t = t.width
  let slots t = Array.length t.epochs

  let slot t ~now =
    let epoch = now / t.width in
    let i = epoch mod Array.length t.epochs in
    if t.epochs.(i) <> epoch then begin
      t.epochs.(i) <- epoch;
      t.values.(i) <- t.fresh ()
    end;
    t.values.(i)

  let entries t =
    Array.to_list (Array.mapi (fun i e -> (e, t.values.(i))) t.epochs)
    |> List.filter (fun (e, _) -> e >= 0)
    |> List.sort (fun (a, _) (b, _) -> compare a b)
end

type slot = { mutable s_ok : int; mutable s_err : int; s_sketch : Sketch.t }

type t = { alpha : float; ring : slot Ring.t }

let create ?(alpha = 0.01) ~width ~buckets () =
  if width < 1 then invalid_arg "Window.create: width must be >= 1";
  if buckets < 1 then invalid_arg "Window.create: buckets must be >= 1";
  {
    alpha;
    ring =
      Ring.create ~width ~slots:buckets (fun () ->
          { s_ok = 0; s_err = 0; s_sketch = Sketch.create ~alpha () });
  }

let width t = Ring.width t.ring

let observe t ~now ~ok latency =
  if now < 0 then invalid_arg "Window.observe: negative tick";
  let s = Ring.slot t.ring ~now in
  if ok then s.s_ok <- s.s_ok + 1 else s.s_err <- s.s_err + 1;
  Sketch.add s.s_sketch latency

type snapshot = {
  snap_now : int;
  epochs : int;
  ticks : int;
  requests : int;
  errors : int;
  error_ratio : float;
  rate : float;
  sketch : Sketch.t;
}

(* Live slots for the epoch range (e_hi - last, e_hi], ascending epoch
   order so sketch merges are deterministic. *)
let live t ~now ~last =
  let e_hi = now / width t in
  let e_lo = max 0 (e_hi - last + 1) in
  List.filter (fun (e, _) -> e >= e_lo && e <= e_hi) (Ring.entries t.ring)

let snapshot ?last t ~now =
  let n = Ring.slots t.ring in
  let last = match last with Some k -> min k n | None -> n in
  let slots = List.map snd (live t ~now ~last) in
  let requests = List.fold_left (fun acc s -> acc + s.s_ok + s.s_err) 0 slots in
  let errors = List.fold_left (fun acc s -> acc + s.s_err) 0 slots in
  let sketch =
    List.fold_left
      (fun acc s -> Sketch.merge acc s.s_sketch)
      (Sketch.create ~alpha:t.alpha ())
      slots
  in
  let ticks = min (last * width t) (now + 1) in
  {
    snap_now = now;
    epochs = last;
    ticks;
    requests;
    errors;
    error_ratio = (if requests = 0 then 0.0 else float_of_int errors /. float_of_int requests);
    rate = (if ticks = 0 then 0.0 else float_of_int requests /. float_of_int ticks);
    sketch;
  }

let quantile snap p = Sketch.quantile snap.sketch p

type slot_view = {
  epoch : int;
  slot_requests : int;
  slot_errors : int;
  slot_p50 : float;
  slot_p99 : float;
}

let slots t ~now =
  live t ~now ~last:(Ring.slots t.ring)
  |> List.map (fun (epoch, s) ->
         {
           epoch;
           slot_requests = s.s_ok + s.s_err;
           slot_errors = s.s_err;
           slot_p50 = Sketch.quantile s.s_sketch 50.0;
           slot_p99 = Sketch.quantile s.s_sketch 99.0;
         })

(* Eight-level unicode sparkline, scaled to the max of the series; NaN and
   empty series render as spaces. *)
let sparkline values =
  let levels = [| "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83"; "\xe2\x96\x84";
                  "\xe2\x96\x85"; "\xe2\x96\x86"; "\xe2\x96\x87"; "\xe2\x96\x88" |] in
  let finite = List.filter (fun v -> Float.is_finite v) values in
  let vmax = List.fold_left Float.max 0.0 finite in
  values
  |> List.map (fun v ->
         if not (Float.is_finite v) || vmax <= 0.0 then " "
         else levels.(min 7 (int_of_float (v /. vmax *. 8.0))))
  |> String.concat ""

let ms v = if Float.is_nan v then "-" else Printf.sprintf "%.3f" (v *. 1e3)

let render t ~now =
  let views = slots t ~now in
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "window @ tick %d: %d epochs live (width %d ticks)\n" now
       (List.length views) (width t));
  Buffer.add_string b
    (Printf.sprintf "  %-12s %8s %6s %10s %10s\n" "ticks" "reqs" "errs" "p50 ms" "p99 ms");
  List.iter
    (fun v ->
      Buffer.add_string b
        (Printf.sprintf "  %-12s %8d %6d %10s %10s\n"
           (Printf.sprintf "%d-%d" (v.epoch * width t) (((v.epoch + 1) * width t) - 1))
           v.slot_requests v.slot_errors (ms v.slot_p50) (ms v.slot_p99)))
    views;
  if views <> [] then
    Buffer.add_string b
      (Printf.sprintf "  p99 trend: %s\n" (sparkline (List.map (fun v -> v.slot_p99) views)));
  Buffer.contents b
