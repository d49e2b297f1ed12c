(* Causal cost ledger: a streaming per-request accountant over modeled
   phase costs (constant memory: one sketch per (class, phase) cell).
   Everything is pure arithmetic over the inputs - no clock reads, no
   RNG - so replayed traffic yields bit-identical reports. *)

let spf = Printf.sprintf

type phase =
  | Canonicalize
  | Lookup
  | Queue
  | Enumerate
  | Prune
  | Gate
  | Surrogate
  | Measure
  | Codegen
  | Store

let all_phases =
  [ Canonicalize; Lookup; Queue; Enumerate; Prune; Gate; Surrogate; Measure;
    Codegen; Store ]

let phase_name = function
  | Canonicalize -> "canonicalize"
  | Lookup -> "lookup"
  | Queue -> "queue"
  | Enumerate -> "enumerate"
  | Prune -> "prune"
  | Gate -> "gate"
  | Surrogate -> "surrogate"
  | Measure -> "measure"
  | Codegen -> "codegen"
  | Store -> "store"

let phase_of_name n = List.find_opt (fun p -> phase_name p = n) all_phases

(* pipeline position, used for deterministic tie-breaks *)
let phase_rank p =
  let rec go i = function
    | [] -> i
    | q :: rest -> if q = p then i else go (i + 1) rest
  in
  go 0 all_phases

type serve_class = Cold | Warm | Dedup

let all_classes = [ Cold; Warm; Dedup ]

let class_name = function Cold -> "cold" | Warm -> "warm" | Dedup -> "dedup"
let class_of_name n = List.find_opt (fun c -> class_name c = n) all_classes

let ms v = spf "%.3f" (v *. 1e3)

(* ------------------------------------------------------------------ *)
(* Streaming ledger *)

type exemplar = {
  ex_slot : int;
  ex_tick : int;
  ex_latency_s : float;
  ex_class : serve_class;
  ex_phase : phase;
  ex_label : string option;
  ex_key : string option;
  ex_run_id : string option;
}

(* Every cell - a (class, phase) pair, a class's end-to-end latency, the
   overall latency - is one sketch; exemplar slots hold the worst request
   of their epoch. *)
type t = {
  alpha : float;
  ring : exemplar option ref Window.Ring.t;
  cells : (serve_class * phase, Sketch.t) Hashtbl.t;
  e2e : (serve_class, Sketch.t) Hashtbl.t;
  overall : Sketch.t;
  mutable requests : int;
  mutable errors : int;
  mutable worst : exemplar option;
}

let create ?(alpha = 0.01) ?(slot_width = 250) ?(slots = 16) () =
  if slot_width < 1 then invalid_arg "Ledger.create: slot_width must be >= 1";
  if slots < 1 then invalid_arg "Ledger.create: slots must be >= 1";
  {
    alpha;
    ring = Window.Ring.create ~width:slot_width ~slots (fun () -> ref None);
    cells = Hashtbl.create 32;
    e2e = Hashtbl.create 4;
    overall = Sketch.create ~alpha ();
    requests = 0;
    errors = 0;
    worst = None;
  }

let get tbl alpha key =
  match Hashtbl.find_opt tbl key with
  | Some c -> c
  | None ->
    let c = Sketch.create ~alpha () in
    Hashtbl.add tbl key c;
    c

let dominant_phase costs =
  List.fold_left
    (fun acc (p, v) ->
      match acc with
      | None -> Some (p, v)
      | Some (_, bv) -> if v > bv then Some (p, v) else acc)
    None costs
  |> Option.map fst

let observe ?label ?key ?run_id t ~tick ~cls ~ok ~latency_s costs =
  if tick < 0 then invalid_arg "Ledger.observe: negative tick";
  t.requests <- t.requests + 1;
  if not ok then t.errors <- t.errors + 1;
  Sketch.add t.overall latency_s;
  Sketch.add (get t.e2e t.alpha cls) latency_s;
  List.iter (fun (p, v) -> Sketch.add (get t.cells t.alpha (cls, p)) v) costs;
  let ex slot =
    {
      ex_slot = slot;
      ex_tick = tick;
      ex_latency_s = latency_s;
      ex_class = cls;
      ex_phase =
        (match dominant_phase costs with Some p -> p | None -> Canonicalize);
      ex_label = label;
      ex_key = key;
      ex_run_id = run_id;
    }
  in
  let slot = Window.Ring.slot t.ring ~now:tick in
  (match !slot with
  | Some e when e.ex_latency_s >= latency_s -> ()
  | _ -> slot := Some (ex (tick / Window.Ring.width t.ring)));
  match t.worst with
  | Some e when e.ex_latency_s >= latency_s -> ()
  | _ -> t.worst <- Some (ex (-1))

let reconcile t =
  List.filter_map
    (fun cls ->
      match Hashtbl.find_opt t.e2e cls with
      | None -> None
      | Some e ->
        let phases =
          List.fold_left
            (fun acc p ->
              match Hashtbl.find_opt t.cells (cls, p) with
              | Some c -> acc +. Sketch.total c
              | None -> acc)
            0.0 all_phases
        in
        Some (cls, Sketch.count e, phases, Sketch.total e))
    all_classes

(* ---------------- report ---------------- *)

type stat = {
  st_n : int;
  st_total_s : float;
  st_mean_s : float;
  st_std_s : float;
  st_p50_s : float;
  st_p90_s : float;
  st_p99_s : float;
  st_max_s : float;
}

let stat_of_cell c =
  {
    st_n = Sketch.count c;
    st_total_s = Sketch.total c;
    st_mean_s = Sketch.mean c;
    st_std_s = Sketch.stddev c;
    st_p50_s = Sketch.quantile c 50.0;
    st_p90_s = Sketch.quantile c 90.0;
    st_p99_s = Sketch.quantile c 99.0;
    st_max_s = Sketch.max_value c;
  }

type report = {
  lr_requests : int;
  lr_errors : int;
  lr_slot_width : int;
  lr_overall : stat;
  lr_classes : (serve_class * stat) list;
  lr_cells : (serve_class * phase * stat) list;
  lr_phase_share : (phase * float) list;
  lr_exemplars : exemplar list;
  lr_worst : exemplar option;
}

let report t =
  let classes =
    List.filter_map
      (fun cls ->
        Option.map (fun c -> (cls, stat_of_cell c)) (Hashtbl.find_opt t.e2e cls))
      all_classes
  in
  let cells =
    List.concat_map
      (fun cls ->
        List.filter_map
          (fun p ->
            Option.map
              (fun c -> (cls, p, stat_of_cell c))
              (Hashtbl.find_opt t.cells (cls, p)))
          all_phases)
      all_classes
  in
  let grand =
    List.fold_left (fun acc (_, _, s) -> acc +. s.st_total_s) 0.0 cells
  in
  let share =
    List.filter_map
      (fun p ->
        let total =
          List.fold_left
            (fun acc (_, q, s) -> if q = p then acc +. s.st_total_s else acc)
            0.0 cells
        in
        if
          List.exists (fun (_, q, _) -> q = p) cells
        then Some (p, if grand > 0.0 then total /. grand else 0.0)
        else None)
      all_phases
    |> List.stable_sort (fun (p, a) (q, b) ->
           match compare (b : float) a with
           | 0 -> compare (phase_rank p) (phase_rank q)
           | c -> c)
  in
  let exemplars = List.filter_map (fun (_, ex) -> !ex) (Window.Ring.entries t.ring) in
  {
    lr_requests = t.requests;
    lr_errors = t.errors;
    lr_slot_width = Window.Ring.width t.ring;
    lr_overall = stat_of_cell t.overall;
    lr_classes = classes;
    lr_cells = cells;
    lr_phase_share = share;
    lr_exemplars = exemplars;
    lr_worst = t.worst;
  }

let dominant r =
  match r.lr_phase_share with [] -> None | (p, _) :: _ -> Some p

(* ---------------- JSON ---------------- *)

let stat_json s =
  Json.Obj
    [
      ("n", Json.int s.st_n);
      ("total_s", Json.Num s.st_total_s);
      ("mean_s", Json.Num s.st_mean_s);
      ("std_s", Json.Num s.st_std_s);
      ("p50_s", Json.Num s.st_p50_s);
      ("p90_s", Json.Num s.st_p90_s);
      ("p99_s", Json.Num s.st_p99_s);
      ("max_s", Json.Num s.st_max_s);
    ]

let exemplar_json e =
  Json.Obj
    ([
       ("slot", Json.int e.ex_slot);
       ("tick", Json.int e.ex_tick);
       ("latency_s", Json.Num e.ex_latency_s);
       ("class", Json.Str (class_name e.ex_class));
       ("phase", Json.Str (phase_name e.ex_phase));
     ]
    @ (match e.ex_label with None -> [] | Some l -> [ ("label", Json.Str l) ])
    @ (match e.ex_key with None -> [] | Some k -> [ ("key", Json.Str k) ])
    @
    match e.ex_run_id with
    | None -> []
    | Some r -> [ ("run_id", Json.Str r) ])

let report_json r =
  Json.Obj
    [
      ("schema_version", Json.int 1);
      ("requests", Json.int r.lr_requests);
      ("errors", Json.int r.lr_errors);
      ("slot_width", Json.int r.lr_slot_width);
      ("overall", stat_json r.lr_overall);
      ( "classes",
        Json.Obj
          (List.map (fun (c, s) -> (class_name c, stat_json s)) r.lr_classes)
      );
      ( "cells",
        Json.Arr
          (List.map
             (fun (c, p, s) ->
               Json.Obj
                 [
                   ("class", Json.Str (class_name c));
                   ("phase", Json.Str (phase_name p));
                   ("stat", stat_json s);
                 ])
             r.lr_cells) );
      ( "phase_share",
        Json.Arr
          (List.map
             (fun (p, s) -> Json.Arr [ Json.Str (phase_name p); Json.Num s ])
             r.lr_phase_share) );
      ("exemplars", Json.Arr (List.map exemplar_json r.lr_exemplars));
      ( "worst",
        match r.lr_worst with None -> Json.Null | Some e -> exemplar_json e );
    ]

let ( let* ) r f = Result.bind r f

let field name conv j =
  match Option.bind (Json.member name j) conv with
  | Some v -> Result.Ok v
  | None -> Result.Error (spf "missing or invalid field %S" name)

let num name j = field name Json.get_num j
let str name j = field name Json.get_str j
let int_field name j = Result.map int_of_float (num name j)

let stat_of_json j =
  let* st_n = int_field "n" j in
  let* st_total_s = num "total_s" j in
  let* st_mean_s = num "mean_s" j in
  let* st_std_s = num "std_s" j in
  let* st_p50_s = num "p50_s" j in
  let* st_p90_s = num "p90_s" j in
  let* st_p99_s = num "p99_s" j in
  let* st_max_s = num "max_s" j in
  Result.Ok
    { st_n; st_total_s; st_mean_s; st_std_s; st_p50_s; st_p90_s; st_p99_s;
      st_max_s }

let class_of_json name =
  match class_of_name name with
  | Some c -> Result.Ok c
  | None -> Result.Error (spf "unknown serve class %S" name)

let phase_of_json name =
  match phase_of_name name with
  | Some p -> Result.Ok p
  | None -> Result.Error (spf "unknown phase %S" name)

let exemplar_of_json j =
  let* ex_slot = int_field "slot" j in
  let* ex_tick = int_field "tick" j in
  let* ex_latency_s = num "latency_s" j in
  let* ex_class = Result.bind (str "class" j) class_of_json in
  let* ex_phase = Result.bind (str "phase" j) phase_of_json in
  let opt name = Option.bind (Json.member name j) Json.get_str in
  Result.Ok
    { ex_slot; ex_tick; ex_latency_s; ex_class; ex_phase;
      ex_label = opt "label"; ex_key = opt "key"; ex_run_id = opt "run_id" }

let fold_list of_item items =
  List.fold_left
    (fun acc item ->
      let* acc = acc in
      let* v = of_item item in
      Result.Ok (v :: acc))
    (Result.Ok []) items
  |> Result.map List.rev

let report_of_json j =
  let* lr_requests = int_field "requests" j in
  let* lr_errors = int_field "errors" j in
  let* lr_slot_width = int_field "slot_width" j in
  let* lr_overall =
    match Json.member "overall" j with
    | Some s -> stat_of_json s
    | None -> Result.Error "missing field \"overall\""
  in
  let* lr_classes =
    match Json.member "classes" j with
    | Some (Json.Obj kvs) ->
      fold_list
        (fun (name, sj) ->
          let* c = class_of_json name in
          let* s = stat_of_json sj in
          Result.Ok (c, s))
        kvs
    | _ -> Result.Error "missing or invalid field \"classes\""
  in
  let* lr_cells =
    match Option.bind (Json.member "cells" j) Json.get_arr with
    | None -> Result.Error "missing or invalid field \"cells\""
    | Some items ->
      fold_list
        (fun item ->
          let* c = Result.bind (str "class" item) class_of_json in
          let* p = Result.bind (str "phase" item) phase_of_json in
          let* s =
            match Json.member "stat" item with
            | Some sj -> stat_of_json sj
            | None -> Result.Error "cell missing \"stat\""
          in
          Result.Ok (c, p, s))
        items
  in
  let* lr_phase_share =
    match Option.bind (Json.member "phase_share" j) Json.get_arr with
    | None -> Result.Error "missing or invalid field \"phase_share\""
    | Some items ->
      fold_list
        (function
          | Json.Arr [ Json.Str name; Json.Num s ] ->
            let* p = phase_of_json name in
            Result.Ok (p, s)
          | _ -> Result.Error "invalid phase_share entry")
        items
  in
  let* lr_exemplars =
    match Option.bind (Json.member "exemplars" j) Json.get_arr with
    | None -> Result.Error "missing or invalid field \"exemplars\""
    | Some items -> fold_list exemplar_of_json items
  in
  let* lr_worst =
    match Json.member "worst" j with
    | None | Some Json.Null -> Result.Ok None
    | Some e -> Result.map Option.some (exemplar_of_json e)
  in
  Result.Ok
    { lr_requests; lr_errors; lr_slot_width; lr_overall; lr_classes; lr_cells;
      lr_phase_share; lr_exemplars; lr_worst }

(* ---------------- render ---------------- *)

let pct v = spf "%.1f%%" (100.0 *. v)

let render_exemplar e =
  spf "tick %d %s latency %s ms, dominated by %s%s%s" e.ex_tick
    (class_name e.ex_class) (ms e.ex_latency_s) (phase_name e.ex_phase)
    (match e.ex_label with None -> "" | Some l -> spf " [%s]" l)
    (match e.ex_run_id with
    | None -> ""
    | Some r ->
      spf " (run %s)" (if String.length r > 12 then String.sub r 0 12 else r))

let render r =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (spf "ledger: %d requests (%d errors), slot width %d ticks\n"
       r.lr_requests r.lr_errors r.lr_slot_width);
  Buffer.add_string b
    (spf "  %-10s %8s %10s %10s %10s %10s\n" "class" "n" "mean ms" "p50 ms"
       "p99 ms" "max ms");
  let class_line name (s : stat) =
    Buffer.add_string b
      (spf "  %-10s %8d %10s %10s %10s %10s\n" name s.st_n (ms s.st_mean_s)
         (ms s.st_p50_s) (ms s.st_p99_s) (ms s.st_max_s))
  in
  class_line "all" r.lr_overall;
  List.iter (fun (c, s) -> class_line (class_name c) s) r.lr_classes;
  Buffer.add_string b
    (spf "  %-12s %7s %12s %12s %12s\n" "phase" "share" "cold p99"
       "warm p99" "dedup p99");
  let cell_p99 cls p =
    match
      List.find_opt (fun (c, q, _) -> c = cls && q = p) r.lr_cells
    with
    | Some (_, _, s) -> ms s.st_p99_s
    | None -> "-"
  in
  List.iter
    (fun (p, share) ->
      Buffer.add_string b
        (spf "  %-12s %7s %12s %12s %12s\n" (phase_name p) (pct share)
           (cell_p99 Cold p) (cell_p99 Warm p) (cell_p99 Dedup p)))
    r.lr_phase_share;
  (match r.lr_worst with
  | Some e -> Buffer.add_string b (spf "  worst: %s\n" (render_exemplar e))
  | None -> ());
  List.iter
    (fun e ->
      Buffer.add_string b (spf "  slot %4d: %s\n" e.ex_slot (render_exemplar e)))
    r.lr_exemplars;
  Buffer.contents b

let prometheus ?(prefix = "barracuda") t =
  let e2e =
    List.filter_map
      (fun cls ->
        Option.map
          (fun c -> (spf "serve_%s" (class_name cls), c))
          (Hashtbl.find_opt t.e2e cls))
      all_classes
  in
  let cells =
    List.concat_map
      (fun cls ->
        List.filter_map
          (fun p ->
            Option.map
              (fun c ->
                (spf "phase_%s_%s" (class_name cls) (phase_name p), c))
              (Hashtbl.find_opt t.cells (cls, p)))
          all_phases)
      all_classes
  in
  Export.prometheus ~prefix
    ~counters:
      [ ("ledger_requests", t.requests); ("ledger_errors", t.errors) ]
    ~sketches:(e2e @ cells) ()
