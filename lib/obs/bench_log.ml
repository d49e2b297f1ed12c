(* Benchmark artifacts: the machine-readable output of bench/main.exe.

   One artifact holds one harness run: per-experiment wall time, raw
   per-run samples and OLS estimates (from the Bechamel micro-suite),
   service latency quantiles, and pipeline span timings aggregated from
   the Obs.Trace events of the run. Artifacts serialize to JSON
   (BENCH_<name>.json), parse back losslessly, and compare against a
   committed baseline through the statistical gate in Util.Stats -
   Mann-Whitney over raw samples plus a bootstrap CI on the ratio of
   medians, never point estimates alone. *)

let schema_version = 1

type quantiles = { q50 : float; q90 : float; q99 : float }

type span_agg = {
  cat : string;
  span : string;
  count : int;
  total_s : float;
}

type experiment = {
  name : string;
  wall_s : float;
  samples_s : float list;  (* raw per-run samples; [] when unavailable *)
  ols_s : float option;  (* Bechamel OLS estimate of one run, seconds *)
  quantiles : (string * quantiles) list;  (* e.g. service request.wall *)
  spans : span_agg list;
}

type artifact = {
  version : int;
  suite : string;
  experiments : experiment list;
}

(* ---------------- span aggregation ---------------- *)

let aggregate_spans events =
  Trace.accounts events
  |> List.map (fun (a : Trace.account) ->
         { cat = a.acct_cat; span = a.acct_name; count = a.acct_count; total_s = a.acct_total_s })
  |> List.sort (fun a b -> compare (a.cat, a.span) (b.cat, b.span))

(* ---------------- JSON ---------------- *)

let quantiles_to_json q =
  Json.Obj [ ("p50", Num q.q50); ("p90", Num q.q90); ("p99", Num q.q99) ]

let experiment_to_json e =
  Json.Obj
    ([
       ("name", Json.Str e.name);
       ("wall_s", Json.Num e.wall_s);
       ("samples_s", Json.Arr (List.map (fun x -> Json.Num x) e.samples_s));
     ]
    @ (match e.ols_s with None -> [] | Some x -> [ ("ols_s", Json.Num x) ])
    @ (match e.quantiles with
      | [] -> []
      | qs -> [ ("quantiles", Json.Obj (List.map (fun (k, q) -> (k, quantiles_to_json q)) qs)) ])
    @
    match e.spans with
    | [] -> []
    | spans ->
      [
        ( "spans",
          Json.Arr
            (List.map
               (fun s ->
                 Json.Obj
                   [
                     ("cat", Json.Str s.cat);
                     ("name", Json.Str s.span);
                     ("count", Json.int s.count);
                     ("total_s", Json.Num s.total_s);
                   ])
               spans) );
      ])

let to_json a =
  Json.Obj
    [
      ("schema_version", Json.int a.version);
      ("suite", Json.Str a.suite);
      ("experiments", Json.Arr (List.map experiment_to_json a.experiments));
    ]

let render a = Json.to_string ~indent:true (to_json a) ^ "\n"

(* Parsing: a missing required field is a hard error naming the field, so
   a truncated or hand-edited baseline fails loudly, not as a silent
   all-pass compare. *)

exception Corrupt of string

let need what = function Some v -> v | None -> raise (Corrupt ("missing or ill-typed " ^ what))

let quantiles_of_json j =
  let num k = need ("quantile " ^ k) (Option.bind (Json.member k j) Json.get_num) in
  { q50 = num "p50"; q90 = num "p90"; q99 = num "p99" }

let experiment_of_json j =
  let str k = need k (Option.bind (Json.member k j) Json.get_str) in
  let num k = need k (Option.bind (Json.member k j) Json.get_num) in
  let samples =
    need "samples_s" (Option.bind (Json.member "samples_s" j) Json.get_arr)
    |> List.map (fun v -> need "sample" (Json.get_num v))
  in
  let ols_s = Option.bind (Json.member "ols_s" j) Json.get_num in
  let quantiles =
    match Json.member "quantiles" j with
    | Some (Json.Obj fields) -> List.map (fun (k, v) -> (k, quantiles_of_json v)) fields
    | Some _ -> raise (Corrupt "quantiles must be an object")
    | None -> []
  in
  let spans =
    match Option.bind (Json.member "spans" j) Json.get_arr with
    | None -> []
    | Some items ->
      List.map
        (fun s ->
          {
            cat = need "span cat" (Option.bind (Json.member "cat" s) Json.get_str);
            span = need "span name" (Option.bind (Json.member "name" s) Json.get_str);
            count = int_of_float (need "span count" (Option.bind (Json.member "count" s) Json.get_num));
            total_s = need "span total_s" (Option.bind (Json.member "total_s" s) Json.get_num);
          })
        items
  in
  { name = str "name"; wall_s = num "wall_s"; samples_s = samples; ols_s; quantiles; spans }

let of_json j =
  let version =
    int_of_float (need "schema_version" (Option.bind (Json.member "schema_version" j) Json.get_num))
  in
  if version <> schema_version then
    raise (Corrupt (Printf.sprintf "unsupported schema_version %d (want %d)" version schema_version));
  let suite = need "suite" (Option.bind (Json.member "suite" j) Json.get_str) in
  let experiments =
    need "experiments" (Option.bind (Json.member "experiments" j) Json.get_arr)
    |> List.map experiment_of_json
  in
  { version; suite; experiments }

let parse text =
  match Json.parse text with
  | Error msg -> Error ("invalid JSON: " ^ msg)
  | Ok j -> ( try Ok (of_json j) with Corrupt msg -> Error msg)

let write path a = Util.Fs.write_file path (render a)

let read path =
  match Util.Fs.read_file path with
  | text -> parse text
  | exception Sys_error msg -> Error msg

let make ?(suite = "barracuda-bench") experiments =
  { version = schema_version; suite; experiments }

(* ---------------- comparison against a baseline ---------------- *)

type status = Regression | Improvement | Same | No_baseline

type delta = {
  exp : string;
  status : status;
  comparison : Util.Stats.comparison option;  (* None when no baseline entry *)
}

(* Compare on raw samples when the experiment has them; a single wall time
   otherwise (where the comparator's dominance rule applies). *)
let comparison_samples e = match e.samples_s with [] -> [ e.wall_s ] | s -> s

let compare_artifacts ?alpha ?(min_ratio = 1.5) ~baseline ~current () =
  List.map
    (fun cur ->
      match
        List.find_opt (fun (b : experiment) -> b.name = cur.name) baseline.experiments
      with
      | None -> { exp = cur.name; status = No_baseline; comparison = None }
      | Some base ->
        let c =
          Util.Stats.compare_samples ?alpha ~min_ratio ~base:(comparison_samples base)
            ~cur:(comparison_samples cur) ()
        in
        let status =
          if c.regression then Regression
          else if c.improvement then Improvement
          else Same
        in
        { exp = cur.name; status; comparison = Some c })
    current.experiments

(* The gate: pass unless some experiment regressed. *)
let gate deltas = not (List.exists (fun d -> d.status = Regression) deltas)

let status_name = function
  | Regression -> "REGRESSION"
  | Improvement -> "improved"
  | Same -> "ok"
  | No_baseline -> "no baseline"

let render_deltas deltas =
  let rows =
    [ "experiment"; "baseline"; "current"; "ratio"; "p(slower)"; "CI ratio"; "verdict" ]
    :: List.map
         (fun d ->
           match d.comparison with
           | None -> [ d.exp; "-"; "-"; "-"; "-"; "-"; status_name d.status ]
           | Some c ->
             [
               d.exp;
               Printf.sprintf "%.4gs (n=%d)" c.median_base c.n_base;
               Printf.sprintf "%.4gs (n=%d)" c.median_cur c.n_cur;
               Printf.sprintf "%.2fx" c.ratio;
               Printf.sprintf "%.3f" c.p_slower;
               Printf.sprintf "[%.2f, %.2f]" c.ci_low c.ci_high;
               status_name d.status;
             ])
         deltas
  in
  Util.Table.render (Util.Table.create ~title:"Benchmark comparison vs baseline" rows)
