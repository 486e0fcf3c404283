(* Aggregation of manifest corpora into per-source/per-stage rollups, and
   the compile-time regression comparison behind
   `calyx report --baseline BENCH_results.json --threshold R`. *)

type rollup = {
  r_source : string;
  r_stage : string;
  r_cat : string;
  r_count : int;
  r_seconds : float;
  r_self_seconds : float;
  r_minor_words : float;
  r_major_words : float;
  r_data : (string * float) list;  (* summed numeric results *)
}

let merge_data acc data =
  List.fold_left
    (fun acc (k, v) ->
      match List.assoc_opt k acc with
      | Some prev -> (k, prev +. v) :: List.remove_assoc k acc
      | None -> acc @ [ (k, v) ])
    acc data

let aggregate events =
  (* First-seen order for both sources and stages keeps the report in
     pipeline order without imposing an alphabetical shuffle. *)
  let order : (string * string) list ref = ref [] in
  let table : (string * string, rollup) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (e : Manifest.event) ->
      let key = (e.Manifest.mf_source, e.Manifest.mf_stage) in
      match Hashtbl.find_opt table key with
      | None ->
          order := key :: !order;
          Hashtbl.replace table key
            {
              r_source = e.Manifest.mf_source;
              r_stage = e.Manifest.mf_stage;
              r_cat = e.Manifest.mf_cat;
              r_count = 1;
              r_seconds = e.Manifest.mf_seconds;
              r_self_seconds = e.Manifest.mf_self_seconds;
              r_minor_words = e.Manifest.mf_minor_words;
              r_major_words = e.Manifest.mf_major_words;
              r_data = e.Manifest.mf_data;
            }
      | Some r ->
          Hashtbl.replace table key
            {
              r with
              r_count = r.r_count + 1;
              r_seconds = r.r_seconds +. e.Manifest.mf_seconds;
              r_self_seconds = r.r_self_seconds +. e.Manifest.mf_self_seconds;
              r_minor_words = r.r_minor_words +. e.Manifest.mf_minor_words;
              r_major_words = r.r_major_words +. e.Manifest.mf_major_words;
              r_data = merge_data r.r_data e.Manifest.mf_data;
            })
    events;
  List.rev_map (fun key -> Hashtbl.find table key) !order

(* Self times partition a run (no nested span is counted twice), so the
   per-source total is their sum over every row. *)
let totals_by_source rollups =
  let order = ref [] in
  let table = Hashtbl.create 16 in
  List.iter
    (fun r ->
      if not (Hashtbl.mem table r.r_source) then order := r.r_source :: !order;
      let s = Option.value (Hashtbl.find_opt table r.r_source) ~default:0. in
      Hashtbl.replace table r.r_source (s +. r.r_self_seconds))
    rollups;
  List.rev_map (fun src -> (src, Hashtbl.find table src)) !order

let fmt_words w =
  if Float.abs w >= 1e6 then Printf.sprintf "%.1fMw" (w /. 1e6)
  else if Float.abs w >= 1e3 then Printf.sprintf "%.1fkw" (w /. 1e3)
  else Printf.sprintf "%.0fw" w

let render rollups =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%-20s %-34s %5s %10s %10s %10s %10s  %s\n" "source"
       "stage" "n" "wall_ms" "self_ms" "minor" "major" "metrics");
  List.iter
    (fun r ->
      let metrics =
        String.concat " "
          (List.map
             (fun (k, v) ->
               if Float.is_integer v then Printf.sprintf "%s=%.0f" k v
               else Printf.sprintf "%s=%.2f" k v)
             r.r_data)
      in
      Buffer.add_string buf
        (Printf.sprintf "%-20s %-34s %5d %10.3f %10.3f %10s %10s  %s\n"
           r.r_source
           (if r.r_cat = "pass" then "  " ^ r.r_stage else r.r_stage)
           r.r_count (r.r_seconds *. 1000.) (r.r_self_seconds *. 1000.)
           (fmt_words r.r_minor_words)
           (fmt_words r.r_major_words)
           metrics))
    rollups;
  (match totals_by_source rollups with
  | [] -> ()
  | per_source ->
      Buffer.add_string buf "\nper-source totals (sum of self time):\n";
      List.iter
        (fun (src, s) ->
          Buffer.add_string buf
            (Printf.sprintf "  %-20s %10.3f ms\n" src (s *. 1000.)))
        per_source);
  Buffer.contents buf

let rollup_json r =
  Json.obj
    [
      ("source", Json.str r.r_source);
      ("stage", Json.str r.r_stage);
      ("cat", Json.str r.r_cat);
      ("count", Json.int r.r_count);
      ("seconds", Json.float r.r_seconds);
      ("self_seconds", Json.float r.r_self_seconds);
      ("gc_minor_words", Json.float r.r_minor_words);
      ("gc_major_words", Json.float r.r_major_words);
      ( "data",
        Json.obj (List.map (fun (k, v) -> (k, Json.float v)) r.r_data) );
    ]

let to_json rollups =
  Json.obj
    [
      ("rollups", Json.arr (List.map rollup_json rollups));
      ( "totals",
        Json.obj
          (List.map
             (fun (src, s) ->
               (src, Json.obj [ ("self_seconds", Json.float s) ]))
             (totals_by_source rollups)) );
    ]

(* ------------------------------------------------------------------ *)
(* Compile-time regression: the bench perf experiment vs a baseline     *)
(* ------------------------------------------------------------------ *)

type perf_delta = {
  p_name : string;
  p_base_ns : float;
  p_cur_ns : float;
  p_ratio : float;  (* cur / base *)
  p_normalized : float;  (* ratio / machine factor *)
  p_regressed : bool;
}

let geomean = function
  | [] -> nan
  | l ->
      exp
        (List.fold_left (fun a x -> a +. log x) 0. l
        /. float_of_int (List.length l))

let perf_rows v =
  match Option.bind (Json.member "perf" v) (Json.member "rows") with
  | Some (Json.Array rows) ->
      List.filter_map
        (fun row ->
          match
            ( Option.bind (Json.member "name" row) Json.to_string,
              Option.bind (Json.member "ns_per_run" row) Json.to_float )
          with
          | Some name, Some ns when ns > 0. -> Some (name, ns)
          | _ -> None)
        rows
  | _ -> []

(* Raw ns_per_run is machine-dependent, so comparing a laptop baseline on
   a CI runner with an absolute threshold would always fire. The machine
   factor — the geomean of all cur/base ratios — captures the overall
   speed difference; a row regresses only when its own ratio exceeds the
   factor by more than [threshold] (a *relative* slowdown: this operation
   got slower than the toolchain as a whole did). *)
let compare_perf ~threshold ~baseline ~current =
  let base = perf_rows baseline and cur = perf_rows current in
  let paired =
    List.filter_map
      (fun (name, c) ->
        Option.map (fun b -> (name, b, c)) (List.assoc_opt name base))
      cur
  in
  let factor = geomean (List.map (fun (_, b, c) -> c /. b) paired) in
  let factor = if Float.is_nan factor then 1. else factor in
  let deltas =
    List.map
      (fun (name, b, c) ->
        let ratio = c /. b in
        let normalized = ratio /. factor in
        {
          p_name = name;
          p_base_ns = b;
          p_cur_ns = c;
          p_ratio = ratio;
          p_normalized = normalized;
          p_regressed = normalized > 1. +. threshold;
        })
      paired
  in
  (deltas, factor)

let render_perf ~threshold (deltas, factor) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf
       "compile-time regression check (machine factor %.3fx, threshold \
        +%.0f%% relative)\n"
       factor (threshold *. 100.));
  Buffer.add_string buf
    (Printf.sprintf "%-46s %14s %14s %9s %9s\n" "operation" "baseline_ns"
       "current_ns" "ratio" "relative");
  List.iter
    (fun d ->
      Buffer.add_string buf
        (Printf.sprintf "%-46s %14.1f %14.1f %8.2fx %8.2fx%s\n" d.p_name
           d.p_base_ns d.p_cur_ns d.p_ratio d.p_normalized
           (if d.p_regressed then "  REGRESSION" else "")))
    deltas;
  let n = List.length (List.filter (fun d -> d.p_regressed) deltas) in
  Buffer.add_string buf
    (Printf.sprintf "%d of %d operations regressed\n" n (List.length deltas));
  Buffer.contents buf

let regressions deltas = List.filter (fun d -> d.p_regressed) deltas
