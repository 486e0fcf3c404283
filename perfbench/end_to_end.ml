(* The end-to-end run (--trace 0): whole farm invocations, telemetry off,
   repeated for the run's seconds. Every farm invocation is bracketed by
   calibrations, so its times are in reference seconds. *)

open Report
module Job = Calyx_farm.Job
module Farm = Calyx_farm.Farm

(* One job of the corpus over the run: its first result, and its wall
   samples (reference seconds), cold runs and cache hits apart. *)
type row = { result : Farm.result; cold : float list ref; hits : float list ref }

(* The deterministic outcome of one repetition, order-independent:
   per-job cycles and hw figures, then the farm's cache counts. *)
let fingerprint (summaries : Farm.summary list) =
  let rows = Hashtbl.create 1024 in
  List.iter
    (fun (s : Farm.summary) ->
      List.iter
        (fun (r : Farm.result) ->
          let o = r.outcome in
          Hashtbl.replace rows o.o_label
            (Printf.sprintf
               "%s ok=%b cycles=%d luts=%d fmax=%h delay=%d regs=%d dsps=%d \
                brams=%d"
               o.o_label o.o_ok o.o_cycles o.o_luts o.o_fmax_mhz o.o_delay_ps
               o.o_register_bits o.o_dsps o.o_brams))
        s.results)
    summaries;
  let counts (s : Farm.summary) =
    Printf.sprintf "hits=%d misses=%d stores=%d" s.hits s.misses s.stores
  in
  String.concat "\n"
    (List.sort compare (Hashtbl.fold (fun _ r acc -> r :: acc) rows [])
    @ List.map counts summaries)

let hw_metrics (outcomes : Job.outcome list) =
  let geo name unit f =
    metric ~samples:(List.length outcomes) name unit
      (Stats.geomean (List.map f outcomes))
  in
  [
    geo "hw_cycles.geomean" "cycles" (fun o -> float_of_int o.o_cycles);
    geo "hw_luts.geomean" "LUTs" (fun o -> float_of_int o.o_luts);
    geo "hw_fmax_mhz.geomean" "MHz" (fun o -> o.o_fmax_mhz);
  ]

let run (w : Workloads.t) ~seed ~seconds =
  let setups = ref [] and rates = ref [] and raw_rates = ref [] in
  let factors = ref [] in
  let attempted = ref 0 and failed = ref 0 in
  let first = ref None and deterministic = ref true in
  let rows = Hashtbl.create 1024 and order = ref [] in
  let peak_rss = ref nan in
  let probe () = Calibration.measure ~domains:w.domains in
  let record k (r : Farm.result) =
    incr attempted;
    if not r.outcome.o_ok then incr failed;
    let row =
      match Hashtbl.find_opt rows r.outcome.o_label with
      | Some row -> row
      | None ->
          let row = { result = r; cold = ref []; hits = ref [] } in
          Hashtbl.add rows r.outcome.o_label row;
          order := r.outcome.o_label :: !order;
          row
    in
    let samples = if r.cached then row.hits else row.cold in
    samples := (r.seconds *. k) :: !samples
  in
  repeat ~seconds (fun n ->
      let before = ref (probe ()) in
      let t0 = now () in
      let corpus = Workloads.setup w ~seed in
      let setup_s = now () -. t0 in
      (* (summary, reference seconds per second); set-up shares the first
         invocation's calibration. *)
      let batches =
        Fun.protect
          ~finally:(fun () -> Workloads.teardown corpus)
          (fun () ->
            List.map
              (fun batch ->
                let s = Workloads.submit w corpus batch in
                let after = probe () in
                let k = Calibration.factor ~before:!before ~after in
                before := after;
                (s, k))
              corpus.batches)
      in
      (* Peak memory of one farm invocation (set-up plus one batch), so it
         does not depend on how many batches fit in the run. *)
      if n = 0 then peak_rss := peak_rss_mb ();
      let jobs =
        List.fold_left
          (fun a ((s : Farm.summary), _) -> a + List.length s.results)
          0 batches
      in
      let wall = sum (List.map (fun ((s : Farm.summary), _) -> s.wall_s) batches) in
      let ref_wall =
        sum (List.map (fun ((s : Farm.summary), k) -> k *. s.wall_s) batches)
      in
      setups := (setup_s *. snd (List.hd batches)) :: !setups;
      rates := div (float_of_int jobs) ref_wall :: !rates;
      raw_rates := div (float_of_int jobs) wall :: !raw_rates;
      factors := div ref_wall wall :: !factors;
      List.iter
        (fun ((s : Farm.summary), k) -> List.iter (record k) s.results)
        batches;
      let fp = fingerprint (List.map fst batches) in
      match !first with
      | None -> first := Some fp
      | Some f -> if not (String.equal f fp) then deterministic := false);
  let rows = List.rev_map (Hashtbl.find rows) !order in
  (* Latency percentiles and hw figures cover the workload's fixed
     designs: validate-rtl's 50 fuzz programs change with the seed and
     would make both move with the draw rather than with the program.
     fuzz-farm has no fixed design and takes all its programs. *)
  let designs =
    let fixed =
      List.filter
        (fun row ->
          match row.result.job.source with Job.Fuzz _ -> false | _ -> true)
        rows
    in
    if fixed = [] then rows else fixed
  in
  (* Per-job latency: each job's median over the run (cold runs and cache
     hits apart), then percentiles across jobs, so a slow stretch of the
     machine does not land on whichever jobs happened to run in it. *)
  let latencies =
    Array.of_list
      (List.concat_map
         (fun row ->
           List.filter_map
             (fun s -> if !s = [] then None else Some (median !s))
             [ row.cold; row.hits ])
         designs)
  in
  let n_latencies = Array.length latencies in
  let metrics =
    [
      metric ~samples:(List.length !setups) "setup_s" "s" (median !setups);
      metric ~samples:(List.length !rates) "jobs_per_s" "jobs/s" (median !rates);
      metric ~samples:n_latencies "job_s.p50" "s" (Stats.quantile 0.5 latencies);
      metric ~samples:n_latencies "job_s.p90" "s" (Stats.quantile 0.9 latencies);
      metric "peak_rss_mb" "MB" !peak_rss;
    ]
    @ hw_metrics (List.map (fun row -> row.result.outcome) designs)
  in
  Printf.printf
    "per-job rows (wall_s: median of cold runs, reference seconds)\n\
    \  %-22s %4s %9s %7s %10s %10s\n"
    "label" "ok" "cycles" "luts" "fmax_mhz" "wall_s";
  List.iter
    (fun row ->
      let o = row.result.outcome in
      Printf.printf "  %-22s %4b %9d %7d %10.3f %10.6f\n" o.o_label o.o_ok
        o.o_cycles o.o_luts o.o_fmax_mhz
        (if !(row.cold) = [] then nan else median !(row.cold)))
    rows;
  Printf.printf "fingerprint %s %s (%d jobs; reproduced by every repetition: %b)\n"
    w.name
    (Digest.to_hex (Digest.string (Option.value !first ~default:"")))
    (List.length rows) !deterministic;
  print_table
    (Printf.sprintf "workload %s seed %d domains %d cache %b" w.name seed
       w.domains w.cached)
    (metrics
    @ [
        metric ~samples:!attempted "failed_ratio" "ratio"
          (div (float_of_int !failed) (float_of_int !attempted));
        metric ~samples:(List.length !raw_rates) "jobs_per_s.raw" "jobs/s"
          (median !raw_rates);
        metric ~samples:(List.length !factors) "machine_factor" "ratio"
          (median !factors);
      ]);
  finish ~correct:(!failed = 0 && !deterministic) ~attempted:!attempted
    ~failed:!failed metrics
