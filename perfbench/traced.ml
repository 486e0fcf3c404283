(* The traced run (--trace 1): every job of the corpus taken apart by
   Ledger, beside the untraced farm invocations that give the farm
   metrics and an untraced [Job.run] of each job that gives the reference
   outcome and the tracing overhead. Each repetition is bracketed by
   calibrations, so its times are in reference seconds. *)

open Report
module Job = Calyx_farm.Job
module Farm = Calyx_farm.Farm

(* Spans are flat, so Σ self never exceeds the root (up to clock
   resolution); the remainder is the glue between layer calls, which must
   stay under this share of the workload's root time. *)
let closure_share = 0.10

(* The deterministic counts of one traced job. *)
let ir_fingerprint (t : Ledger.trace) =
  let counts (p, (c : Calyx.Pass.counts)) =
    Printf.sprintf "%s:%d/%d/%d/%d/%d" p c.components c.cells c.groups
      c.assignments c.control_nodes
  in
  let freed (p, n) = Printf.sprintf "%s-freed:%d" p n in
  String.concat " "
    ([
       Printf.sprintf "%s cycles=%d rtl_cycles=%d sv_loc=%d nets=%d procs=%d"
         t.label t.cycles t.rtl_cycles t.sv_loc t.rtl_nets t.rtl_procs;
     ]
    @ List.map counts t.ir_after
    @ List.map freed t.cells_freed)

type rep = {
  k : float;  (** Reference seconds per measured second (Calibration). *)
  traces : Ledger.trace list;
  untraced_s : float;  (** Σ untraced [Job.run] seconds of the same jobs. *)
  farm : Farm.summary list;  (** The untraced farm invocations. *)
}

let results (s : Farm.summary list) =
  List.concat_map (fun (x : Farm.summary) -> x.results) s

let seconds rs = sum (List.map (fun (r : Farm.result) -> r.seconds) rs)

(* The farm's own figures, from the untraced invocations at the workload's
   domain count and cache. *)
let farm_metrics (w : Workloads.t) reps =
  let n = List.length reps in
  let per_rep f = median (List.map (fun r -> f r.farm) reps) in
  let per_rep_s f = median (List.map (fun r -> r.k *. f r.farm) reps) in
  let busy s = seconds (results s) in
  let capacity s =
    float_of_int w.domains *. sum (List.map (fun (x : Farm.summary) -> x.wall_s) s)
  in
  let hit_s s =
    let hits = List.filter (fun (r : Farm.result) -> r.cached) (results s) in
    div (seconds hits) (float_of_int (List.length hits))
  in
  let one = (List.hd reps).farm in
  let total f = float_of_int (List.fold_left (fun a x -> a + f x) 0 one) in
  let hits = total (fun (x : Farm.summary) -> x.hits)
  and misses = total (fun (x : Farm.summary) -> x.misses) in
  [
    metric ~samples:n "farm.busy_s" "s" (per_rep_s busy);
    metric ~samples:n "farm.idle_s" "s" (per_rep_s (fun s -> capacity s -. busy s));
    metric ~samples:n "farm.utilization" "ratio"
      (per_rep (fun s -> div (busy s) (capacity s)));
    metric "farm.cache.hits" "count" hits;
    metric "farm.cache.misses" "count" misses;
    metric "farm.cache.stores" "count" (total (fun (x : Farm.summary) -> x.stores));
    metric "farm.cache.hit_ratio" "ratio" (div hits (hits +. misses));
    metric ~samples:n "farm.cache.hit_s" "s" (per_rep_s hit_s);
  ]

let run (w : Workloads.t) ~seed ~seconds =
  let reps = ref [] and reproduced = ref true and first = ref None in
  let attempted = ref 0 and failed = ref 0 in
  let overlapping = ref 0 and glue_heavy = ref 0 in
  let check (t : Ledger.trace) (o : Job.outcome) =
    incr attempted;
    let u = Ledger.unattributed_s t in
    if u < -1e-6 then incr overlapping;
    if u > 0.05 *. t.root_s then incr glue_heavy;
    let same =
      String.equal (Job.outcome_to_json t.outcome) (Job.outcome_to_json o)
    in
    if not (same && t.outcome.o_ok) then incr failed
  in
  repeat ~seconds (fun n ->
      let before = Calibration.measure ~domains:w.domains in
      let corpus = Workloads.setup w ~seed in
      Fun.protect
        ~finally:(fun () -> Workloads.teardown corpus)
        (fun () ->
          let farm = Workloads.run w corpus in
          let untraced j =
            let t0 = now () in
            let o = Job.run j in
            (o, now () -. t0)
          in
          (* Traced and untraced alternate which goes first, so drift
             cancels out of the overhead ratio. *)
          let pairs =
            List.mapi
              (fun i j ->
                if (i + n) mod 2 = 0 then
                  let u = untraced j in
                  (Ledger.run j, u)
                else
                  let t = Ledger.run j in
                  (t, untraced j))
              (Workloads.traced_jobs w corpus)
          in
          List.iter (fun (t, (o, _)) -> check t o) pairs;
          let traces = List.map fst pairs in
          let fp =
            String.concat "\n" (List.sort compare (List.map ir_fingerprint traces))
          in
          (match !first with
          | None -> first := Some fp
          | Some f -> if not (String.equal f fp) then reproduced := false);
          let after = Calibration.measure ~domains:w.domains in
          reps :=
            {
              k = Calibration.factor ~before ~after;
              traces;
              untraced_s = sum (List.map (fun (_, (_, s)) -> s) pairs);
              farm;
            }
            :: !reps));
  let reps = List.rev !reps in
  let n = List.length reps in
  (* Per repetition, summed over its jobs; the [_s] forms are times, in
     reference seconds. *)
  let per_rep f = List.map (fun r -> sum (List.map f r.traces)) reps in
  let per_rep_s f = List.map (fun r -> r.k *. sum (List.map f r.traces)) reps in
  let all_reps f = sum (per_rep f) and all_reps_s f = sum (per_rep_s f) in
  let root = all_reps_s (fun t -> t.root_s) in
  let mb words = words *. float_of_int (Sys.word_size / 8) /. 1e6 in
  let layer name self words =
    [
      metric ~samples:n (name ^ ".self_s") "s" (median (per_rep_s self));
      metric ~samples:n (name ^ ".share") "ratio" (div (all_reps_s self) root);
      metric ~samples:n (name ^ ".alloc_mb") "MB" (mb (median (per_rep words)));
    ]
  in
  let ledger =
    List.concat_map
      (fun l -> layer l (fun t -> Ledger.self t l) (fun t -> Ledger.words t l))
      Ledger.layers
    @ layer "unattributed" Ledger.unattributed_s Ledger.unattributed_words
  in
  (* Counts are deterministic: take the first repetition's. *)
  let count f =
    float_of_int (List.fold_left (fun a t -> a + f t) 0 (List.hd reps).traces)
  in
  let lowered (t : Ledger.trace) =
    snd (List.nth t.ir_after (List.length t.ir_after - 1))
  in
  let ns_per_cycle layer cycles =
    1e9 *. div (all_reps_s (fun t -> Ledger.self t layer)) (all_reps cycles)
  in
  let counts =
    [
      metric "calyx.ir.cells_out" "count" (count (fun t -> (lowered t).cells));
      metric "calyx.ir.assignments_out" "count"
        (count (fun t -> (lowered t).assignments));
      metric "calyx.pass.resource-sharing.cells_removed" "count"
        (count (fun t -> List.assoc "resource-sharing" t.cells_freed));
      metric "calyx.pass.register-sharing.cells_removed" "count"
        (count (fun t -> List.assoc "register-sharing" t.cells_freed));
      metric "sim.cycles" "count" (count (fun t -> t.cycles));
      metric ~samples:n "sim.ns_per_cycle" "ns/cycle"
        (ns_per_cycle "sim.simulate" (fun t -> float_of_int t.cycles));
      metric ~samples:n "verilog.rtl_sim.ns_per_cycle" "ns/cycle"
        (ns_per_cycle "verilog.rtl_sim" (fun t -> float_of_int t.rtl_cycles));
      metric "verilog.sv_loc" "count" (count (fun t -> t.sv_loc));
      metric "verilog.rtl_nets" "count" (count (fun t -> t.rtl_nets));
      metric "verilog.rtl_procs" "count" (count (fun t -> t.rtl_procs));
    ]
  in
  (* Scaling exponents over the systolic sweep: per size, the median over
     repetitions of that job's self time, fitted log-log. *)
  let exponent self =
    if not (String.equal w.name "systolic-compile") then 0.
    else
      Stats.loglog_slope
        (List.map
           (fun size ->
             let label = Job.label (Workloads.job (Workloads.systolic size)) in
             let job r =
               List.find (fun (t : Ledger.trace) -> t.label = label) r.traces
             in
             (float_of_int size, median (List.map (fun r -> r.k *. self (job r)) reps)))
           Workloads.systolic_sizes)
  in
  let compile t =
    List.fold_left
      (fun a l -> a +. Ledger.self t l)
      0.
      ([ "calyx.well_formed"; "calyx.lint" ] @ Ledger.passes)
  in
  let exponents =
    [
      metric "calyx.pass.register-sharing.exponent" "exponent"
        (exponent (fun t -> Ledger.self t "calyx.pass.register-sharing"));
      metric "calyx.pass.resource-sharing.exponent" "exponent"
        (exponent (fun t -> Ledger.self t "calyx.pass.resource-sharing"));
      metric "calyx.compile.exponent" "exponent" (exponent compile);
    ]
  in
  let traced_s r = sum (List.map (fun (t : Ledger.trace) -> t.root_s) r.traces) in
  let overhead =
    [
      metric ~samples:n "trace.root_s" "s" (median (per_rep_s (fun t -> t.root_s)));
      metric ~samples:n "trace.overhead_ratio" "ratio"
        (median (List.map (fun r -> div (traced_s r) r.untraced_s) reps));
    ]
  in
  (* The dominant-layer predictions (README.md): reported, not enforced. *)
  let share prefix =
    div
      (all_reps_s (fun t ->
           sum
             (List.filter_map
                (fun l ->
                  if String.starts_with ~prefix l then Some (Ledger.self t l)
                  else None)
                Ledger.layers)))
      root
  in
  Printf.printf
    "dominant layers %s: calyx.pass.* %.3f  calyx.* %.3f  sim.simulate %.3f  \
     verilog.* %.3f\n"
    w.name (share "calyx.pass.") (share "calyx.") (share "sim.simulate")
    (share "verilog.");
  Printf.printf "trace fingerprint %s %s (reproduced by every repetition: %b)\n"
    w.name
    (Digest.to_hex (Digest.string (Option.value !first ~default:"")))
    !reproduced;
  let glue = div (all_reps_s Ledger.unattributed_s) root in
  Printf.printf
    "closure: %d of %d traced jobs have Σ self > root; unattributed %.4f of \
     root (gate %.2f), %d jobs above 5%%; recomposition: %d of %d outcomes \
     differ or failed\n"
    !overlapping !attempted glue closure_share !glue_heavy !failed !attempted;
  let metrics = ledger @ counts @ farm_metrics w reps @ exponents @ overhead in
  print_table
    (Printf.sprintf "traced workload %s seed %d repetitions %d" w.name seed n)
    metrics;
  finish
    ~correct:
      (!reproduced && !failed = 0 && !overlapping = 0 && glue <= closure_share)
    ~attempted:!attempted ~failed:!failed metrics
