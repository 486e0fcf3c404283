open Calyx
module Json = Calyx_telemetry.Json

type t = { mutable obs : Pass.observation list (* reversed *) }

let create () = { obs = [] }
let observer t (o : Pass.observation) = t.obs <- o :: t.obs
let observations t = List.rev t.obs

let compile ?config ctx =
  let t = create () in
  let ctx = Pipelines.compile ?config ~observe:(observer t) ctx in
  (ctx, t)

let total_seconds t =
  List.fold_left (fun acc o -> acc +. o.Pass.obs_seconds) 0. t.obs

let consistent t =
  let rec check = function
    | a :: (b :: _ as rest) ->
        a.Pass.obs_after = b.Pass.obs_before && check rest
    | _ -> true
  in
  check (observations t)

let delta before after =
  if after = before then Printf.sprintf "%d" after
  else Printf.sprintf "%d->%d (%+d)" before after (after - before)

(* Per-pass timing: mid-pipeline (structured) contexts are analyzed as
   their merged netlist, which can exhibit cycles that lowering later
   resolves — those passes report no timing rather than failing. *)
let timing_of ctx =
  try Some (Calyx_synth.Timing.context_timing ~paths:1 ctx)
  with Calyx_synth.Timing.Combinational_loop _ | Ir.Ir_error _ -> None

let timing_pair (o : Pass.observation) =
  (timing_of o.Pass.obs_ctx_before, timing_of o.Pass.obs_ctx_after)

let odelta fmt before after =
  match (before, after) with
  | Some b, Some a ->
      if a = b then fmt a else Printf.sprintf "%s->%s" (fmt b) (fmt a)
  | _ -> "-"

let render t =
  let obs = observations t in
  let rows =
    [ "pass"; "ms"; "cells"; "groups"; "assigns"; "control";
      "depth_ps"; "fmax_mhz" ]
    :: List.map
         (fun (o : Pass.observation) ->
           let b = o.obs_before and a = o.obs_after in
           let tb, ta = timing_pair o in
           let delay r = r.Calyx_synth.Timing.delay_ps in
           let fmax r = r.Calyx_synth.Timing.fmax_mhz in
           [
             o.obs_pass;
             Printf.sprintf "%.2f" (o.obs_seconds *. 1000.);
             delta b.Pass.cells a.Pass.cells;
             delta b.Pass.groups a.Pass.groups;
             delta b.Pass.assignments a.Pass.assignments;
             delta b.Pass.control_nodes a.Pass.control_nodes;
             odelta string_of_int (Option.map delay tb) (Option.map delay ta);
             odelta
               (fun f -> Printf.sprintf "%.0f" f)
               (Option.map fmax tb) (Option.map fmax ta);
           ])
         obs
  in
  let ncols = 8 in
  let width c =
    List.fold_left (fun w row -> max w (String.length (List.nth row c))) 0 rows
  in
  let widths = List.init ncols width in
  let buf = Buffer.create 512 in
  List.iter
    (fun row ->
      List.iteri
        (fun c field ->
          if c > 0 then Buffer.add_string buf "  ";
          Buffer.add_string buf
            (Printf.sprintf "%-*s" (List.nth widths c) field))
        row;
      Buffer.add_char buf '\n')
    rows;
  Buffer.add_string buf
    (Printf.sprintf "total: %.2f ms over %d passes\n"
       (total_seconds t *. 1000.)
       (List.length obs));
  Buffer.contents buf

let counts_json (c : Pass.counts) =
  Json.obj
    [
      ("components", Json.int c.Pass.components);
      ("cells", Json.int c.Pass.cells);
      ("groups", Json.int c.Pass.groups);
      ("assignments", Json.int c.Pass.assignments);
      ("control_nodes", Json.int c.Pass.control_nodes);
    ]

let to_json t =
  let passes =
    List.map
      (fun (o : Pass.observation) ->
        let tb, ta = timing_pair o in
        let delay = function
          | Some r -> Json.int r.Calyx_synth.Timing.delay_ps
          | None -> Json.null
        in
        let fmax = function
          | Some r -> Json.float r.Calyx_synth.Timing.fmax_mhz
          | None -> Json.null
        in
        Json.obj
          [
            ("name", Json.str o.obs_pass);
            ("description", Json.str o.obs_description);
            ("seconds", Json.float o.obs_seconds);
            ("before", counts_json o.obs_before);
            ("after", counts_json o.obs_after);
            ("delay_ps_before", delay tb);
            ("delay_ps_after", delay ta);
            ("fmax_mhz_before", fmax tb);
            ("fmax_mhz_after", fmax ta);
          ])
      (observations t)
  in
  Json.obj
    [
      ("passes", Json.arr passes);
      ("total_seconds", Json.float (total_seconds t));
    ]
