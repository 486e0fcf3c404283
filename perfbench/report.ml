(* What both runs share: the metric record, the printed table, the final
   JSON line and the repetition loop. *)

module Json = Calyx_telemetry.Json

let now = Unix.gettimeofday
let sum = List.fold_left ( +. ) 0.
let div a b = if b = 0. then 0. else a /. b
let median l = Stats.median (Array.of_list l)

type metric = { name : string; value : float; unit : string; samples : int }

let metric ?(samples = 1) name unit value = { name; value; unit; samples }

(* Repeat [f] until [seconds] have passed, at least twice, so every run
   both measures a median and checks that two repetitions agree. *)
let repeat ~seconds f =
  let start = now () in
  let rec go n =
    if n < 2 || now () -. start < seconds then begin
      f n;
      go (n + 1)
    end
  in
  go 0

(* The process high-water RSS: the compiler's peak memory. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec scan () =
        let line = input_line ic in
        if String.starts_with ~prefix:"VmHWM:" line then
          Scanf.sscanf line "VmHWM: %f kB" (fun kb -> kb /. 1024.)
        else scan ()
      in
      scan ())

let print_table title metrics =
  Printf.printf "%s\n  %-46s %16s  %-9s %s\n" title "metric" "value" "unit"
    "samples";
  List.iter
    (fun m ->
      Printf.printf "  %-46s %16.6g  %-9s %d\n" m.name m.value m.unit m.samples)
    metrics

(* The last line of standard output; exits 1 unless every check held. *)
let finish ~correct ~attempted ~failed metrics =
  let correct =
    correct && List.for_all (fun m -> Float.is_finite m.value) metrics
  in
  let value m =
    (m.name, Json.obj [ ("value", Json.float m.value); ("unit", Json.str m.unit) ])
  in
  print_endline
    (Json.obj
       [
         ("correct", Json.bool correct);
         ("attempted", Json.int attempted);
         ("failed", Json.int failed);
         ("metrics", Json.obj (List.map value metrics));
       ]);
  exit (if correct then 0 else 1)
