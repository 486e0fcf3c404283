(* The four workloads: which jobs each submits, on how many domains, and
   whether through a cache. Every corpus is a pure function of the seed;
   for the fixed corpora the seed only shuffles submission order. *)

module Job = Calyx_farm.Job
module Farm = Calyx_farm.Farm
module Cache = Calyx_farm.Cache

type t = {
  name : string;
  domains : int;
  cached : bool;
      (** A cold batch into a fresh cache, then an edit batch that
          resubmits the corpus with a seeded quarter replaced. *)
}

let all =
  [
    { name = "systolic-compile"; domains = 1; cached = false };
    { name = "polybench-sim"; domains = 1; cached = false };
    { name = "validate-rtl"; domains = 1; cached = false };
    { name = "fuzz-farm"; domains = 2; cached = true };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all

(* Every job pins the fast engine: [Job.make] still defaults to the
   fixpoint oracle, which is 30x slower on PolyBench. *)
let job ?(validate = false) source =
  Job.make ~config:Calyx.Pipelines.default_config ~engine:`Compiled ~validate
    source

let systolic_sizes = [ 4; 6; 8; 10 ]

let systolic n = Job.Systolic { rows = n; cols = n; depth = n }

let validate_kernels =
  [ "gemm"; "atax"; "mvt"; "cholesky"; "gramschmidt"; "trisolv" ]

let fuzz_programs = 1000
let validate_fuzz_programs = 50

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

(* The farm's content address of a job. *)
let key j =
  Cache.key ~source:(Job.key_source j)
    ~pipeline:(Calyx.Pipelines.id j.Job.config)
    ~engine:(Job.engine_name j)

(* [n] fuzz jobs whose keys are distinct from each other and from
   [taken]. Distinct fuzz seeds can draw the same program; a repeated key
   inside one parallel batch would make the cache hit count depend on
   which domain finishes first, so the corpus never holds one. *)
let fresh_fuzz rng ~validate ~taken n =
  let rec draw acc k =
    if k = 0 then List.rev acc
    else
      let j = job ~validate (Job.Fuzz { seed = Random.State.bits rng }) in
      let kj = key j in
      if Hashtbl.mem taken kj then draw acc k
      else begin
        Hashtbl.add taken kj ();
        draw (j :: acc) (k - 1)
      end
  in
  draw [] n

type corpus = {
  batches : Job.t list list;  (** Submitted in order, one [Farm.run] each. *)
  cache : Cache.t option;
}

let work_root = ".perfbench"

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    if not (Sys.file_exists work_root) then Sys.mkdir work_root 0o755;
    Filename.concat work_root
      (Printf.sprintf "cache-%d-%d" (Unix.getpid ()) !n)

(* A fixed small job through every layer (frontend, passes, both
   simulators, emit, RTL, timing, area): forces lazy initialisation so it
   lands in set-up, not in the first timed job. *)
let warmup = job ~validate:true (Job.Systolic { rows = 2; cols = 2; depth = 2 })

(* Set-up: corpus generation, kernel parsing, content addressing, cache
   directory creation, warm-up. Everything before the first timed job. *)
let setup w ~seed =
  let rng = Random.State.make [| seed |] in
  let taken = Hashtbl.create 2048 in
  (* Content-address the fixed jobs too, as a cached farm run would. *)
  let fixed jobs = List.iter (fun j -> Hashtbl.replace taken (key j) ()) jobs in
  let kernel ?validate name =
    let k = Polybench.Kernels.find name in
    ignore (Dahlia.Parser.parse_string k.Polybench.Kernels.source);
    job ?validate (Job.Polybench { kernel = name; unrolled = false })
  in
  let batches =
    match w.name with
    | "systolic-compile" ->
        let jobs = List.map (fun n -> job (systolic n)) systolic_sizes in
        fixed jobs;
        (* One farm invocation per array: a 10x10 job runs for seconds, so
           each gets calibrated on its own. *)
        List.map (fun j -> [ j ]) (shuffle rng jobs)
    | "polybench-sim" ->
        let jobs =
          List.map (fun k -> kernel k.Polybench.Kernels.name)
            Polybench.Kernels.all
        in
        fixed jobs;
        [ shuffle rng jobs ]
    | "validate-rtl" ->
        let jobs =
          List.map (kernel ~validate:true) validate_kernels
          @ [ job ~validate:true (systolic 4) ]
        in
        fixed jobs;
        let fuzz =
          fresh_fuzz rng ~validate:true ~taken validate_fuzz_programs
        in
        [ shuffle rng (jobs @ fuzz) ]
    | "fuzz-farm" ->
        let cold = fresh_fuzz rng ~validate:false ~taken fuzz_programs in
        let replaced = Array.make fuzz_programs false in
        List.iteri
          (fun rank i -> if rank < fuzz_programs / 4 then replaced.(i) <- true)
          (shuffle rng (List.init fuzz_programs Fun.id));
        let fresh =
          ref (fresh_fuzz rng ~validate:false ~taken (fuzz_programs / 4))
        in
        let edit =
          List.mapi
            (fun i j ->
              if replaced.(i) then begin
                let r = List.hd !fresh in
                fresh := List.tl !fresh;
                r
              end
              else j)
            cold
        in
        [ cold; edit ]
    | other -> invalid_arg ("unknown workload " ^ other)
  in
  let cache = if w.cached then Some (Cache.open_dir (fresh_dir ())) else None in
  ignore (Job.run warmup);
  { batches; cache }

let submit w corpus batch = Farm.run ~jobs:w.domains ?cache:corpus.cache batch
let run w corpus = List.map (submit w corpus) corpus.batches
let teardown corpus =
  Option.iter
    (fun c ->
      rm_rf (Cache.dir c);
      try Sys.rmdir work_root with Sys_error _ -> ())
    corpus.cache

(* The jobs the traced run takes apart: every job once (for fuzz-farm,
   the cold corpus). *)
let traced_jobs w corpus =
  if w.cached then List.hd corpus.batches else List.concat corpus.batches
