(* Entry point; see README.md.  [run.py] builds this executable and calls

     perfbench.exe run --workload W --seed N --seconds S --trace 0|1
                       --qcp PATH [--git-rev REV]

   Worker processes of the placement workloads re-enter through the
   [worker] subcommand. *)

let started = Unix.gettimeofday ()
let metric = Metric.make

(* Every workload computes the same nine end-to-end metrics.  The gated
   ones (BENCHMARK.json's end_to_end, in its order) go into the result
   line; the others are printed only, since on a shared 2-core machine
   their run-to-run spread exceeds any bound a gate could use (README.md,
   "Gated and printed metrics").  A run whose gated set differs fails. *)
let gated =
  [ "setup_s"; "wall_s"; "makespan_geomean"; "peak_heap_mb"; "hot_p50_us" ]

let spread xs =
  let q1, _, q3 = Stats.quartiles xs in
  Printf.sprintf "median of %d, quartiles %.6g..%.6g" (List.length xs) q1 q3

(* A p50 (computed by the workload, with its note) and the tail of the
   pooled latency samples. *)
let latency_metrics ~p50:(p50, p50_detail) ~prefix ~unit ~scale samples =
  let tail = Stats.tail_or_max samples in
  [
    metric (prefix ^ "_p50_" ^ unit) unit (p50 *. scale) ~detail:p50_detail;
    metric (prefix ^ "_tail_" ^ unit) unit (tail.Stats.value *. scale)
      ~detail:(Stats.describe_tail tail);
  ]

let group_p50 what samples =
  let v, groups = Stats.group_median samples in
  ( v,
    Printf.sprintf "median over %d %s of each one's median, %d samples" groups what
      (List.length samples) )

(* ---- placement workloads ----------------------------------------- *)

let placement_e2e ~workload ~seed ~seconds =
  let ws = Placement.run ~workload ~seed ~seconds in
  let first = List.hd ws in
  let n = List.length first.Placement.w_cold.Placement.makespans in
  let failures =
    List.concat_map (fun w -> w.Placement.w_failures) ws
    @ List.filter_map
        (fun w ->
          if w.Placement.w_cold.Placement.makespans
             = first.Placement.w_cold.Placement.makespans
          then None
          else Some "placements differ between worker processes")
        ws
  in
  let attempted = List.fold_left (fun a w -> a + w.Placement.w_attempted) 0 ws in
  let cold = List.map (fun w -> w.Placement.w_cold) ws in
  let hot = List.concat_map (fun w -> w.Placement.w_hot) ws in
  let walls = List.map (fun p -> p.Placement.wall) cold in
  let setups = List.map (fun w -> w.Placement.w_setup) ws in
  let heaps = List.map (fun w -> w.Placement.w_heap) ws in
  let rates = List.map (fun p -> float_of_int n /. p.Placement.wall) hot in
  let placed =
    List.filter (fun m -> m > 0.0) first.Placement.w_cold.Placement.makespans
  in
  (* The p50 slot of a placement workload: the median over passes of the
     mean latency per placement.  A median over the placements themselves
     is unsteady: the instance set is fixed and its costs lie far apart,
     so the middle falls between two instances of very different cost. *)
  let per_pass what passes =
    let means = List.map (fun p -> p.Placement.wall /. float_of_int n) passes in
    ( Stats.median means,
      Printf.sprintf "median over %d %s passes of the mean per placement" (List.length means) what )
  in
  let metrics =
    [
      metric "setup_s" "s" (Stats.median setups)
        ~detail:("process start to first placement, " ^ spread setups);
      metric "wall_s" "s" (Stats.median walls)
        ~detail:(Printf.sprintf "one cold pass over %d instances, %s" n (spread walls));
      metric "makespan_geomean" "delay" (Stats.geomean placed)
        ~detail:(Printf.sprintf "over %d placed instances" (List.length placed));
      metric "peak_heap_mb" "MB" (Stats.median heaps)
        ~detail:("top heap after the cold pass, " ^ spread heaps);
    ]
    @ latency_metrics ~p50:(per_pass "warm" hot) ~prefix:"hot" ~unit:"us"
        ~scale:1e6
        (List.concat_map (fun p -> p.Placement.latencies) hot)
    @ latency_metrics ~p50:(per_pass "cold" cold) ~prefix:"cold" ~unit:"ms"
        ~scale:1e3
        (List.concat_map (fun p -> p.Placement.latencies) cold)
    @ [
        metric "max_rate_rps" "1/s" (Stats.median rates)
          ~detail:("placements per second of a warm process, closed loop, " ^ spread rates);
      ]
  in
  (metrics, attempted, failures)

(* ---- serve_mixed -------------------------------------------------- *)

let run_dir = ".perfbench"

let serve_e2e ~qcp ~seed ~seconds =
  (* A roomier minor heap keeps the generator's own GC pauses from
     showing up as latency; the daemon runs with its defaults. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 4 lsl 20; space_overhead = 200 };
  let m = Serve.run_mixed ~qcp ~dir:run_dir ~seed ~seconds ~started in
  let failures, checks = Serve.check_mixed ~seed m in
  let reference = List.assoc Serve.reference_rate m.Serve.steps in
  let ok r = r.Serve.status = "ok" in
  (* reference-step latencies, keyed by hot-set entry or Table 3 cell *)
  let grouped hot =
    Array.to_list reference
    |> List.filter (fun r -> ok r && r.Serve.req.Serve.hot = hot)
    |> List.map (fun r ->
           let l = r.Serve.req.Serve.inst.Instances.label in
           ((if hot then l else Filename.dirname l), r.Serve.latency))
  in
  let lat hot = List.map snd (grouped hot) in
  let failed_requests =
    Array.fold_left (fun a r -> if ok r then a else a + 1) 0 reference
  in
  let verdicts =
    List.map (fun (rate, replies) -> (rate, Serve.step_verdict replies)) m.Serve.steps
  in
  let max_rate =
    List.fold_left
      (fun acc (rate, (pass, _, _, _)) -> if pass then max acc rate else acc)
      0 verdicts
  in
  List.iter
    (fun (rate, (pass, tail, growth, failed)) ->
      Printf.printf "# step %4d req/s: %s (tail %.1f ms, %s; backlog growth %.1f; %s)\n"
        rate (if pass then "meets" else "misses")
        (tail.Stats.value *. 1e3) (Stats.describe_tail tail) growth
        (if failed then "requests failed" else "no failures"))
    (List.sort compare verdicts);
  let makespans =
    List.concat_map (fun (_, replies) -> Array.to_list replies) m.Serve.steps
    |> List.filter_map (fun r ->
           if ok r then
             Option.bind (Serve.json_field "runtime" r.Serve.result) Qcp_util.Json.to_float
           else None)
  in
  let n = Array.length reference in
  let wall =
    Array.fold_left
      (fun acc r -> if Float.is_nan r.Serve.latency then acc else Float.max acc (r.Serve.req.Serve.due +. r.Serve.latency))
      0.0 reference
  in
  let metrics =
    [
      metric "setup_s" "s" (Stats.median m.Serve.setups)
        ~detail:("spawn, listen and warm the hot set, " ^ spread m.Serve.setups);
      metric "wall_s" "s" wall
        ~detail:(Printf.sprintf "first scheduled send to last reply, %d requests at %d req/s" n Serve.reference_rate);
      metric "makespan_geomean" "delay" (Stats.geomean makespans)
        ~detail:(Printf.sprintf "over the %d ok replies of every step" (List.length makespans));
      metric "peak_heap_mb" "MB" m.Serve.rss_mb ~detail:"daemon peak resident set (VmHWM)";
    ]
    @ latency_metrics ~p50:(group_p50 "hot-set entries" (grouped true)) ~prefix:"hot"
        ~unit:"us" ~scale:1e6 (lat true)
    @ latency_metrics ~p50:(group_p50 "Table 3 cells" (grouped false)) ~prefix:"cold"
        ~unit:"ms" ~scale:1e3 (lat false)
    @ [
        metric "max_rate_rps" "1/s" (float_of_int max_rate)
          ~detail:"highest ladder rate meeting the tail, failure and backlog limits";
      ]
  in
  Printf.printf "# cold keys drawn %d (result cache capacity 512)\n" m.Serve.cold_used;
  ( metrics,
    n + checks,
    failures @ List.init failed_requests (fun _ -> "a reference-step request failed") )

(* ---- output ------------------------------------------------------- *)

let print_result ~correct ~attempted ~failed metrics =
  let module J = Qcp_util.Json in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", J.Num (float_of_int attempted));
            ("failed", J.Num (float_of_int failed));
            ( "metrics",
              J.Obj
                (List.map
                   (fun (m : Metric.t) ->
                     (m.name, J.Obj [ ("value", J.Num m.value); ("unit", J.Str m.unit) ]))
                   metrics) );
          ]))

let context ~workload ~seed ~seconds ~trace ~git_rev =
  let module J = Qcp_util.Json in
  Printf.printf "# context %s\n"
    (J.to_string
       (J.Obj
          [
            ("workload", J.Str workload);
            ("seed", J.Num (float_of_int seed));
            ("seconds", J.Num seconds);
            ("trace", J.Bool trace);
            ("nproc", J.Num (float_of_int (Domain.recommended_domain_count ())));
            ("ocaml", J.Str Sys.ocaml_version);
            ("git_rev", J.Str git_rev);
            ( "jobs",
              J.Str
                (if workload = "serve_mixed" then "daemon --jobs 2, requests jobs 0"
                 else "0 (sequential)") );
          ]))

let run ~workload ~seed ~seconds ~trace ~qcp ~git_rev =
  context ~workload ~seed ~seconds ~trace ~git_rev;
  (try Unix.mkdir run_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let metrics, attempted, failures =
    if trace then Layers.run ~workload ~seed ~seconds ~qcp ~dir:run_dir
    else
      match workload with
      | "paper_tables" | "scale_spill" -> placement_e2e ~workload ~seed ~seconds
      | "serve_mixed" -> serve_e2e ~qcp ~seed ~seconds
      | w -> failwith ("perfbench: unknown workload " ^ w)
  in
  (* after the workload, so the traced pass runs in an untouched process *)
  let self_failures = Selftest.run () in
  let reported =
    if trace then metrics
    else List.filter (fun (m : Metric.t) -> List.mem m.name gated) metrics
  in
  let failures =
    self_failures @ failures
    @
    if trace || List.map (fun (m : Metric.t) -> m.name) reported = gated then []
    else [ "the run did not produce exactly the gated end-to-end metric set" ]
  in
  List.iter (fun f -> Printf.printf "# check FAILED: %s\n" f) failures;
  let failed = List.length failures in
  let attempted = attempted + 1 in
  Printf.printf "# ops_failed_share = %.6g (%d of %d attempted)\n"
    (float_of_int failed /. float_of_int attempted)
    failed attempted;
  List.iter
    (fun (m : Metric.t) ->
      Printf.printf "# %-28s = %-14.6g %-6s %s%s\n" m.name m.value m.unit m.detail
        (if List.memq m reported then "" else " [printed, not gated]"))
    metrics;
  print_result ~correct:(failed = 0) ~attempted ~failed reported;
  if failed > 0 then exit 1

let usage () =
  prerr_endline
    "usage: perfbench.exe run --workload W --seed N --seconds S --trace 0|1 \
     --qcp PATH [--git-rev REV]";
  exit 2

let () =
  match Array.to_list Sys.argv with
  | _ :: "worker" :: workload :: seed :: spawned :: verify :: _ ->
    Placement.worker ~workload ~seed:(int_of_string seed)
      ~spawned:(float_of_string spawned) ~verify:(verify = "1")
  | _ :: "run" :: args ->
    let rec parse acc = function
      | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
      | [] -> acc
      | _ -> usage ()
    in
    let opts = parse [] args in
    let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
    let workload = get "workload" in
    if not (List.mem workload [ "paper_tables"; "scale_spill"; "serve_mixed" ]) then usage ();
    let seed = match int_of_string_opt (get "seed") with Some s -> s | None -> usage () in
    let seconds = match float_of_string_opt (get "seconds") with Some s -> s | None -> usage () in
    let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
    let git_rev = Option.value (List.assoc_opt "git-rev" opts) ~default:"unknown" in
    Fun.protect ~finally:Serve.stop_all (fun () ->
        run ~workload ~seed ~seconds ~trace ~qcp:(get "qcp") ~git_rev)
  | _ -> usage ()
