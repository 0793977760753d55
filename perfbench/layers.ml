(* The traced run ([--trace 1]): per-layer numbers, measured from outside
   by timing calls into each layer's public functions on the workload's
   own inputs.  Spans are recorded by this file only (see Spans) and
   written to .perfbench/trace-<workload>-<seed>.json.  None of these
   numbers is gated; README.md maps each to the end-to-end metric it
   should move. *)

module Placer = Qcp.Placer
module I = Instances
module Json = Qcp_util.Json
module Server = Qcp_serve.Server
module Protocol = Qcp_serve.Protocol
module Environment = Qcp_env.Environment

let now = Unix.gettimeofday
let span = Spans.with_span
let metric = Metric.make
let sum = List.fold_left ( +. ) 0.0
let isum = List.fold_left ( + ) 0

(* ---- placement layers --------------------------------------------- *)

type placed = {
  inst : I.instance;
  outcome : Placer.outcome;
  placements : int array list;  (** every compute stage, in order *)
}

(* The traced pass: the workload's instances placed once, cold, each under
   a span, exactly as the untraced pass places them. *)
let traced_pass insts =
  let g0 = Gc.quick_stat () in
  let t0 = now () in
  let outcomes =
    List.map
      (fun (i : I.instance) ->
        ( i,
          span ~id:i.I.label "placer.place" (fun () ->
              Placer.place i.I.options i.I.env i.I.circuit) ))
      insts
  in
  let wall = now () -. t0 in
  let g1 = Gc.quick_stat () in
  let words (g : Gc.stat) = g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words in
  (* A spilled run keeps no stages; an untimed second run hands them to a
     collecting sink, so the routing layer can be replayed on them. *)
  let placed =
    List.map
      (fun ((i : I.instance), outcome) ->
        let placements =
          match outcome with
          | Placer.Placed p when Placer.spilled p = None -> Placer.placements p
          | Placer.Placed _ ->
            let collected = ref [] in
            let spill =
              Placer.Spill.callback (function
                | Placer.Spill.Stage { placement; _ } ->
                  collected := Array.copy placement :: !collected
                | Placer.Spill.Network _ -> ())
            in
            ignore (Placer.place ~spill i.I.options i.I.env i.I.circuit : Placer.outcome);
            List.rev !collected
          | Placer.Unplaceable _ -> []
        in
        { inst = i; outcome; placements })
      outcomes
  in
  ( placed,
    wall,
    (words g1 -. words g0) *. float_of_int (Sys.word_size / 8) /. 1e6,
    g1.Gc.major_collections - g0.Gc.major_collections )

let programs placed =
  List.filter_map
    (fun x -> match x.outcome with Placer.Placed p -> Some (x, p) | _ -> None)
    placed

let fresh_env env = Qcp_env.Env_format.parse (Qcp_env.Env_format.print env)

let threshold (i : I.instance) = i.I.options.Qcp.Options.threshold

(* First connected_adjacency per (environment, threshold), on a fresh copy
   of the environment so the memo starts cold. *)
let adjacency_layer placed =
  let seen = ref [] in
  List.iter
    (fun x ->
      let key = (Environment.name x.inst.I.env, threshold x.inst) in
      if not (List.mem key !seen) then begin
        seen := key :: !seen;
        let env = fresh_env x.inst.I.env in
        ignore
          (span ~id:x.inst.I.label "env.adjacency" (fun () ->
               Environment.connected_adjacency env ~threshold:(threshold x.inst))
            : Qcp_graph.Graph.t option)
      end)
    placed;
  List.length !seen

(* Each subcircuit with the splitter's witness embedding, when the
   windowed splitter produced one. *)
let workspace_layer progs =
  List.map
    (fun (x, (p : Placer.program)) ->
      let calls = ref 0 in
      let adjacency = p.Placer.adjacency in
      let subs =
        span ~id:x.inst.I.label "workspace.split" (fun () ->
            match x.inst.I.options.Qcp.Options.window with
            | Some window ->
              Qcp.Workspace.split_windowed ~oracle_calls:calls ~window ~adjacency
                x.inst.I.circuit
            | None ->
              Result.map
                (List.map (fun c -> (c, None)))
                (Qcp.Workspace.split ~oracle_calls:calls ~adjacency x.inst.I.circuit))
      in
      (x, p, Result.value subs ~default:[], !calls))
    progs

(* Above this many active qubits a coarsened (scale) run takes the
   splitter's witness embedding instead of enumerating (the placer's own
   cut-off); there the replay validates the witness with
   [Monomorph.check] instead of enumerating. *)
let scale_enum_max_active = 64

let monomorph_layer split =
  let witnessed = ref 0 in
  let counts =
    List.concat_map
      (fun (x, (p : Placer.program), subs, _) ->
        let o = x.inst.I.options in
        let target = p.Placer.adjacency in
        List.map
          (fun (sub, witness) ->
            let pattern = Qcp.Workspace.pattern sub in
            let active =
              List.length
                (List.filter
                   (fun v -> Qcp_graph.Graph.degree pattern v > 0)
                   (Qcp_graph.Graph.vertices pattern))
            in
            span ~id:x.inst.I.label "monomorph.enumerate" (fun () ->
                match witness with
                | Some w when o.Qcp.Options.coarsen && active > scale_enum_max_active ->
                  incr witnessed;
                  if Qcp_graph.Monomorph.check ~pattern ~target w then 1 else 0
                | _ ->
                  List.length
                    (Qcp_graph.Monomorph.enumerate ~limit:o.Qcp.Options.monomorphism_limit
                       ?root_cap:o.Qcp.Options.root_cap ~pattern ~target ())))
          subs)
      split
  in
  (counts, !witnessed)

let route_layer progs =
  List.concat_map
    (fun (x, (p : Placer.program)) ->
      let adjacency = p.Placer.adjacency in
      let memo = Qcp_route.Bisect_router.make_memo () in
      let size = Qcp_graph.Graph.n adjacency in
      let rec pairs = function
        | a :: (b :: _ as rest) -> (a, b) :: pairs rest
        | _ -> []
      in
      List.map
        (fun (before, after) ->
          span ~id:x.inst.I.label "route.route" (fun () ->
              let perm = Qcp_route.Perm.of_placements ~size ~before ~after in
              Qcp_route.Swap_network.depth
                (Qcp_route.Bisect_router.route
                   ~leaf_override:x.inst.I.options.Qcp.Options.leaf_override ~memo
                   adjacency ~perm)))
        (pairs x.placements))
    progs

(* The workload's instances again, through place_batch at jobs 0 and 2,
   and one by one with [options.jobs = 2]. *)
let parallel_layers insts placed =
  let specs = List.map (fun (i : I.instance) -> (i.I.options, i.I.env, i.I.circuit)) insts in
  let makespans os = List.map Placement.makespan os in
  let reference = makespans (List.map (fun x -> x.outcome) placed) in
  let timed f =
    let t = now () in
    let r = try Ok (f ()) with e -> Error e in
    (r, now () -. t)
  in
  let b0, d0 = timed (fun () -> span "task_pool.batch_j0" (fun () -> Placer.place_batch ~jobs:0 specs)) in
  let b2, d2 = timed (fun () -> span "task_pool.batch_j2" (fun () -> Placer.place_batch ~jobs:2 specs)) in
  let batch_failures =
    List.filter_map
      (fun (name, b) ->
        match b with
        | Ok os when makespans os = reference -> None
        | Ok _ -> Some (name ^ " placed differently from the sequential pass")
        | Error e -> Some (name ^ " raised " ^ Printexc.to_string e))
      [ ("place_batch ~jobs:0", b0); ("place_batch ~jobs:2", b2) ]
  in
  let raised = ref 0 and differed = ref 0 in
  List.iter2
    (fun (i : I.instance) expected ->
      let o = { i.I.options with Qcp.Options.jobs = 2 } in
      match span ~id:i.I.label "placer.place_j2" (fun () -> Placer.place o i.I.env i.I.circuit) with
      | outcome -> if Placement.makespan outcome <> expected then incr differed
      | exception _ -> incr raised)
    insts reference;
  (d0 /. d2, !raised, !differed, batch_failures)

(* ---- protocol and engine layers ----------------------------------- *)

let median_of name = Stats.median (Spans.durations name)

(* Parse, key, dispatch (cold, then hot) and render each request in
   process, one request per dispatch, in the order given. *)
let engine_layers (requests : (string * I.instance * bool) list) progs =
  let engine = Server.Engine.create { Server.default_config with jobs = 2; install_signals = false } in
  let failures = ref [] in
  let parsed =
    List.filter_map
      (fun (id, (i : I.instance), _) ->
        let line = I.request_line ~id i in
        let env = span ~id "protocol.parse" (fun () -> Server.Engine.parse_line engine line) in
        (* requests cannot ask for spilling; the daemon places in full *)
        let options = { i.I.options with Qcp.Options.spill = Qcp.Options.No_spill } in
        let key = span ~id "protocol.key" (fun () -> Protocol.key options i.I.env i.I.circuit) in
        match env.Protocol.request with
        | Ok (Protocol.Place p) when p.Protocol.key = key -> Some (id, i, p)
        | _ ->
          failures := (id ^ ": request line does not denote its instance") :: !failures;
          None)
      requests
  in
  let first = Hashtbl.create 64 in
  List.iter
    (fun (id, (i : I.instance), p) ->
      let job = Server.Engine.make_job engine ~id ~arrival:(Qcp_util.Clock.now ()) p in
      let hit = Hashtbl.mem first i.I.label in
      let name = if hit then "engine.dispatch_hot" else "engine.dispatch_cold" in
      match span ~id name (fun () -> Server.Engine.dispatch engine ~now:(Qcp_util.Clock.now ()) [ job ]) with
      | [ response ] -> (
        let r = Serve.result_bytes response in
        match Hashtbl.find_opt first i.I.label with
        | None -> Hashtbl.replace first i.I.label r
        | Some r0 -> if r <> r0 then failures := (id ^ ": hit bytes differ") :: !failures)
      | _ -> failures := (id ^ ": dispatch answered no single response") :: !failures)
    parsed;
  List.iter
    (fun (x, p) ->
      ignore
        (span ~id:x.inst.I.label "protocol.render" (fun () ->
             Protocol.response ~id:x.inst.I.label ~status:"ok"
               ~result:(Json.to_string (Protocol.result_of_program ~telemetry:false p))
               ())
          : string))
    progs;
  (* parse cost of the hot requests, by instance *)
  let hot_parse =
    List.filter_map
      (fun s ->
        if s.Spans.name <> "protocol.parse" then None
        else
          List.find_map
            (fun (id, (i : I.instance), hot) ->
              if hot && id = s.Spans.id then Some (i.I.label, Spans.duration s) else None)
            requests)
      !Spans.recorded
  in
  (List.rev !failures, hot_parse)

(* Daemon counters: the change of [path] between two stats objects. *)
let delta before after path =
  let read text =
    match Json.parse text with
    | Error _ -> 0.0
    | Ok j ->
      List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j) path
      |> Fun.flip Option.bind Json.to_float
      |> Option.value ~default:0.0
  in
  read after -. read before

let daemon_metrics ~before ~after =
  let d = delta before after in
  let hits = d [ "cache"; "hits" ] and misses = d [ "cache"; "misses" ] in
  let count = d [ "queue_wait"; "count" ] in
  [
    metric "engine.batch_size" "count"
      (d [ "requests" ] /. d [ "batches" ])
      ~detail:"daemon requests per dispatch";
    metric "engine.queue_wait_s" "s"
      (d [ "queue_wait"; "sum" ] /. count)
      ~detail:(Printf.sprintf "daemon mean over %.0f requests" count);
    metric "result_cache.hit_ratio" "ratio"
      (hits /. (hits +. misses))
      ~detail:(Printf.sprintf "%.0f hits / %.0f lookups" hits (hits +. misses));
    metric "result_cache.evictions" "count" (d [ "cache"; "evictions" ]);
  ]

let stats d = Serve.result_bytes (Serve.roundtrip d {|{"id":"s","op":"stats"}|})

(* A daemon probe for the placement workloads: each instance once cold
   (closed loop), then warm repeats on an open-loop schedule. *)
let daemon_probe ~qcp ~dir insts =
  let d = Serve.spawn ~qcp ~dir in
  Fun.protect
    ~finally:(fun () -> Serve.stop d)
    (fun () ->
      let s0 = stats d in
      List.iter
        (fun (i : I.instance) ->
          ignore (Serve.roundtrip d (Serve.line_for ~id:"warm" i) : string))
        insts;
      let big =
        List.exists (fun (i : I.instance) -> Qcp_circuit.Circuit.gate_count i.I.circuit > 10_000) insts
      in
      let rate = if big then 4.0 else 50.0 in
      let arr = Array.of_list insts in
      let n = int_of_float (2.0 *. rate) in
      let requests =
        Array.init n (fun k ->
            let inst = arr.(k mod Array.length arr) in
            let id = Printf.sprintf "probe-%d" k in
            {
              Serve.id;
              body = Serve.body_for inst;
              due = float_of_int k /. rate;
              hot = true;
              inst;
            })
      in
      let replies = Serve.run_schedule d requests in
      (replies, s0, stats d))

(* ---- the traced run ----------------------------------------------- *)

(* Progress on stderr, so a slow layer shows while the run is going. *)
let progress =
  let last = ref (now ()) in
  fun what ->
    let t = now () in
    Printf.eprintf "perfbench: %s (%.1fs)\n%!" what (t -. !last);
    last := t

let run ~workload ~seed ~seconds ~qcp ~dir =
  let insts = Placement.instances workload ~seed in
  (* untraced baseline pass in a fresh process, then the traced pass here *)
  let baseline = Placement.spawn_worker ~workload ~seed ~verify:false in
  progress "untraced baseline pass";
  Spans.start ();
  let placed, traced_wall, alloc_mb, majors = traced_pass insts in
  let progs = programs placed in
  let check_failures =
    List.filter_map (fun x -> Placement.check_outcome x.inst x.outcome) placed
    @ baseline.Placement.w_failures
  in
  progress "traced pass";
  let n_adj = adjacency_layer placed in
  progress "adjacency";
  let split = workspace_layer progs in
  progress "workspace";
  let mappings, witnessed = monomorph_layer split in
  progress "monomorph";
  let depths = route_layer progs in
  progress "route";
  List.iter
    (fun (x, p) -> ignore (span ~id:x.inst.I.label "timing.replay" (fun () -> Placer.runtime p) : float))
    progs;
  let speedup, raised, differed, batch_failures = parallel_layers insts placed in
  progress "parallel";
  let stats_of f = List.fold_left (fun acc (_, p) -> acc + f p.Placer.stats) 0 progs in
  let scored = stats_of (fun s -> s.Placer.candidates_scored) in
  let pruned = stats_of (fun s -> s.Placer.candidates_pruned) in
  let routed = stats_of (fun s -> s.Placer.networks_routed) in
  let route_hits = stats_of (fun s -> s.Placer.route_cache_hits) in
  let scoring = sum (List.map (fun (_, p) -> p.Placer.stats.Placer.scoring_seconds) progs) in
  let top =
    List.map (fun s -> (Spans.duration s, s.Spans.id)) (List.filter (fun s -> s.Spans.name = "placer.place") !Spans.recorded)
    |> List.sort compare |> List.rev
    |> List.filteri (fun k _ -> k < 5)
    |> List.map (fun (d, id) -> Printf.sprintf "%s %.1fms" id (d *. 1e3))
    |> String.concat ", "
  in
  (* protocol, engine and daemon *)
  let requests, daemon_side =
    match workload with
    | "serve_mixed" ->
      let m = Serve.run_mixed ~qcp ~dir ~seed ~seconds ~started:(now ()) in
      let reference = List.assoc Serve.reference_rate m.Serve.steps in
      let warm = Array.to_list (Array.map (fun (i, _) -> ("warm-" ^ i.I.label, i, false)) m.Serve.warm) in
      let reqs =
        warm
        @ Array.to_list
            (Array.map (fun r -> Serve.(r.req.id, r.req.inst, r.req.hot)) reference)
      in
      let low = List.assoc 100 m.Serve.steps in
      let failures, _ = Serve.check_mixed ~seed m in
      (reqs, (Array.to_list low, reference, m.Serve.stats_before, m.Serve.stats_after, failures))
    | _ ->
      let replies, before, after = daemon_probe ~qcp ~dir insts in
      let reqs =
        List.map (fun (i : I.instance) -> ("cold-" ^ i.I.label, i, false)) insts
        @ List.map (fun (i : I.instance) -> ("hot-" ^ i.I.label, i, true)) insts
      in
      let failures =
        Array.to_list replies
        |> List.filter_map (fun r ->
               if r.Serve.status = "ok" || r.Serve.status = "unplaceable" then None
               else Some (r.Serve.req.Serve.id ^ ": daemon answered " ^ r.Serve.status))
      in
      (reqs, (Array.to_list replies, replies, before, after, failures))
  in
  let low, gen_replies, before, after, daemon_failures = daemon_side in
  progress "daemon";
  let engine_failures, hot_parse = engine_layers requests progs in
  progress "engine";
  Spans.write (Filename.concat dir (Printf.sprintf "trace-%s-%d.json" workload seed));
  let parse = Stats.median (List.map snd hot_parse) in
  let dispatch_hot = median_of "engine.dispatch_hot" in
  let labels = List.sort_uniq compare (List.map fst hot_parse) in
  let parse_by_size =
    if List.length labels > 12 then ""
    else
      String.concat ", "
        (List.map
           (fun l ->
             Printf.sprintf "%s %.0fus" l
               (Stats.median (List.filter_map (fun (l', d) -> if l = l' then Some d else None) hot_parse)
               *. 1e6))
           labels)
  in
  let hot_rtt =
    Stats.median
      (List.filter_map
         (fun r ->
           if r.Serve.req.Serve.hot && r.Serve.status = "ok" then Some r.Serve.latency else None)
         low)
  in
  let lag = Stats.tail_or_max (Array.to_list (Array.map (fun r -> r.Serve.sent) gen_replies)) in
  let untraced = baseline.Placement.w_cold.Placement.wall in
  let metrics =
    [
      metric "env.adjacency_s" "s" (Spans.total "env.adjacency")
        ~detail:(Printf.sprintf "first call for each of %d (environment, threshold) pairs" n_adj);
      metric "workspace.split_s" "s" (Spans.total "workspace.split") ~detail:"per pass";
      metric "workspace.subcircuits" "count"
        (float_of_int (isum (List.map (fun (_, _, s, _) -> List.length s) split)));
      metric "workspace.oracle_calls" "count"
        (float_of_int (isum (List.map (fun (_, _, _, c) -> c) split)));
      metric "monomorph.enumerate_s" "s" (Spans.total "monomorph.enumerate")
        ~detail:
          (Printf.sprintf
             "%d subcircuits, per pass (%d of them over %d active qubits: witness checked, as the placer takes it)"
             (List.length mappings) witnessed scale_enum_max_active);
      metric "monomorph.mappings" "count" (float_of_int (isum mappings));
      metric "placer.scoring_s" "s" scoring ~detail:"Placer.stats scoring_seconds, per pass";
      metric "placer.candidates_scored" "count" (float_of_int scored);
      metric "placer.prune_ratio" "ratio"
        (float_of_int pruned /. float_of_int (max 1 scored))
        ~detail:(Printf.sprintf "%d pruned / %d scored" pruned scored);
      metric "route.route_s" "s" (Spans.total "route.route")
        ~detail:(Printf.sprintf "%d consecutive placement pairs, per pass" (List.length depths));
      metric "route.swap_depth" "count" (float_of_int (isum depths));
      metric "score_cache.route_hit_ratio" "ratio"
        (float_of_int route_hits /. float_of_int (max 1 routed))
        ~detail:(Printf.sprintf "%d hits / %d routing requests" route_hits routed);
      metric "timing.replay_s" "s" (Spans.total "timing.replay") ~detail:"per pass";
      metric "placer.place_s" "s" (Spans.total "placer.place") ~detail:("largest: " ^ top);
      metric "gc.allocated_mb" "MB" alloc_mb ~detail:"traced pass";
      metric "gc.major_collections" "count" (float_of_int majors) ~detail:"traced pass";
      metric "task_pool.batch_speedup_j2" "ratio" speedup
        ~detail:"place_batch ~jobs:0 seconds / ~jobs:2 seconds";
      metric "placer.sweep_j2_failed" "count" (float_of_int raised)
        ~detail:
          (Printf.sprintf "of %d placements with options.jobs = 2 (%d placed differently)"
             (List.length insts) differed);
      metric "protocol.parse_s" "s" parse
        ~detail:
          ("median per hot request, Engine.parse_line"
          ^ if parse_by_size = "" then "" else "; by instance: " ^ parse_by_size);
      metric "protocol.key_s" "s" (median_of "protocol.key") ~detail:"median per request";
      metric "engine.dispatch_hot_s" "s" dispatch_hot ~detail:"median per request, one per dispatch";
      metric "engine.dispatch_cold_s" "s" (median_of "engine.dispatch_cold")
        ~detail:"median per request, one per dispatch";
    ]
    @ daemon_metrics ~before ~after
    @ [
        metric "protocol.render_s" "s" (median_of "protocol.render") ~detail:"median per program";
        metric "server.socket_us" "us"
          ((hot_rtt -. parse -. dispatch_hot) *. 1e6)
          ~detail:"median hot round trip at the lowest rate minus in-process parse and dispatch";
        metric "gen_lag_ms" "ms" (lag.Stats.value *. 1e3) ~detail:(Stats.describe_tail lag);
        metric "trace.traced_wall_s" "s" traced_wall ~detail:"traced pass";
        metric "trace.untraced_wall_s" "s" untraced ~detail:"the same pass in a fresh untraced process";
        metric "trace.overhead_s" "s" (traced_wall -. untraced);
      ]
  in
  let failures = check_failures @ batch_failures @ daemon_failures @ engine_failures in
  (metrics, List.length insts + List.length requests, failures)
