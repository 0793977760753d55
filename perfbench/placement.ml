(* The two closed-loop placement workloads, paper_tables and scale_spill.

   A run spawns worker processes one after another until its time is up.
   Each worker is a fresh process (cold caches, as a one-shot CLI user
   pays them): it builds the inputs from the seed, places the whole
   instance set once cold, then again [hot_passes] times warm, and reports
   every latency.  Output checks run after the timed passes. *)

module Json = Qcp_util.Json
module Placer = Qcp.Placer
module I = Instances

let now = Unix.gettimeofday

let instances workload ~seed =
  match workload with
  | "paper_tables" -> I.paper_tables ()
  | "scale_spill" -> [ I.scale ~seed ]
  | "serve_mixed" ->
    (* The traced run's in-process view of serve_mixed: the hot set and
       one round of the cold pool (every placeable Table 3 cell once). *)
    let cold = I.cold_pool ~seed in
    I.hot_set ~seed @ Array.to_list (Array.sub cold 0 (Array.length cold / I.cold_rounds))
  | w -> failwith ("perfbench: unknown workload: " ^ w)

(* One warm repeat per worker: more fresh processes per run give more
   cold samples, which the headline wall time is the median of. *)
let hot_passes = 1

let windowed (i : I.instance) = i.I.options.Qcp.Options.window <> None

(* The check every placement gets: expected verdict, structure, anchors. *)
let check_outcome (i : I.instance) outcome =
  let expect_unplaceable = List.mem i.I.label I.expected_unplaceable in
  match outcome with
  | Placer.Unplaceable msg ->
    if expect_unplaceable then None
    else Some (Printf.sprintf "%s: unexpectedly unplaceable (%s)" i.I.label msg)
  | Placer.Placed p -> (
    if expect_unplaceable then
      Some (i.I.label ^ ": placed, but the paper marks it N/A")
    else if i.I.label = I.anchor_label && Placer.runtime p <> I.anchor_runtime
    then
      Some
        (Printf.sprintf "%s: runtime %g, the paper's Table 2 gives %g" i.I.label
           (Placer.runtime p) I.anchor_runtime)
    else if Placer.spilled p <> None then None
    else
      match Check.program ~same_order:(not (windowed i)) p with
      | Ok () -> None
      | Error e -> Some (i.I.label ^ ": " ^ e))

let makespan = function
  | Placer.Placed p -> Placer.runtime p
  | Placer.Unplaceable _ -> -1.0

(* State-vector equivalence on every placed program small enough to
   simulate (at most 12 vertices), on three basis inputs: all zeros, all
   ones and one drawn from the seed. *)
let verify_small ~seed instances outcomes =
  let rng = Qcp_util.Rng.create seed in
  List.fold_left2
    (fun acc (i : I.instance) o ->
      match o with
      | Placer.Placed p
        when Placer.spilled p = None
             && Qcp_env.Environment.size i.I.env <= 12 ->
        (* Circuits with custom gates have no simulation semantics; they
           are skipped. *)
        let n = Qcp_circuit.Circuit.qubits i.I.circuit in
        let inputs = [ 0; (1 lsl n) - 1; Qcp_util.Rng.int rng (1 lsl n) ] in
        (match Qcp.Verify.equivalent ~inputs p with
        | true | (exception Qcp_sim.Statevec.Unsupported _) -> acc
        | false -> (i.I.label ^ ": not equivalent to its source circuit") :: acc)
      | _ -> acc)
    [] instances outcomes

(* scale_spill's stage events, checked as they stream at constant memory. *)
let verify_spill (i : I.instance) ~expected =
  let s =
    Check.stream i.I.env ~threshold:i.I.options.Qcp.Options.threshold
      ~qubits:(Qcp_circuit.Circuit.qubits i.I.circuit)
  in
  match Placer.place ~spill:(Check.spill_sink s) i.I.options i.I.env i.I.circuit with
  | Placer.Unplaceable msg -> [ i.I.label ^ ": check pass unplaceable: " ^ msg ]
  | Placer.Placed p -> (
    match Check.finish s ~source_gates:(Qcp_circuit.Circuit.gate_count i.I.circuit) with
    | Error e -> [ i.I.label ^ ": spilled stage events: " ^ e ]
    | Ok _ when Placer.runtime p <> expected ->
      [ i.I.label ^ ": check pass makespan differs from the timed pass" ]
    | Ok _ when s.Check.makespan <> expected ->
      [ i.I.label ^ ": streamed makespan differs from the reported runtime" ]
    | Ok _ -> [])

type pass = {
  wall : float;
  latencies : float list;
  makespans : float list;
  alloc_mb : float;
  major : int;
}

let pass_once instances =
  let g0 = Gc.quick_stat () in
  let t0 = now () in
  let timed =
    List.map
      (fun (i : I.instance) ->
        let s = now () in
        let o = Placer.place i.I.options i.I.env i.I.circuit in
        (o, now () -. s))
      instances
  in
  let wall = now () -. t0 in
  let g1 = Gc.quick_stat () in
  let words =
    g1.Gc.minor_words +. g1.Gc.major_words -. g1.Gc.promoted_words
    -. (g0.Gc.minor_words +. g0.Gc.major_words -. g0.Gc.promoted_words)
  in
  ( {
      wall;
      latencies = List.map snd timed;
      makespans = List.map (fun (o, _) -> makespan o) timed;
      alloc_mb = words *. 8.0 /. 1e6;
      major = g1.Gc.major_collections - g0.Gc.major_collections;
    },
    List.map fst timed )

let floats xs = Json.Arr (List.map (fun x -> Json.Num x) xs)

(* Worker entry point: [spawned] is the parent's clock reading when it
   started this process, so [setup_s] spans process start to the first
   timed placement. *)
let worker ~workload ~seed ~spawned ~verify =
  let instances = instances workload ~seed in
  let setup = now () -. spawned in
  let first, outcomes = pass_once instances in
  let top_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1e6
  in
  let hot = List.init hot_passes (fun _ -> fst (pass_once instances)) in
  let failures =
    List.filter_map Fun.id (List.map2 check_outcome instances outcomes)
  in
  let failures =
    failures
    @ List.concat_map
        (fun p ->
          if p.makespans = first.makespans then []
          else [ "a warm pass placed differently from the cold pass" ])
        hot
  in
  let failures =
    if not verify then failures
    else
      failures
      @ verify_small ~seed instances outcomes
      @ List.concat
          (List.map2
             (fun (i : I.instance) o ->
               if windowed i then verify_spill i ~expected:(makespan o) else [])
             instances outcomes)
  in
  let pass_json p =
    Json.Obj
      [
        ("wall_s", Json.Num p.wall);
        ("latencies", floats p.latencies);
        ("makespans", floats p.makespans);
        ("alloc_mb", Json.Num p.alloc_mb);
        ("major", Json.Num (float_of_int p.major));
      ]
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("setup_s", Json.Num setup);
            ("top_heap_mb", Json.Num top_heap_mb);
            ("cold", pass_json first);
            ("hot", Json.Arr (List.map pass_json hot));
            ("failures", Json.Arr (List.map (fun s -> Json.Str s) failures));
            ( "attempted",
              Json.Num
                (float_of_int (List.length instances * (1 + List.length hot))) );
          ]))

(* ---- the parent side ---------------------------------------------- *)

type worker_result = {
  w_setup : float;
  w_heap : float;
  w_cold : pass;
  w_hot : pass list;
  w_failures : string list;
  w_attempted : int;
}

let pass_of_json j =
  let num k = Option.bind (Json.member k j) Json.to_float |> Option.value ~default:nan in
  let list k =
    match Option.bind (Json.member k j) Json.to_list with
    | Some l -> List.filter_map Json.to_float l
    | None -> []
  in
  {
    wall = num "wall_s";
    latencies = list "latencies";
    makespans = list "makespans";
    alloc_mb = num "alloc_mb";
    major = int_of_float (num "major");
  }

let read_all ic =
  let b = Buffer.create 65536 in
  (try
     while true do
       Buffer.add_channel b ic 1
     done
   with End_of_file -> ());
  Buffer.contents b

(* Run one worker process to completion and parse its report. *)
let spawn_worker ~workload ~seed ~verify =
  let spawned = now () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      [|
        Sys.executable_name; "worker"; workload; string_of_int seed;
        Printf.sprintf "%.6f" spawned; (if verify then "1" else "0");
      |]
      Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  let text = read_all ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  let failed why =
    {
      w_setup = nan;
      w_heap = nan;
      w_cold = pass_of_json Json.Null;
      w_hot = [];
      w_failures = [ why ];
      w_attempted = 1;
    }
  in
  match (status, Json.parse (String.trim text)) with
  | Unix.WEXITED 0, Ok j ->
    let num k = Option.bind (Json.member k j) Json.to_float |> Option.value ~default:nan in
    {
      w_setup = num "setup_s";
      w_heap = num "top_heap_mb";
      w_cold = pass_of_json (Option.value (Json.member "cold" j) ~default:Json.Null);
      w_hot =
        List.map pass_of_json
          (Option.value (Option.bind (Json.member "hot" j) Json.to_list) ~default:[]);
      w_failures =
        List.filter_map Json.to_str
          (Option.value (Option.bind (Json.member "failures" j) Json.to_list)
             ~default:[]);
      w_attempted = int_of_float (num "attempted");
    }
  | Unix.WEXITED 0, Error e -> failed ("worker report unreadable: " ^ e)
  | _ -> failed "worker process failed"

(* Spawn workers back to back for [seconds]: the first also runs the
   state-vector and spill checks; a new worker starts only when one of
   the previous length still fits. *)
let run ~workload ~seed ~seconds =
  let start = now () in
  let rec loop acc =
    let t = now () in
    let w = spawn_worker ~workload ~seed ~verify:(acc = []) in
    let took = now () -. t in
    let expected = if acc = [] then 0.0 else took in
    let acc = w :: acc in
    if List.length acc < 3 || now () -. start +. expected <= seconds then
      loop acc
    else List.rev acc
  in
  loop []
