module Circuit = Qcp_circuit.Circuit
module Telemetry = Qcp_obs.Metrics
module Clock = Qcp_util.Clock
module Task_pool = Qcp_util.Task_pool

type status =
  | Completed of float
  | Pruned
  | Expired
  | Infeasible of string

type entry = {
  strategy : string;
  status : status;
  wall_seconds : float;
  peer_prunes : int;
}

type report = {
  program : Placer.program;
  winner : string;
  runtime : float;
  lower_bound : float;
  gap : float;
  entries : entry list;
}

module Learn = struct
  let mutex = Mutex.create ()

  let table : (int * int * int, (string, int) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 16

  (* Floor log2, so instance sizes differing by less than 2x share a
     bucket: win history generalizes across nearby sizes instead of
     fragmenting per exact instance. *)
  let bucket v =
    let rec go acc v = if v <= 1 then acc else go (acc + 1) (v lsr 1) in
    go 0 (Int.max 1 v)

  let features circuit =
    let n = Circuit.qubits circuit in
    let g = Circuit.gate_count circuit in
    (bucket n, bucket g, Int.min 7 (g / Int.max 1 n))

  let record _env circuit ~winner =
    let key = features circuit in
    Mutex.protect mutex (fun () ->
        let wins =
          match Hashtbl.find_opt table key with
          | Some wins -> wins
          | None ->
            let wins = Hashtbl.create 4 in
            Hashtbl.add table key wins;
            wins
        in
        Hashtbl.replace wins winner
          (1 + Option.value ~default:0 (Hashtbl.find_opt wins winner)))

  let effort _env circuit ~arity name =
    let key = features circuit in
    let wins, total =
      Mutex.protect mutex (fun () ->
          match Hashtbl.find_opt table key with
          | None -> (0, 0)
          | Some wins ->
            ( Option.value ~default:0 (Hashtbl.find_opt wins name),
              Hashtbl.fold (fun _ c acc -> acc + c) wins 0 ))
    in
    let share =
      float_of_int (wins + 1) /. float_of_int (total + Int.max 1 arity)
    in
    Float.min 2.0 (Float.max 0.5 (float_of_int arity *. share))

  let reset () = Mutex.protect mutex (fun () -> Hashtbl.reset table)

  (* --------------------------------------------------------------- *)
  (* Persistence: a versioned dotfile so the strategy bias survives   *)
  (* process restarts (repeated CLI runs, daemon restarts).           *)
  (* --------------------------------------------------------------- *)

  let file_header = "qcp-learn v1"

  let default_path () =
    match Sys.getenv_opt "QCP_LEARN_FILE" with
    | Some path when path <> "" -> Some path
    | Some _ -> None
    | None -> (
      match Sys.getenv_opt "HOME" with
      | Some home when home <> "" -> Some (Filename.concat home ".qcp_learn")
      | Some _ | None -> None)

  let save path =
    (* Deterministic rendering: keys and strategies in sorted order, so
       equal tables write byte-identical files. *)
    let rows =
      Mutex.protect mutex (fun () ->
          Hashtbl.fold
            (fun (nb, gb, db) wins acc ->
              Hashtbl.fold
                (fun strategy count acc ->
                  (nb, gb, db, strategy, count) :: acc)
                wins acc)
            table [])
    in
    let rows = List.sort compare rows in
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
    output_string oc (file_header ^ "\n");
    List.iter
      (fun (nb, gb, db, strategy, count) ->
        Printf.fprintf oc "%d %d %d %s %d\n" nb gb db strategy count)
      rows

  let load path =
    (* Ignore-on-parse-error: a missing, truncated, differently-versioned
       or corrupted file merges nothing and returns [false] — a stale
       format after an upgrade must never break a run.  Parsed rows merge
       additively into the in-process table (counts accumulate), so
       loading after some races have already been recorded loses
       nothing. *)
    match
      (try Some (open_in path) with Sys_error _ -> None)
    with
    | None -> false
    | Some ic ->
      Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
      let parse () =
        if (try input_line ic with End_of_file -> "") <> file_header then None
        else begin
          let rows = ref [] in
          let ok = ref true in
          (try
             while !ok do
               let line = input_line ic in
               if String.trim line <> "" then
                 match String.split_on_char ' ' line with
                 | [ nb; gb; db; strategy; count ] -> (
                   match
                     ( int_of_string_opt nb,
                       int_of_string_opt gb,
                       int_of_string_opt db,
                       int_of_string_opt count )
                   with
                   | Some nb, Some gb, Some db, Some count
                     when count >= 0 && strategy <> "" ->
                     rows := ((nb, gb, db), strategy, count) :: !rows
                   | _ -> ok := false)
                 | _ -> ok := false
             done
           with End_of_file -> ());
          if !ok then Some (List.rev !rows) else None
        end
      in
      (match parse () with
      | None -> false
      | Some rows ->
        Mutex.protect mutex (fun () ->
            List.iter
              (fun (key, strategy, count) ->
                let wins =
                  match Hashtbl.find_opt table key with
                  | Some wins -> wins
                  | None ->
                    let wins = Hashtbl.create 4 in
                    Hashtbl.add table key wins;
                    wins
                in
                Hashtbl.replace wins strategy
                  (count
                  + Option.value ~default:0 (Hashtbl.find_opt wins strategy)))
              rows);
        true)
end

let status_of_result = function
  | Strategy.Complete (_, runtime) -> Completed runtime
  | Strategy.Pruned -> Pruned
  | Strategy.Expired -> Expired
  | Strategy.Infeasible msg -> Infeasible msg

let run ?jobs ?(share = true) options env circuit =
  match Strategy.resolve options.Options.portfolio_strategies with
  | Error msg -> Error msg
  | Ok strategies ->
    Qcp_obs.Trace.with_span ~cat:"portfolio" "portfolio/race" @@ fun () ->
    let jobs = Option.value jobs ~default:options.Options.jobs in
    let deadline =
      match options.Options.deadline with
      | None -> infinity
      | Some budget -> Clock.deadline_after budget
    in
    let shared = Incumbent.make infinity in
    let total = List.length strategies in
    let results =
      Task_pool.map_list (Task_pool.get ()) ~jobs:(Int.min jobs total)
        (fun i s ->
          (* Private cell under [~share:false]: the strategy still publishes
             and prunes, but only against itself — the ablation isolates
             exactly the cross-strategy effect. *)
          let cell = if share then shared else Incumbent.make infinity in
          (* The anchor ignores the deadline so a race always produces a
             placement, even with a zero budget. *)
          let deadline = if i = 0 then infinity else deadline in
          let effort =
            if options.Options.portfolio_learn then
              Learn.effort env circuit ~arity:total s.Strategy.name
            else 1.0
          in
          let t0 = Clock.now () in
          let verdict =
            Qcp_obs.Trace.with_span ~cat:"portfolio"
              ("portfolio/" ^ s.Strategy.name) (fun () ->
                s.Strategy.solve ~deadline ~shared:cell ~effort options env
                  circuit)
          in
          (s.Strategy.name, verdict, Clock.now () -. t0))
        strategies
    in
    (* Earliest strict minimum over completed strategies in canonical
       order — the only reduce under which the winner is schedule-free:
       completed programs are bit-identical to their solo runs, and a
       pruned strategy's final runtime provably exceeds some published
       (achieved) value, so it could neither win nor tie. *)
    let best = ref None in
    List.iter
      (fun (name, v, _) ->
        match v.Strategy.result with
        | Strategy.Complete (program, runtime) -> (
          match !best with
          | Some (_, _, best_runtime) when runtime >= best_runtime -> ()
          | _ -> best := Some (name, program, runtime))
        | Strategy.Pruned | Strategy.Expired | Strategy.Infeasible _ -> ())
      results;
    let entries =
      List.map
        (fun (strategy, v, wall_seconds) ->
          {
            strategy;
            status = status_of_result v.Strategy.result;
            wall_seconds;
            peer_prunes = v.Strategy.peer_prunes;
          })
        results
    in
    (match !best with
    | None ->
      let detail =
        match
          List.find_map
            (function
              | { status = Infeasible msg; _ } -> Some msg | _ -> None)
            entries
        with
        | Some msg -> msg
        | None -> "every strategy aborted"
      in
      Error (Printf.sprintf "portfolio: no strategy completed (%s)" detail)
    | Some (winner, program, runtime) ->
      if Telemetry.enabled () then begin
        Telemetry.incr (Telemetry.counter Telemetry.global "portfolio.races");
        Telemetry.incr
          (Telemetry.counter Telemetry.global
             ("portfolio.strategy_wins." ^ winner));
        Telemetry.add
          (Telemetry.counter Telemetry.global
             "portfolio.candidates_pruned_by_peer")
          (List.fold_left (fun acc e -> acc + e.peer_prunes) 0 entries)
      end;
      if options.Options.portfolio_learn then
        Learn.record env circuit ~winner;
      let lower_bound = Baselines.lower_bound env circuit in
      let gap = if lower_bound > 0.0 then runtime /. lower_bound else 1.0 in
      Ok { program; winner; runtime; lower_bound; gap; entries })

let place ?jobs options env circuit =
  match run ?jobs options env circuit with
  | Ok report -> Placer.Placed report.program
  | Error msg -> Placer.Unplaceable msg

(* The one batch entry point: {!Placer.place}'s per-job deadline for
   classic specs, a race for portfolio specs (whose budget lives in
   [options.deadline]). *)
let place_batch ?(jobs = 0) ?(deadline_of = fun _ -> infinity) specs =
  Task_pool.map_list (Task_pool.get ()) ~jobs
    (fun i (options, env, circuit) ->
      if options.Options.portfolio then place options env circuit
      else Placer.place ~deadline:(deadline_of i) options env circuit)
    specs

let pp_status ppf = function
  | Completed runtime -> Format.fprintf ppf "completed (runtime %.1f)" runtime
  | Pruned -> Format.pp_print_string ppf "pruned by peer"
  | Expired -> Format.pp_print_string ppf "deadline expired"
  | Infeasible msg -> Format.fprintf ppf "infeasible (%s)" msg

let pp_report ppf report =
  Format.fprintf ppf "winner: %s  runtime: %.1f  lower bound: %.1f  gap: %.3fx"
    report.winner report.runtime report.lower_bound report.gap;
  List.iter
    (fun e ->
      Format.fprintf ppf "@\n  %-10s %-32s %7.3fs  peer prunes: %d" e.strategy
        (Format.asprintf "%a" pp_status e.status)
        e.wall_seconds e.peer_prunes)
    report.entries
