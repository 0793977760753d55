(* Output checks written against the paper's definitions, not against the
   placer's own helpers: a placement is an injective map of logical qubits
   into the register, every two-qubit compute gate must sit on a fast
   interaction (see [usable_matrix]; delays are read straight from the
   environment), and every SWAP level must be vertex-disjoint,
   lie on fast interactions and carry one placement to the next. *)

module Environment = Qcp_env.Environment
module Circuit = Qcp_circuit.Circuit
module Gate = Qcp_circuit.Gate

(* The usable interactions: every pair whose coupling delay is strictly
   below the threshold, plus, when that graph is disconnected, the
   connectors the paper's preprocessing falls back to — the cheapest
   couplings joining its components.  A connector is accepted when it lies
   on some minimum spanning forest of the component graph (processed
   Kruskal-style in groups of equal delay), so the check does not depend
   on how the placer breaks ties. *)
let usable_matrix env ~threshold =
  let m = Environment.size env in
  let delay = Environment.coupling_delay env in
  let ok = Array.make_matrix m m false in
  let parent = Array.init m Fun.id in
  let rec find x = if parent.(x) = x then x else find parent.(x) in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then parent.(ra) <- rb
  in
  let pairs = ref [] in
  for u = 0 to m - 1 do
    for v = u + 1 to m - 1 do
      if delay u v < threshold then begin
        ok.(u).(v) <- true;
        ok.(v).(u) <- true;
        union u v
      end
      else pairs := (delay u v, u, v) :: !pairs
    done
  done;
  let sorted = List.sort (fun (a, _, _) (b, _, _) -> Float.compare a b) !pairs in
  let rec groups = function
    | [] -> ()
    | (d, _, _) :: _ as l ->
      let group, rest = List.partition (fun (d', _, _) -> d' = d) l in
      List.iter
        (fun (_, u, v) ->
          if find u <> find v then begin
            ok.(u).(v) <- true;
            ok.(v).(u) <- true
          end)
        group;
      List.iter (fun (_, u, v) -> union u v) group;
      groups rest
  in
  groups sorted;
  ok

let usable_memo : (Environment.t * float * bool array array) list ref = ref []

let usable env ~threshold =
  match
    List.find_opt (fun (e, t, _) -> e == env && t = threshold) !usable_memo
  with
  | Some (_, _, ok) -> ok
  | None ->
    let ok = usable_matrix env ~threshold in
    usable_memo := (env, threshold, ok) :: !usable_memo;
    ok

let fast env ~threshold u v =
  let m = Environment.size env in
  u >= 0 && v >= 0 && u < m && v < m && (usable env ~threshold).(u).(v)

let placement_ok ~register ~qubits p =
  if Array.length p <> qubits then
    Error
      (Printf.sprintf "placement has %d entries for %d qubits" (Array.length p)
         qubits)
  else begin
    let seen = Array.make register false in
    let err = ref None in
    Array.iteri
      (fun q v ->
        if !err = None then
          if v < 0 || v >= register then
            err := Some (Printf.sprintf "qubit %d placed outside the register at %d" q v)
          else if seen.(v) then
            err := Some (Printf.sprintf "vertex %d holds two qubits" v)
          else seen.(v) <- true)
      p;
    match !err with None -> Ok () | Some e -> Error e
  end

let compute_ok env ~threshold placement circuit =
  List.fold_left
    (fun acc g ->
      match (acc, g) with
      | Error _, _ | _, Gate.G1 _ -> acc
      | Ok (), Gate.G2 (_, a, b) ->
        let u = placement.(a) and v = placement.(b) in
        if fast env ~threshold u v then Ok ()
        else
          Error
            (Printf.sprintf "gate %s on qubits %d,%d lands on slow pair %d-%d"
               (Gate.name g) a b u v))
    (Ok ()) (Circuit.gates circuit)

(* [network] must move the token of every logical qubit from [before] to
   [after]; levels must be vertex-disjoint matchings of fast pairs. *)
let network_ok env ~threshold ~before ~after network =
  let register = Environment.size env in
  let occupant = Array.make register (-1) in
  Array.iteri (fun q v -> occupant.(v) <- q) before;
  let used = Array.make register (-1) in
  let err = ref None in
  List.iteri
    (fun li level ->
      List.iter
        (fun (u, v) ->
          if !err = None then
            if not (fast env ~threshold u v) then
              err := Some (Printf.sprintf "level %d swaps slow pair %d-%d" li u v)
            else if used.(u) = li || used.(v) = li then
              err := Some (Printf.sprintf "level %d reuses a vertex of %d-%d" li u v)
            else begin
              used.(u) <- li;
              used.(v) <- li;
              let t = occupant.(u) in
              occupant.(u) <- occupant.(v);
              occupant.(v) <- t
            end)
        level)
    network;
  match !err with
  | Some e -> Error e
  | None ->
    let carried = ref true in
    Array.iteri (fun q v -> if occupant.(v) <> q then carried := false) after;
    if !carried then Ok ()
    else Error "SWAP network does not carry the placement to the next one"

(* Streaming checker: fed stage events in order, it holds only the
   previous placement and the pending network — constant memory in the
   number of stages, so it audits a spilled run as it streams. *)
type stream = {
  env : Environment.t;
  threshold : float;
  qubits : int;
  mutable prev : int array option;
  mutable pending : Qcp_route.Swap_network.t option;
  mutable computes : int;
  mutable gates : int;
  mutable makespan : float;
  mutable error : string option;
}

let stream env ~threshold ~qubits =
  {
    env;
    threshold;
    qubits;
    prev = None;
    pending = None;
    computes = 0;
    gates = 0;
    makespan = 0.0;
    error = None;
  }

let fail s msg = if s.error = None then s.error <- Some msg

let on_network s network =
  if s.pending <> None then fail s "two SWAP stages in a row";
  if s.prev = None then fail s "SWAP stage before the first compute stage";
  s.pending <- Some network

let on_compute s ?makespan placement circuit =
  if s.error = None then begin
    let register = Environment.size s.env in
    (match placement_ok ~register ~qubits:s.qubits placement with
     | Error e -> fail s (Printf.sprintf "stage %d: %s" s.computes e)
     | Ok () -> ());
    (if s.error = None then
       match compute_ok s.env ~threshold:s.threshold placement circuit with
       | Error e -> fail s (Printf.sprintf "stage %d: %s" s.computes e)
       | Ok () -> ());
    (if s.error = None then
       match s.prev with
       | None -> ()
       | Some before -> (
         let network = Option.value s.pending ~default:[] in
         match
           network_ok s.env ~threshold:s.threshold ~before ~after:placement
             network
         with
         | Error e -> fail s (Printf.sprintf "before stage %d: %s" s.computes e)
         | Ok () -> ()));
    Option.iter
      (fun m ->
        if m < s.makespan then fail s "running makespan decreased";
        s.makespan <- m)
      makespan;
    s.prev <- Some (Array.copy placement);
    s.pending <- None;
    s.computes <- s.computes + 1;
    s.gates <- s.gates + Circuit.gate_count circuit
  end

let finish s ~source_gates =
  if s.error = None && s.pending <> None then fail s "program ends on a SWAP stage";
  if s.error = None && s.gates <> source_gates then
    fail s
      (Printf.sprintf "stages hold %d gates, the source has %d" s.gates
         source_gates);
  match s.error with None -> Ok s.computes | Some e -> Error e

(* A whole placed program.  Classic (unwindowed) stage formation keeps the
   source's gate order, so there the concatenated stage circuits must equal
   the source gate for gate. *)
let program ?(same_order = true) (p : Qcp.Placer.program) =
  let threshold = p.Qcp.Placer.options.Qcp.Options.threshold in
  let source = p.Qcp.Placer.source in
  let s = stream p.Qcp.Placer.env ~threshold ~qubits:(Circuit.qubits source) in
  List.iter
    (function
      | Qcp.Placer.Compute { placement; circuit } -> on_compute s placement circuit
      | Qcp.Placer.Permute network -> on_network s network)
    p.Qcp.Placer.stages;
  match finish s ~source_gates:(Circuit.gate_count source) with
  | Error e -> Error e
  | Ok _ when not same_order -> Ok ()
  | Ok _ ->
    let staged =
      List.concat_map
        (function
          | Qcp.Placer.Compute { circuit; _ } -> Circuit.gates circuit
          | Qcp.Placer.Permute _ -> [])
        p.Qcp.Placer.stages
    in
    if List.equal Gate.equal staged (Circuit.gates source) then Ok ()
    else Error "stage circuits do not concatenate to the source circuit"

let spill_sink s =
  Qcp.Placer.Spill.callback (function
    | Qcp.Placer.Spill.Stage { placement; circuit; makespan; _ } ->
      on_compute s ~makespan placement circuit
    | Qcp.Placer.Spill.Network { network; _ } -> on_network s network)
