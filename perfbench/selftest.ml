(* A self-test of the benchmark's own checker and statistics, run at the
   start of every run: a checker that flags nothing, or a tail helper that
   picks the wrong percentile, would make every later number meaningless. *)

module Placer = Qcp.Placer

let expect name cond acc = if cond then acc else ("self-test: " ^ name) :: acc

let flagged ?contains result =
  match result with
  | Ok () -> false
  | Error e -> (
    match contains with
    | None -> true
    | Some s ->
      let n = String.length s and m = String.length e in
      let rec at i = i + n <= m && (String.sub e i n = s || at (i + 1)) in
      at 0)

(* A placed Table 3 program with at least one SWAP stage to corrupt. *)
let program_with_swaps () =
  List.find_map
    (fun (i : Instances.instance) ->
      match Placer.place i.Instances.options i.Instances.env i.Instances.circuit with
      | Placer.Placed p
        when List.exists
               (function Placer.Permute (_ :: _) -> true | _ -> false)
               p.Placer.stages ->
        Some p
      | _ -> None)
    (Instances.table3_cells ())

let with_stages p stages = { p with Placer.stages }

(* Swap two placement entries of the first compute stage so that one of its
   gates leaves the placer's own fast graph. *)
let corrupt_placement (p : Placer.program) =
  let off_graph placement circuit =
    List.exists
      (function
        | Qcp_circuit.Gate.G2 (_, a, b) ->
          not (Qcp_graph.Graph.mem_edge p.Placer.adjacency placement.(a) placement.(b))
        | Qcp_circuit.Gate.G1 _ -> false)
      (Qcp_circuit.Circuit.gates circuit)
  in
  let rec go before = function
    | [] -> None
    | (Placer.Compute { placement; circuit } as s) :: rest -> (
      let n = Array.length placement in
      let pairs =
        List.concat_map (fun a -> List.init n (fun b -> (a, b))) (List.init n Fun.id)
      in
      let swapped =
        List.find_map
          (fun (a, b) ->
            let q = Array.copy placement in
            q.(a) <- placement.(b);
            q.(b) <- placement.(a);
            if a < b && off_graph q circuit then Some q else None)
          pairs
      in
      match swapped with
      | Some q ->
        Some
          (List.rev_append before (Placer.Compute { placement = q; circuit } :: rest))
      | None -> go (s :: before) rest)
    | s :: rest -> go (s :: before) rest
  in
  Option.map (with_stages p) (go [] p.Placer.stages)

(* Repeat the first SWAP of the first non-empty level inside that level. *)
let corrupt_level (p : Placer.program) =
  let done_ = ref false in
  let stages =
    List.map
      (function
        | Placer.Permute (level :: levels) when (not !done_) && level <> [] ->
          done_ := true;
          Placer.Permute ((List.hd level :: level) :: levels)
        | s -> s)
      p.Placer.stages
  in
  with_stages p stages

let run () =
  let acc = [] in
  let acc =
    match program_with_swaps () with
    | None -> "self-test: no Table 3 program with a SWAP stage" :: acc
    | Some p ->
      let acc = expect "a valid program passes" (Check.program p = Ok ()) acc in
      let acc =
        match corrupt_placement p with
        | None -> "self-test: no placement swap leaves the fast graph" :: acc
        | Some bad ->
          expect "a placement swapped off the fast graph is flagged"
            (flagged (Check.program bad)) acc
      in
      expect "a SWAP level reusing a vertex is flagged"
        (flagged ~contains:"reuses a vertex" (Check.program (corrupt_level p)))
        acc
  in
  let range n = List.init n (fun i -> float_of_int (i + 1)) in
  let tail_is n p v =
    match Stats.tail (range n) with
    | Some t -> t.Stats.percentile = p && t.Stats.value = v && t.Stats.beyond >= 10
    | None -> false
  in
  let acc = expect "tail of 1000 samples is p99 with 10 beyond" (tail_is 1000 99.0 990.0) acc in
  let acc = expect "tail of 999 samples falls back to p95" (tail_is 999 95.0 950.0) acc in
  let acc = expect "15 samples support no tail" (Stats.tail (range 15) = None) acc in
  let acc =
    expect "the fallback tail is the maximum"
      ((Stats.tail_or_max (range 15)).Stats.value = 15.0)
      acc
  in
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let acc = expect "quartiles match Python's" (Stats.quartiles (range 10) = (2.75, 5.5, 8.25)) acc in
  List.rev acc
