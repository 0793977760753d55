module Graph = Qcp_graph.Graph
module Paths = Qcp_graph.Paths
module Separator = Qcp_graph.Separator

exception Routing_failure of string

let depth_upper_bound g = (8 * Graph.n g) + 8

(* Everything the divide-and-conquer recursion derives from a vertex subset
   alone — the bisection, the channel edge and the per-half BFS structure —
   is independent of the permutation being routed.  A [memo] caches it per
   subset so repeated routes over the same adjacency graph (the placer
   scores hundreds of candidates against one graph) pay the separator and
   BFS costs once. *)
type split_info = {
  si_sa : int list; (* small half, original vertex ids *)
  si_sb : int list; (* large half *)
  si_in_a : bool array;
  si_in_b : bool array;
  si_guard_cap : int;
  si_channel : int * int; (* (u1 in sa, u2 in sb) *)
  si_parent_a : int array;
  si_order_a : int list; (* sa sorted by distance to the channel *)
  si_parent_b : int array;
  si_order_b : int list;
}

type subset_info = Unsplittable | No_channel | Split of split_info

type memo = {
  table : (int list, subset_info) Hashtbl.t;
  lock : Mutex.t;
  mutable owner : Graph.t option; (* the graph this memo was built against *)
}

let make_memo () = { table = Hashtbl.create 64; lock = Mutex.create (); owner = None }

let compute_info g edge_cost vertices =
  let n = Graph.n g in
  let sub, back = Graph.induced g vertices in
  match Separator.bisect sub with
  | None -> Unsplittable
  | Some (small, large) ->
    let sa = List.map (fun i -> back.(i)) small in
    let sb = List.map (fun i -> back.(i)) large in
    let in_sa = Array.make n false in
    let in_sb = Array.make n false in
    List.iter (fun v -> in_sa.(v) <- true) sa;
    List.iter (fun v -> in_sb.(v) <- true) sb;
    let channel =
      (* All crossing edges; with an edge-cost oracle (the paper notes the
         algorithm extends to weighted SWAPs) pick the cheapest channel. *)
      let crossing =
        List.concat_map
          (fun v ->
            Array.to_list (Graph.neighbors g v)
            |> List.filter_map (fun u -> if in_sb.(u) then Some (v, u) else None))
          sa
      in
      match (edge_cost, crossing) with
      | _, [] -> None
      | None, first :: _ -> Some first
      | Some cost, candidates ->
        Qcp_util.Listx.min_by (fun (u, v) -> cost u v) candidates
    in
    (match channel with
    | None -> No_channel
    | Some (u1, u2) ->
      let dist_a = Paths.bfs_dist ~restrict:(fun v -> in_sa.(v)) g u1 in
      let parent_a = Paths.bfs_parents ~restrict:(fun v -> in_sa.(v)) g u1 in
      let dist_b = Paths.bfs_dist ~restrict:(fun v -> in_sb.(v)) g u2 in
      let parent_b = Paths.bfs_parents ~restrict:(fun v -> in_sb.(v)) g u2 in
      let by_dist dist side =
        List.sort (fun a b -> Int.compare dist.(a) dist.(b)) side
      in
      Split
        {
          si_sa = sa;
          si_sb = sb;
          si_in_a = in_sa;
          si_in_b = in_sb;
          si_guard_cap = (8 * (List.length sa + List.length sb)) + 16;
          si_channel = (u1, u2);
          si_parent_a = parent_a;
          si_order_a = by_dist dist_a sa;
          si_parent_b = parent_b;
          si_order_b = by_dist dist_b sb;
        })

(* Offloading a subtree pays one pool round-trip plus a fresh scratch
   array; only worth it when the small half is big enough to hide that. *)
let parallel_min_half = 8

let route_impl ?(leaf_override = true) ?edge_cost ?memo ?(jobs = 0) g ~perm =
  let n = Graph.n g in
  if Array.length perm <> n then
    invalid_arg "Bisect_router.route: permutation size mismatch";
  if not (Perm.is_valid perm) then
    invalid_arg "Bisect_router.route: not a permutation";
  let check_connected () =
    if not (Paths.is_connected g) then
      invalid_arg "Bisect_router.route: adjacency graph must be connected"
  in
  let info_of =
    match memo with
    | None ->
      check_connected ();
      compute_info g edge_cost
    | Some memo ->
      (* Graphs are immutable and a memo only ever serves its owner, so
         connectivity is checked once, when the memo binds. *)
      (match memo.owner with
      | Some owner when owner == g -> ()
      | _ ->
        Mutex.protect memo.lock (fun () ->
            match memo.owner with
            | Some owner ->
              if owner != g then
                invalid_arg
                  "Bisect_router.route: memo built for a different graph"
            | None ->
              check_connected ();
              memo.owner <- Some g));
      fun vertices ->
        let find () = Hashtbl.find_opt memo.table vertices in
        Mutex.protect memo.lock (fun () ->
            match find () with
            | Some info -> info
            | None ->
              let info = compute_info g edge_cost vertices in
              Hashtbl.add memo.table vertices info;
              info)
  in
  let config = Array.init n (fun v -> v) in
  let dest_of v = perm.(config.(v)) in
  let settled v = dest_of v = v in
  let apply_level level =
    List.iter
      (fun (u, v) ->
        let tmp = config.(u) in
        config.(u) <- config.(v);
        config.(v) <- tmp)
      level
  in

  (* Leaf-target value override pre-pass: freeze leaves that hold (or can
     directly receive) their final value, shrinking the routing instance. *)
  let active = Array.make n true in
  let active_count = ref n in
  let prepass_levels = ref [] in
  (* Scratch "touched this level" marks, shared by the pre-pass and every
     phase iteration on the same task: cleared with a fill instead of a
     fresh allocation.  A subtree offloaded to the pool gets its own array
     ([phase] fills all [n] cells), so concurrent siblings never share
     scratch. *)
  let used = Array.make n false in
  if leaf_override then begin
    let progress = ref true in
    while !progress && !active_count > 2 do
      progress := false;
      let active_degree v =
        Array.fold_left
          (fun acc u -> if active.(u) then acc + 1 else acc)
          0 (Graph.neighbors g v)
      in
      Array.fill used 0 n false;
      let level = ref [] in
      let freezes = ref [] in
      for v = 0 to n - 1 do
        if active.(v) && (not used.(v)) && active_degree v = 1 then begin
          if settled v then freezes := v :: !freezes
          else begin
            let neighbor =
              Array.fold_left
                (fun acc u -> if active.(u) then Some u else acc)
                None (Graph.neighbors g v)
            in
            match neighbor with
            | Some u when (not used.(u)) && dest_of u = v ->
              used.(v) <- true;
              used.(u) <- true;
              level := (u, v) :: !level;
              freezes := v :: !freezes
            | Some _ | None -> ()
          end
        end
      done;
      if !level <> [] then begin
        apply_level !level;
        prepass_levels := !level :: !prepass_levels
      end;
      List.iter
        (fun v ->
          active.(v) <- false;
          decr active_count;
          progress := true)
        !freezes
    done
  end;

  (* Move misplaced tokens of [sa] and [sb] to their own half through the
     channel edge (u1, u2); within a half, misplaced tokens bubble toward the
     channel along BFS-tree parents, swapping only with correctly-sided
     tokens, closest-to-channel first. *)
  let phase ~used info =
    let in_sa = info.si_in_a in
    let in_sb = info.si_in_b in
    let u1, u2 = info.si_channel in
    (* Every closure the loop needs is built once per phase, not once per
       iteration: the inner loop runs O(half size) times per split and was
       dominated by its own allocations. *)
    let wrong_side_a v = in_sb.(dest_of v) in
    let in_sb_dest d = in_sb.(d) in
    let in_sa_dest d = in_sa.(d) in
    let out = ref [] in
    let level = ref [] in
    let take u v =
      used.(u) <- true;
      used.(v) <- true;
      level := (u, v) :: !level
    in
    let sweep order parent inside_other u_root =
      List.iter
        (fun v ->
          if v <> u_root && (not used.(v)) && inside_other (dest_of v) then begin
            let p = parent.(v) in
            if p >= 0 && (not used.(p)) && not (inside_other (dest_of p)) then
              take v p
          end)
        order
    in
    let iters = ref 0 in
    let cap = info.si_guard_cap in
    while List.exists wrong_side_a info.si_sa do
      if !iters > cap then raise (Routing_failure "phase did not converge");
      incr iters;
      Array.fill used 0 n false;
      level := [];
      (* Channel swap first. *)
      if in_sb.(dest_of u1) && in_sa.(dest_of u2) then take u1 u2;
      sweep info.si_order_a info.si_parent_a in_sb_dest u1;
      sweep info.si_order_b info.si_parent_b in_sa_dest u2;
      if !level = [] then raise (Routing_failure "phase produced an empty level");
      apply_level !level;
      out := !level :: !out
    done;
    List.rev !out
  in

  (* Interleave sibling level lists: the halves are vertex-disjoint, so their
     levels execute in parallel. *)
  let rec merge la lb =
    match (la, lb) with
    | [], rest | rest, [] -> rest
    | a :: ra, b :: rb -> (a @ b) :: merge ra rb
  in
  let rec solve ~used vertices =
    match vertices with
    | [] | [ _ ] -> []
    | [ a; b ] ->
      if settled a then []
      else begin
        let level = [ (a, b) ] in
        apply_level level;
        [ level ]
      end
    | _ -> (
      match info_of vertices with
      | Unsplittable -> raise (Routing_failure "could not bisect a connected subgraph")
      | No_channel -> raise (Routing_failure "no channel edge between bisection halves")
      | Split info ->
        let phase_levels = phase ~used info in
        (* After the phase, the halves are vertex-disjoint routing
           instances: their [config] entries never alias and each recursion
           swaps only within its own half, so they run as concurrent pool
           tasks.  Levels are pure values and [merge] interleaves them
           deterministically — the network is bit-identical to the
           sequential recursion. *)
        let la, lb =
          if jobs > 1 && List.length info.si_sa >= parallel_min_half then
            Qcp_util.Task_pool.both
              (Qcp_util.Task_pool.get ())
              ~jobs
              (fun () -> solve ~used info.si_sa)
              (fun () -> solve ~used:(Array.make n false) info.si_sb)
          else begin
            let la = solve ~used info.si_sa in
            let lb = solve ~used info.si_sb in
            (la, lb)
          end
        in
        phase_levels @ merge la lb)
  in
  let remaining = List.filter (fun v -> active.(v)) (Graph.vertices g) in
  let main_levels = solve ~used remaining in
  let network = List.rev_append !prepass_levels main_levels in
  assert (Array.for_all (fun v -> settled v) (Array.init n (fun v -> v)));
  (* ASAP re-levelization: sparse pre-pass and phase levels pack together. *)
  Swap_network.compress network

module Telemetry = Qcp_obs.Metrics

let m_routes = Telemetry.counter Telemetry.global "router.routes"

let route ?leaf_override ?edge_cost ?memo ?jobs g ~perm =
  if Telemetry.enabled () then Telemetry.incr m_routes;
  Qcp_obs.Trace.with_span ~cat:"route" "router/bisect" (fun () ->
      route_impl ?leaf_override ?edge_cost ?memo ?jobs g ~perm)
