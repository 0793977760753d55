(** The paper's fast permutation-circuit construction (Section 5.2).

    Divide and conquer: cut the adjacency graph into two balanced connected
    halves, flow every token to its correct half through a single
    communication-channel edge (the "water and air bubbles" process), then
    recurse on the halves in parallel.  On well-separable graphs
    (s >= 1/max-degree, Appendix Theorem 1) the produced network has O(n)
    levels; on chains the bound is tight up to constants.

    The optional *leaf-target value override* heuristic (Section 5.3) runs as
    a pre-pass: whenever a leaf's desired value sits next door, it is swapped
    in and the leaf is excluded from the rest of the routing (the paper
    reports a 0-5% depth reduction). *)

exception Routing_failure of string
(** Internal-invariant violation; never expected on valid inputs. *)

type memo
(** Cache of the permutation-independent routing structure (bisections,
    channel edges, per-half BFS trees) per vertex subset of one adjacency
    graph.  Sharing a memo across [route] calls on the same graph amortizes
    the separator work, which dominates routing cost; networks produced with
    and without a memo are identical.  A memo is internally locked and safe
    to share across domains. *)

val make_memo : unit -> memo
(** A fresh, empty memo.  Use one memo per (graph, [edge_cost]) combination:
    the first [route] call binds it to its graph, checking once that the
    graph is connected (later calls with another graph raise
    [Invalid_argument]), but a differing [edge_cost] cannot be detected and
    silently yields the channels of the first one. *)

val route :
  ?leaf_override:bool ->
  ?edge_cost:(int -> int -> float) ->
  ?memo:memo ->
  ?jobs:int ->
  Qcp_graph.Graph.t ->
  perm:Perm.t ->
  Swap_network.t
(** Build a SWAP network realizing [perm] on a *connected* graph.
    [leaf_override] defaults to [true].  [edge_cost] enables the weighted
    refinement the paper mentions ("modification ... that accounts for the
    actual costs of SWAPs is possible"): communication-channel edges are
    chosen to minimize it.

    [jobs] (default 0 = sequential) > 1 routes the two halves of each
    sufficiently large bisection as concurrent tasks on the shared
    {!Qcp_util.Task_pool} — the recursion the paper itself notes runs "in
    parallel".  The halves are vertex-disjoint, every phase level is a pure
    value, and sibling levels are interleaved deterministically, so the
    produced network is bit-identical to the sequential one at any [jobs].
    Raises [Invalid_argument] if the graph is disconnected or [perm] is not a
    permutation of the graph's vertices. *)

val depth_upper_bound : Qcp_graph.Graph.t -> int
(** The analytic [8n + O(1)] level bound from the paper for graphs with
    separability 1/2 (coarse; actual networks are much shallower). *)
