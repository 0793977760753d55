(** Graph traversals: breadth-first distances, shortest paths, connected
    components and spanning trees, plus weighted (Dijkstra) distances. *)

val bfs_dist : ?restrict:(int -> bool) -> Graph.t -> int -> int array
(** Unweighted distances from a source; [-1] for unreachable vertices.  When
    [restrict] is given the search only visits vertices satisfying it (the
    source must satisfy it). *)

val bfs_parents : ?restrict:(int -> bool) -> Graph.t -> int -> int array
(** BFS tree parents from a root; the root's parent is itself, unreachable
    vertices get [-1]. *)

val shortest_path : ?restrict:(int -> bool) -> Graph.t -> int -> int -> int list option
(** Vertex sequence from source to destination inclusive, if connected. *)

val components : Graph.t -> int array * int
(** [(comp, count)] where [comp.(v)] is the component id of [v]. *)

val component_members : Graph.t -> int list list
(** Vertex lists of each connected component, ids ascending. *)

val is_connected : Graph.t -> bool
(** True for the empty and one-vertex graph as well. *)

val is_connected_subset : Graph.t -> int list -> bool
(** Whether the induced subgraph on the given vertices is connected. *)

val spanning_tree : Graph.t -> root:int -> (int * int) list
(** Edges of a BFS spanning tree of the root's component. *)

val all_pairs_weighted_dist :
  Graph.t -> weight:(int -> int -> float) -> float array array
(** [(all_pairs_weighted_dist g ~weight).(s).(v)] is the shortest-path
    distance from [s] to [v] where traversing edge [(u, v)] from [u] costs
    [weight u v]; [infinity] when [v] is unreachable.  One Dijkstra per
    source over the adjacency lists, with each edge's cost looked up once.
    Each distance is the smallest left-to-right float sum of edge costs
    along a path, so [dist.(s).(v) <= dist.(s).(u) +. weight u v] holds
    exactly for every edge.  Raises [Invalid_argument] on a negative or NaN
    weight. *)
