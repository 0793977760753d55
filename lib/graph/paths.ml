let bfs_core ?(restrict = fun _ -> true) g source =
  let size = Graph.n g in
  let dist = Array.make size (-1) in
  let parent = Array.make size (-1) in
  let queue = Queue.create () in
  assert (restrict source);
  dist.(source) <- 0;
  parent.(source) <- source;
  Queue.add source queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    Array.iter
      (fun v ->
        if dist.(v) < 0 && restrict v then begin
          dist.(v) <- dist.(u) + 1;
          parent.(v) <- u;
          Queue.add v queue
        end)
      (Graph.neighbors g u)
  done;
  (dist, parent)

let bfs_dist ?restrict g source = fst (bfs_core ?restrict g source)

let bfs_parents ?restrict g source = snd (bfs_core ?restrict g source)

let shortest_path ?restrict g source dest =
  let _, parent = bfs_core ?restrict g source in
  if parent.(dest) < 0 then None
  else begin
    let rec climb v acc = if v = source then source :: acc else climb parent.(v) (v :: acc) in
    Some (climb dest [])
  end

let components g =
  let size = Graph.n g in
  let comp = Array.make size (-1) in
  let count = ref 0 in
  for v = 0 to size - 1 do
    if comp.(v) < 0 then begin
      let dist = bfs_dist g v in
      Array.iteri (fun u d -> if d >= 0 then comp.(u) <- !count) dist;
      incr count
    end
  done;
  (comp, !count)

let component_members g =
  let comp, count = components g in
  let buckets = Array.make count [] in
  for v = Graph.n g - 1 downto 0 do
    buckets.(comp.(v)) <- v :: buckets.(comp.(v))
  done;
  Array.to_list buckets

let is_connected g = Graph.n g <= 1 || snd (components g) = 1

let is_connected_subset g vs =
  match vs with
  | [] -> true
  | first :: _ ->
    let inside = Array.make (Graph.n g) false in
    List.iter (fun v -> inside.(v) <- true) vs;
    let dist = bfs_dist ~restrict:(fun v -> inside.(v)) g first in
    List.for_all (fun v -> dist.(v) >= 0) vs

let spanning_tree g ~root =
  let parent = bfs_parents g root in
  let acc = ref [] in
  Array.iteri
    (fun v p -> if p >= 0 && p <> v then acc := (min v p, max v p) :: !acc)
    parent;
  List.sort compare !acc

let all_pairs_weighted_dist g ~weight =
  let size = Graph.n g in
  (* Edge costs are looked up once, aligned with the adjacency lists, and
     shared by every source's search. *)
  let cost =
    Array.init size (fun u ->
        Array.map
          (fun v ->
            let w = weight u v in
            if not (w >= 0.0) then
              invalid_arg "Paths.all_pairs_weighted_dist: negative weight";
            w)
          (Graph.neighbors g u))
  in
  (* Indexed binary min-heap over vertices keyed by the current source's
     [dist]; [pos.(v)] is [v]'s heap slot, [-1] when [v] is not queued.
     Nonnegative weights mean a settled vertex is never improved, so each
     vertex enters at most once per source, [size] slots suffice, and
     every slot is back at [-1] when a search ends. *)
  let heap = Array.make size 0 in
  let pos = Array.make size (-1) in
  let search source =
    let dist = Array.make size infinity in
    let len = ref 0 in
    let swap i j =
      let a = heap.(i) and b = heap.(j) in
      heap.(i) <- b;
      heap.(j) <- a;
      pos.(b) <- i;
      pos.(a) <- j
    in
    let rec up i =
      if i > 0 then begin
        let p = (i - 1) / 2 in
        if dist.(heap.(i)) < dist.(heap.(p)) then begin
          swap i p;
          up p
        end
      end
    in
    let rec down i =
      let l = (2 * i) + 1 in
      if l < !len then begin
        let r = l + 1 in
        let c = if r < !len && dist.(heap.(r)) < dist.(heap.(l)) then r else l in
        if dist.(heap.(c)) < dist.(heap.(i)) then begin
          swap i c;
          down c
        end
      end
    in
    dist.(source) <- 0.0;
    heap.(0) <- source;
    pos.(source) <- 0;
    len := 1;
    while !len > 0 do
      let u = heap.(0) in
      decr len;
      pos.(u) <- -1;
      if !len > 0 then begin
        heap.(0) <- heap.(!len);
        pos.(heap.(0)) <- 0;
        down 0
      end;
      let adj = Graph.neighbors g u and cu = cost.(u) in
      for k = 0 to Array.length adj - 1 do
        let v = adj.(k) in
        let d = dist.(u) +. cu.(k) in
        if d < dist.(v) then begin
          dist.(v) <- d;
          if pos.(v) < 0 then begin
            heap.(!len) <- v;
            pos.(v) <- !len;
            incr len
          end;
          up pos.(v)
        end
      done
    done;
    dist
  in
  Array.init size search
