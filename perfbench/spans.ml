(* In-memory spans recorded by the benchmark around its calls into the
   program's public functions (the program itself is not instrumented).
   Off unless [--trace 1]; written out at the end as a Chrome trace through
   the program's own exporter. *)

type span = {
  name : string;
  id : string;  (** instance or request the span belongs to *)
  parent : int;  (** index of the enclosing span, -1 at the root *)
  start : float;
  mutable stop : float;
  mutable child : float;  (** time covered by direct children *)
}

let enabled = ref false
let recorded : span list ref = ref []
let count = ref 0
let stack : (int * span) list ref = ref []
let origin = ref 0.0

let start () =
  enabled := true;
  recorded := [];
  count := 0;
  stack := [];
  origin := Unix.gettimeofday ()

let with_span ?(id = "") name f =
  if not !enabled then f ()
  else begin
    let parent = match !stack with (i, _) :: _ -> i | [] -> -1 in
    let s =
      { name; id; parent; start = Unix.gettimeofday (); stop = nan; child = 0.0 }
    in
    let index = !count in
    incr count;
    recorded := s :: !recorded;
    stack := (index, s) :: !stack;
    let close () =
      s.stop <- Unix.gettimeofday ();
      stack := List.tl !stack;
      match !stack with
      | (_, p) :: _ -> p.child <- p.child +. (s.stop -. s.start)
      | [] -> ()
    in
    match f () with
    | v ->
      close ();
      v
    | exception e ->
      close ();
      raise e
  end

let duration s = s.stop -. s.start

(* Total and self seconds of every span named [name]. *)
let total name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. duration s else acc)
    0.0 !recorded

let durations name =
  List.filter_map
    (fun s -> if s.name = name then Some (duration s) else None)
    !recorded

let write path =
  let events =
    List.rev !recorded
    |> List.mapi (fun seq s ->
           {
             Qcp_obs.Trace.name = s.name;
             cat = "perfbench";
             tid = 0;
             seq;
             ts = s.start -. !origin;
             dur = duration s;
             self = duration s -. s.child;
             args = [ ("id", s.id); ("parent", string_of_int s.parent) ];
           })
  in
  Qcp_obs.Export.write_trace_file path events
