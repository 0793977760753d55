(* serve_mixed: one generator process drives a separate [qcp serve]
   daemon over a Unix socket, open loop — each request is sent at its
   scheduled instant whatever the replies are doing, and its latency is
   timed from that instant, so a stall is charged to every request queued
   behind it. *)

module Json = Qcp_util.Json
module I = Instances

let now = Unix.gettimeofday

(* ---- daemon ------------------------------------------------------- *)

type daemon = { pid : int; socket : string }

let live : daemon list ref = ref []
let socket_seq = ref 0

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> Some fd
  | exception Unix.Unix_error _ ->
    Unix.close fd;
    None

(* Spawn [qcp serve] with its default, quiet configuration apart from the
   listener and [--jobs 2]; return once it accepts connections.  The
   socket path is relative to the working directory (the checkout), which
   keeps it under the 108-byte limit however deep the checkout is. *)
let spawn ~qcp ~dir =
  incr socket_seq;
  let socket =
    Filename.concat dir (Printf.sprintf "%d-%d.sock" (Unix.getpid ()) !socket_seq)
  in
  (try Sys.remove socket with Sys_error _ -> ());
  let log =
    Unix.openfile (socket ^ ".log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let pid =
    Unix.create_process qcp
      [| qcp; "serve"; "--socket"; socket; "--jobs"; "2" |]
      Unix.stdin log log
  in
  Unix.close log;
  let d = { pid; socket } in
  live := d :: !live;
  let deadline = now () +. 30.0 in
  let rec wait () =
    match connect socket with
    | Some fd -> Unix.close fd
    | None ->
      if now () > deadline then failwith "perfbench: qcp serve did not start";
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
       | 0, _ -> ()
       | _ -> failwith "perfbench: qcp serve exited at start-up");
      Unix.sleepf 0.002;
      wait ()
  in
  wait ();
  d

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

(* One blocking request/response on a fresh connection. *)
let roundtrip d line =
  match connect d.socket with
  | None -> failwith "perfbench: cannot connect to qcp serve"
  | Some fd ->
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        write_all fd (line ^ "\n") 0;
        let acc = ref "" in
        let chunk = Bytes.create 65536 in
        let rec read () =
          match String.index_opt !acc '\n' with
          | Some i -> String.sub !acc 0 i
          | None ->
            let k = Unix.read fd chunk 0 (Bytes.length chunk) in
            if k = 0 then failwith "perfbench: qcp serve closed the connection";
            acc := !acc ^ Bytes.sub_string chunk 0 k;
            read ()
        in
        read ())

(* Peak resident set of the daemon, read from the kernel: the daemon
   exposes no heap statistics of its own. *)
let peak_rss_mb d =
  try
    let ic = open_in (Printf.sprintf "/proc/%d/status" d.pid) in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec scan () =
          let line = input_line ic in
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] ->
            Scanf.sscanf (String.trim v) "%d kB" (fun kb -> float_of_int kb /. 1e3)
          | _ -> scan ()
        in
        scan ())
  with _ -> nan

let stop d =
  (try ignore (roundtrip d {|{"op":"shutdown"}|} : string) with _ -> ());
  let deadline = now () +. 10.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when now () < deadline ->
      Unix.sleepf 0.01;
      wait ()
    | 0, _ ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] d.pid)
    | _ -> ()
    | exception Unix.Unix_error _ -> ()
  in
  wait ();
  List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ d.socket; d.socket ^ ".log" ];
  live := List.filter (fun x -> x.pid <> d.pid) !live

let stop_all () = List.iter stop !live

(* ---- open-loop generator ----------------------------------------- *)

type request = {
  id : string;
  body : string;  (** the line after its id member, shared per instance *)
  due : float;  (** seconds after the step starts *)
  hot : bool;
  inst : I.instance;
}

type reply = {
  req : request;
  mutable sent : float;  (** lateness against the schedule, seconds *)
  mutable latency : float;  (** reply time minus due time; nan if none *)
  mutable status : string;
  mutable cached : bool;
  mutable result : string;  (** the response's raw result bytes *)
  mutable backlog : int;  (** requests in flight when this one was sent *)
}

(* Where a response's "result" member starts: the daemon splices it in
   last, after the short envelope fields. *)
let result_start line =
  let needle = {|,"result":|} in
  let n = String.length needle and m = String.length line in
  let rec find i =
    if i + n > m then None
    else if String.sub line i n = needle then Some i
    else find (i + 1)
  in
  find 0

(* The raw bytes of a response's "result" member; cached responses must
   repeat a cold solve's bytes exactly. *)
let result_bytes line =
  let k = String.length {|,"result":|} and m = String.length line in
  match result_start line with
  | Some i when m > i + k -> String.sub line (i + k) (m - i - k - 1)
  | _ -> ""

(* The envelope alone (id, status, cached), without parsing the result. *)
let envelope line =
  match result_start line with
  | Some i -> Json.parse (String.sub line 0 i ^ "}")
  | None -> Json.parse line

let conns = 2

(* Send [requests] on their schedule over [conns] connections and collect
   every reply.  Replies still missing [grace] seconds after the last send
   keep status "missing". *)
let run_schedule ?(grace = 10.0) d (requests : request array) =
  let fds =
    Array.init conns (fun _ ->
        match connect d.socket with
        | Some fd -> fd
        | None -> failwith "perfbench: cannot connect to qcp serve")
  in
  let pending = Array.make conns "" in
  let replies =
    Array.map
      (fun req ->
        {
          req;
          sent = nan;
          latency = nan;
          status = "missing";
          cached = false;
          result = "";
          backlog = 0;
        })
      requests
  in
  let by_id = Hashtbl.create (Array.length requests) in
  Array.iteri (fun i r -> Hashtbl.replace by_id r.id i) requests;
  let outstanding = ref 0 in
  let chunk = Bytes.create 65536 in
  let t0 = now () +. 0.005 in
  let on_line received line =
    match envelope line with
    | Error _ -> ()
    | Ok json -> (
      let str k = Option.bind (Json.member k json) Json.to_str in
      match Option.bind (str "id") (Hashtbl.find_opt by_id) with
      | None -> ()
      | Some i ->
        let r = replies.(i) in
        decr outstanding;
        r.latency <- received -. (t0 +. r.req.due);
        r.status <- Option.value (str "status") ~default:"?";
        r.cached <-
          Option.value ~default:false
            (Option.bind (Json.member "cached" json) Json.to_bool);
        r.result <- result_bytes line)
  in
  let drain ready =
    let received = now () in
    List.iter
      (fun fd ->
        let c = ref 0 in
        Array.iteri (fun j f -> if f == fd then c := j) fds;
        let k = Unix.read fd chunk 0 (Bytes.length chunk) in
        if k = 0 then failwith "perfbench: qcp serve closed a connection";
        let data = pending.(!c) ^ Bytes.sub_string chunk 0 k in
        let lines = String.split_on_char '\n' data in
        let rec go = function
          | [] -> ()
          | [ rest ] -> pending.(!c) <- rest
          | l :: rest ->
            on_line received l;
            go rest
        in
        go lines)
      ready
  in
  let fd_list = Array.to_list fds in
  let poll timeout =
    match Unix.select fd_list [] [] timeout with
    | ready, _, _ -> drain ready
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  let n = Array.length requests in
  let next = ref 0 in
  let last_due = if n = 0 then 0.0 else requests.(n - 1).due in
  let give_up = t0 +. last_due +. grace in
  while (!next < n || !outstanding > 0) && now () < give_up do
    let t = now () in
    if !next < n && t >= t0 +. requests.(!next).due then begin
      let r = replies.(!next) in
      r.backlog <- !outstanding;
      let fd = fds.(!next mod conns) in
      write_all fd (Printf.sprintf {|{"id":"%s",|} r.req.id) 0;
      write_all fd r.req.body 0;
      r.sent <- now () -. (t0 +. r.req.due);
      incr outstanding;
      incr next;
      poll 0.0
    end
    else if !next < n then poll (Float.max 0.0 (t0 +. requests.(!next).due -. t))
    else poll 0.05
  done;
  Array.iter Unix.close fds;
  replies

(* ---- serve_mixed -------------------------------------------------- *)

(* Request bodies rendered once per instance (the inline documents run to
   tens of kilobytes) and shared by every request for it; the body ends
   the line.  [line_for] prepends an id. *)
let body_cache : (string, string) Hashtbl.t = Hashtbl.create 64

let body_for (i : I.instance) =
  match Hashtbl.find_opt body_cache i.I.label with
  | Some b -> b
  | None ->
    let full = I.request_line ~id:"" i in
    let prefix = {|{"id":"",|} in
    let b =
      String.sub full (String.length prefix) (String.length full - String.length prefix)
      ^ "\n"
    in
    Hashtbl.replace body_cache i.I.label b;
    b

let line_for ~id i =
  let b = body_for i in
  Printf.sprintf {|{"id":"%s",%s|} id (String.sub b 0 (String.length b - 1))

(* One fixed-interval step: [rate] requests per second for [seconds].  In
   every block of ten consecutive requests one, at a seeded position, is
   the next fresh key of the cold pool and nine are hot-set repeats, which
   cycle through the hot set in a seeded order reshuffled every round. *)
let step ~rng ~name ~rate ~seconds ~(hot : I.instance array)
    ~(cold : I.instance array) ~cold_next =
  let n = int_of_float (float_of_int rate *. seconds) in
  let cold_slot = ref 0 in
  let hot_order = Array.init (Array.length hot) Fun.id in
  let hot_next = ref (Array.length hot) in
  Array.init n (fun k ->
      if k mod 10 = 0 then cold_slot := Qcp_util.Rng.int rng 10;
      let is_hot = k mod 10 <> !cold_slot in
      let inst =
        if is_hot then begin
          if !hot_next = Array.length hot then begin
            Qcp_util.Rng.shuffle_in_place rng hot_order;
            hot_next := 0
          end;
          let h = hot.(hot_order.(!hot_next)) in
          incr hot_next;
          h
        end
        else begin
          if !cold_next >= Array.length cold then
            failwith "perfbench: the cold pool ran out of fresh keys";
          let c = cold.(!cold_next) in
          incr cold_next;
          c
        end
      in
      let id = Printf.sprintf "%s-%d" name k in
      {
        id;
        body = body_for inst;
        due = float_of_int k /. float_of_int rate;
        hot = is_hot;
        inst;
      })

(* The ladder: every rate runs in every run, each for a share of the run's
   seconds; 200 req/s is the reference rate whose latencies are reported.
   The reference step runs last and longest: by then the cold keys of the
   earlier steps have filled the result cache, so it measures hits and
   misses while entries are being evicted.  Each step waits for its last
   reply before the next starts, so no backlog carries over. *)
let ladder = [ (100, 0.1); (400, 0.15); (800, 0.15); (200, 0.5) ]
let reference_rate = 200
let tail_limit = 0.250
let max_growth = 64.0

(* A step passes when no request failed, the all-request tail stays within
   [tail_limit] and the backlog did not grow: the mean number of requests
   in flight over the step's last quarter exceeds its first quarter's by
   at most four daemon batches (64).  One heavy solve near the end of a
   step briefly queues a few batches' worth; an overloaded daemon's queue
   grows by hundreds within a step and soon answers "overloaded". *)
let step_verdict (replies : reply array) =
  let n = Array.length replies in
  let failed = Array.exists (fun r -> r.status <> "ok") replies in
  let tail =
    Stats.tail_or_max (Array.to_list (Array.map (fun r -> r.latency) replies))
  in
  let mean a b =
    if b <= a then 0.0
    else begin
      let s = ref 0 in
      for i = a to b - 1 do
        s := !s + replies.(i).backlog
      done;
      float_of_int !s /. float_of_int (b - a)
    end
  in
  let growth = mean (3 * n / 4) n -. mean 0 (n / 4) in
  let ok = (not failed) && tail.Stats.value <= tail_limit && growth <= max_growth in
  (ok, tail, growth, failed)

type mixed = {
  setups : float list;
  warm : (I.instance * string) array;  (** hot instance, first cold result *)
  steps : (int * reply array) list;
  stats_before : string;  (** daemon stats just before the reference step *)
  stats_after : string;  (** ... and just after it *)
  rss_mb : float;
  cold_used : int;
}

(* Set up (spawn, wait until listening, warm the hot set) three times —
   only the last daemon stays — then climb the ladder. *)
let run_mixed ~qcp ~dir ~seed ~seconds ~started =
  let hot = Array.of_list (I.hot_set ~seed) in
  let cold = I.cold_pool ~seed in
  let setup () =
    let d = spawn ~qcp ~dir in
    let warm =
      Array.map
        (fun i -> (i, result_bytes (roundtrip d (line_for ~id:"warm" i))))
        hot
    in
    (d, warm)
  in
  let rec setups k acc first_start =
    let t = now () in
    let t0 = Option.value first_start ~default:t in
    let d, warm = setup () in
    let acc = (now () -. t0) :: acc in
    if k = 1 then (d, warm, List.rev acc)
    else begin
      stop d;
      setups (k - 1) acc None
    end
  in
  let d, warm, setups = setups 3 [] (Some started) in
  let rng = Qcp_util.Rng.create seed in
  let cold_next = ref 0 in
  let stats () = result_bytes (roundtrip d {|{"id":"s","op":"stats"}|}) in
  let before = ref "" and after = ref "" in
  let steps =
    List.map
      (fun (rate, share) ->
        let reqs =
          step ~rng
            ~name:(Printf.sprintf "r%d" rate)
            ~rate ~seconds:(seconds *. share) ~hot ~cold ~cold_next
        in
        if rate = reference_rate then before := stats ();
        let replies = run_schedule d reqs in
        if rate = reference_rate then after := stats ();
        (rate, replies))
      ladder
  in
  let rss_mb = peak_rss_mb d in
  stop d;
  {
    setups;
    warm;
    steps;
    stats_before = !before;
    stats_after = !after;
    rss_mb;
    cold_used = !cold_next;
  }

(* Output checks.  Every hot reply must be a cache hit whose result bytes
   equal the warm-up (first cold) response for its key; the warm-up
   results and a seeded sample of cold replies must match an in-process
   placement of the same instance — runtime and boundary placements — and
   that placement must pass the structural check. *)
let json_field k text =
  match Json.parse text with Ok j -> Json.member k j | Error _ -> None

let int_array j =
  match Json.to_list j with
  | Some l -> Some (Array.of_list (List.filter_map Json.to_int l))
  | None -> None

let check_against_library (i : I.instance) result =
  match Qcp.Placer.place i.I.options i.I.env i.I.circuit with
  | Qcp.Placer.Unplaceable m -> Some (i.I.label ^ ": unplaceable in-process: " ^ m)
  | Qcp.Placer.Placed p -> (
    let runtime = Option.bind (json_field "runtime" result) Json.to_float in
    let first = Option.bind (json_field "initial_placement" result) int_array in
    let last = Option.bind (json_field "final_placement" result) int_array in
    if runtime <> Some (Qcp.Placer.runtime p) then
      Some (i.I.label ^ ": served runtime differs from the library's")
    else if first <> Qcp.Placer.initial_placement p
            || last <> Qcp.Placer.final_placement p
    then Some (i.I.label ^ ": served placements differ from the library's")
    else
      match Check.program ~same_order:(i.I.options.Qcp.Options.window = None) p with
      | Ok () -> None
      | Error e -> Some (i.I.label ^ ": " ^ e))

let cold_sample = 16

let check_mixed ~seed m =
  let warm_of = Hashtbl.create 16 in
  Array.iter (fun ((i : I.instance), r) -> Hashtbl.replace warm_of i.I.label r) m.warm;
  let hot_failures =
    List.concat_map
      (fun (_, replies) ->
        Array.to_list replies
        |> List.filter_map (fun r ->
               if (not r.req.hot) || r.status <> "ok" then None
               else if not r.cached then Some (r.req.id ^ ": hot request missed the cache")
               else if Some r.result <> Hashtbl.find_opt warm_of r.req.inst.I.label
               then Some (r.req.id ^ ": hot result differs from its first cold result")
               else None))
      m.steps
  in
  let warm_failures =
    Array.to_list m.warm
    |> List.filter_map (fun (i, r) -> check_against_library i r)
  in
  let reference = List.assoc reference_rate m.steps in
  let colds =
    Array.of_list
      (List.filter (fun r -> (not r.req.hot) && r.status = "ok") (Array.to_list reference))
  in
  Qcp_util.Rng.shuffle_in_place (Qcp_util.Rng.create (seed + 11)) colds;
  let sample = Array.sub colds 0 (min cold_sample (Array.length colds)) in
  let cold_failures =
    Array.to_list sample
    |> List.filter_map (fun r -> check_against_library r.req.inst r.result)
  in
  (hot_failures @ warm_failures @ cold_failures, Array.length m.warm + Array.length sample)
