(* The serving layer: wire protocol, content-hash request keys, the exact
   result cache and the batching engine.

   The central contract under test is bit-identity: a cache hit must
   return byte-for-byte the response body a cold solve of the same
   request produced, at any [jobs] value, for any interleaving of
   requests — the daemon is a performance layer, never a semantic one. *)

module Json = Qcp_util.Json
module Rng = Qcp_util.Rng
module Protocol = Qcp_serve.Protocol
module Server = Qcp_serve.Server
module Engine = Server.Engine
module Result_cache = Qcp_serve.Result_cache
module Client = Qcp_serve.Client

(* ------------------------------------------------------------------ *)
(* JSON round trips                                                    *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let cases =
    [
      "null";
      "true";
      "[1,2,3]";
      "{\"a\":1,\"b\":[true,null],\"c\":\"x\"}";
      "{\"nested\":{\"deep\":{\"deeper\":[{\"k\":-1.5}]}}}";
      "\"\\u00e9\\n\\t\\\"\\\\\"";
      "-0.125";
      "1e3";
    ]
  in
  List.iter
    (fun text ->
      match Json.parse text with
      | Error msg -> Alcotest.failf "%s: parse error %s" text msg
      | Ok v -> (
        let printed = Json.to_string v in
        match Json.parse printed with
        | Error msg -> Alcotest.failf "%s: reparse error %s" printed msg
        | Ok v' ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: print/parse fixpoint" text)
            true (v = v')))
    cases;
  List.iter
    (fun bad ->
      match Json.parse bad with
      | Ok _ -> Alcotest.failf "%S: should not parse" bad
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated"; "nan" ]

let test_json_numbers () =
  (* Integral values print without a fractional part (stable counters);
     non-finite values cannot arise from [parse] but must print as null
     rather than invalid JSON. *)
  Alcotest.(check string) "int" "42" (Json.to_string (Json.Num 42.0));
  Alcotest.(check string) "neg" "-7" (Json.to_string (Json.Num (-7.0)));
  Alcotest.(check string) "frac" "0.5" (Json.to_string (Json.Num 0.5));
  Alcotest.(check string) "inf is null" "null"
    (Json.to_string (Json.Num infinity));
  Alcotest.(check string) "nan is null" "null"
    (Json.to_string (Json.Num Float.nan))

(* ------------------------------------------------------------------ *)
(* Content-hash keys                                                   *)
(* ------------------------------------------------------------------ *)

let place_of_line line =
  match (Protocol.parse_line line).Protocol.request with
  | Ok (Protocol.Place p) -> p
  | Ok _ -> Alcotest.failf "%s: not a place request" line
  | Error msg -> Alcotest.failf "%s: %s" line msg

(* A random request line over the option surface the protocol accepts.
   [mutate] (0 = none) flips exactly one dimension, so the derived line
   denotes a different instance. *)
let request_line rng ~mutate =
  let pick_with m base alts =
    if mutate = m then List.nth alts (Rng.int rng (List.length alts)) else base
  in
  let env = pick_with 1 "trans-crotonic" [ "acetyl-chloride"; "chain:7" ] in
  let circuit = pick_with 2 "qft6" [ "phaseest"; "qec3" ] in
  let threshold = if mutate = 3 then 150.0 else 100.0 in
  let k = if mutate = 4 then 25 else 100 in
  let lookahead = mutate <> 5 in
  let fine_tune = if mutate = 6 then 1 else 3 in
  let router = pick_with 7 "bisect" [ "weighted"; "token"; "odd-even" ] in
  let commute = mutate = 8 in
  let vcycle = if mutate = 9 then 2 else 0 in
  let window = if mutate = 10 then ",\"window\":64" else "" in
  Printf.sprintf
    "{\"op\":\"place\",\"env\":\"%s\",\"circuit\":\"%s\",\"options\":{\"threshold\":%g,\"monomorphisms\":%d,\"lookahead\":%b,\"fine_tune\":%d,\"router\":\"%s\",\"commute\":%b,\"vcycle\":%d%s}}"
    env circuit threshold k lookahead fine_tune router commute vcycle window

let test_keys_collide_iff_equal () =
  for seed = 1 to 50 do
    let rng = Rng.create seed in
    let base = request_line rng ~mutate:0 in
    let p1 = place_of_line base and p2 = place_of_line base in
    Alcotest.(check string)
      (Printf.sprintf "seed %d: equal requests, equal keys" seed)
      p1.Protocol.key p2.Protocol.key;
    let mutate = 1 + Rng.int rng 10 in
    let p3 = place_of_line (request_line rng ~mutate) in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: mutation %d changes the key" seed mutate)
      true
      (p1.Protocol.key <> p3.Protocol.key)
  done;
  (* Spec spelling must not matter: a named environment and its inline
     .env text denote the same instance, hence the same key. *)
  let named = place_of_line (request_line (Rng.create 0) ~mutate:0) in
  let inline_env =
    String.concat "\\n"
      (String.split_on_char '\n'
         (Qcp_env.Env_format.print Qcp_env.Molecules.trans_crotonic_acid))
  in
  let inline =
    place_of_line
      (Printf.sprintf
         "{\"op\":\"place\",\"env\":\"%s\",\"circuit\":\"qft6\",\"options\":{\"threshold\":100,\"monomorphisms\":100,\"fine_tune\":3}}"
         inline_env)
  in
  Alcotest.(check string) "named and inline env share a key"
    named.Protocol.key inline.Protocol.key

let test_key_hash_format () =
  let h = Protocol.key_hash "qcp" in
  Alcotest.(check int) "16 hex chars" 16 (String.length h);
  String.iter
    (fun c ->
      Alcotest.(check bool) "hex digit" true
        ((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')))
    h;
  Alcotest.(check bool) "distinct inputs, distinct digests" true
    (Protocol.key_hash "a" <> Protocol.key_hash "b");
  (* FNV-1a 64 reference vectors: the digest is the response's "key"
     field, so clients may compare it across daemon versions. *)
  List.iter
    (fun (input, digest) ->
      Alcotest.(check string)
        (Printf.sprintf "FNV-1a 64 of %S" input)
        digest (Protocol.key_hash input))
    [
      ("", "cbf29ce484222325");
      ("a", "af63dc4c8601ec8c");
      ("foobar", "85944171f73967e8");
    ]

(* The engine builds keys from canonical texts memoized on its intern
   tables; they must equal the reference [Protocol.key] of the resolved
   values byte for byte, whether the spec was resolved just now, served
   from the table, or resolved again after FIFO eviction. *)
let test_memo_keys_match_reference () =
  let eng = Engine.create Server.default_config in
  let place line =
    match (Engine.parse_line eng line).Protocol.request with
    | Ok (Protocol.Place p) ->
      Alcotest.(check string)
        (Printf.sprintf "%s: memoized key = Protocol.key" line)
        (Protocol.key p.Protocol.options p.Protocol.env p.Protocol.circuit)
        p.Protocol.key;
      p.Protocol.key
    | Ok _ -> Alcotest.failf "%s: not a place request" line
    | Error msg -> Alcotest.failf "%s: %s" line msg
  in
  let json_line env circuit =
    Json.to_string
      (Json.Obj
         [
           ("op", Json.Str "place");
           ("env", Json.Str env);
           ("circuit", Json.Str circuit);
           ("options", Json.Obj [ ("threshold", Json.Num 100.0) ]);
         ])
  in
  (* Named, generator and inline specs, each twice (resolve, then hit). *)
  let inline_env =
    Qcp_env.Env_format.print Qcp_env.Molecules.trans_crotonic_acid
  in
  let named = json_line "trans-crotonic" "qft6" in
  List.iter
    (fun line ->
      let first = place line in
      Alcotest.(check string) "repeat, same key" first (place line))
    [
      named;
      json_line "chain:7" "qec5";
      json_line "grid:3:3" "aqft9";
      json_line inline_env "qft6";
      json_line "trans-crotonic"
        (Qcp_circuit.Qc_format.print (Option.get (Qcp_circuit.Catalog.by_name "qec3")));
    ];
  Alcotest.(check string) "named and inline env share a key" (place named)
    (place (json_line inline_env "qft6"));
  (* Two spellings of one circuit: different intern entries, one key. *)
  let doc = "qubits 3\nzz 0 1 90\ncnot 1 2\n" in
  let reformatted = "# same circuit\nqubits   3\n\nzz 0 1 90  # coupling\n\tcnot 1 2\n" in
  Alcotest.(check string) "reformatted inline docs share a key"
    (place (json_line "trans-crotonic" doc))
    (place (json_line "trans-crotonic" reformatted));
  (* More distinct inline circuits than the 128-entry table holds, then
     the first again: it is resolved afresh after its eviction. *)
  let distinct i = Printf.sprintf "qubits 3\nzz 0 1 90\nrz 2 %d\n" (i + 1) in
  let first = place (json_line "trans-crotonic" (distinct 0)) in
  for i = 1 to 140 do
    ignore (place (json_line "trans-crotonic" (distinct i)) : string)
  done;
  Alcotest.(check string) "re-sent after eviction, same key" first
    (place (json_line "trans-crotonic" (distinct 0)))

(* ------------------------------------------------------------------ *)
(* Result cache                                                        *)
(* ------------------------------------------------------------------ *)

let test_result_cache_lru () =
  let c = Result_cache.create 3 in
  Result_cache.add c "a" "1";
  Result_cache.add c "b" "2";
  Result_cache.add c "c" "3";
  (* Touch "a": "b" becomes the least recently used. *)
  Alcotest.(check (option string)) "hit a" (Some "1") (Result_cache.find c "a");
  Result_cache.add c "d" "4";
  Alcotest.(check (option string)) "b evicted" None (Result_cache.find c "b");
  Alcotest.(check (option string)) "a survives" (Some "1")
    (Result_cache.find c "a");
  Alcotest.(check (option string)) "d present" (Some "4")
    (Result_cache.find c "d");
  Alcotest.(check int) "bounded" 3 (Result_cache.length c);
  Alcotest.(check int) "one eviction" 1 (Result_cache.evictions c);
  let disabled = Result_cache.create 0 in
  Result_cache.add disabled "a" "1";
  Alcotest.(check (option string)) "cap 0 disables" None
    (Result_cache.find disabled "a")

(* ------------------------------------------------------------------ *)
(* Engine: hits bit-identical to cold solves                           *)
(* ------------------------------------------------------------------ *)

let engine ?(cache_cap = 64) ~jobs () =
  Engine.create
    { Server.default_config with Server.jobs; cache_cap }

let job_of_line eng ?(id = "t") line =
  let envelope = Engine.parse_line eng line in
  match envelope.Protocol.request with
  | Ok (Protocol.Place p) ->
    Engine.make_job eng ~id ~arrival:(Qcp_util.Clock.now ()) p
  | Ok _ -> Alcotest.failf "%s: not a place request" line
  | Error msg -> Alcotest.failf "%s: %s" line msg

(* The stable tail of a response line: everything from "result": on.
   (The prefix carries per-delivery fields: queue wait, wall time.) *)
let result_part response =
  match Helpers.substring_index response "\"result\":" with
  | Some i -> String.sub response i (String.length response - i)
  | None -> Alcotest.failf "no result in %s" response

(* For comparing *separate* solves of one instance: the placement is
   bit-identical but [scoring_seconds] is wall clock, so it is cut out.
   (Cache-hit comparisons use [result_part] unstripped — hits return the
   stored bytes, wall field included.) *)
let strip_wall s =
  match Helpers.substring_index s ",\"scoring_seconds\":" with
  | None -> s
  | Some i ->
    let j = String.index_from s i '}' in
    String.sub s 0 i ^ String.sub s j (String.length s - j)

let member_exn name response =
  match Json.parse response with
  | Error msg -> Alcotest.failf "%s: %s" response msg
  | Ok json -> (
    match Json.member name json with
    | Some v -> v
    | None -> Alcotest.failf "no %S in %s" name response)

let line_qft6 =
  "{\"op\":\"place\",\"env\":\"trans-crotonic\",\"circuit\":\"qft6\",\"options\":{\"threshold\":100}}"

let line_phaseest =
  "{\"op\":\"place\",\"env\":\"trans-crotonic\",\"circuit\":\"phaseest\",\"options\":{\"threshold\":100}}"

let test_hit_bit_identical () =
  (* The acceptance criterion, at both batch parallelism levels: solve
     cold, ask again, and the hit's result bytes must equal the cold
     solve's exactly. *)
  List.iter
    (fun jobs ->
      let eng = engine ~jobs () in
      let dispatch line =
        match
          Engine.dispatch eng ~now:(Qcp_util.Clock.now ())
            [ job_of_line eng line ]
        with
        | [ r ] -> r
        | rs -> Alcotest.failf "expected 1 response, got %d" (List.length rs)
      in
      let cold = dispatch line_qft6 in
      let hit = dispatch line_qft6 in
      Alcotest.(check bool)
        (Printf.sprintf "jobs %d: cold is uncached" jobs)
        true
        (member_exn "cached" cold = Json.Bool false);
      Alcotest.(check bool)
        (Printf.sprintf "jobs %d: repeat is cached" jobs)
        true
        (member_exn "cached" hit = Json.Bool true);
      Alcotest.(check string)
        (Printf.sprintf "jobs %d: hit result bit-identical" jobs)
        (result_part cold) (result_part hit);
      Alcotest.(check int)
        (Printf.sprintf "jobs %d: one entry" jobs)
        1
        (Result_cache.length (Engine.cache eng)))
    [ 0; 2 ];
  (* And across parallelism levels: the daemon may answer a jobs=2
     request from a jobs=0 solve, so the results themselves must agree. *)
  let result_at jobs =
    let eng = engine ~jobs () in
    strip_wall
      (result_part
         (List.hd
            (Engine.dispatch eng ~now:(Qcp_util.Clock.now ())
               [ job_of_line eng line_qft6 ])))
  in
  Alcotest.(check string) "jobs 0 and 2 solves agree" (result_at 0)
    (result_at 2)

let test_batch_dedup () =
  let eng = engine ~jobs:0 () in
  let jobs =
    [
      job_of_line eng ~id:"a" line_qft6;
      job_of_line eng ~id:"b" line_phaseest;
      job_of_line eng ~id:"c" line_qft6;
    ]
  in
  match Engine.dispatch eng ~now:(Qcp_util.Clock.now ()) jobs with
  | [ ra; rb; rc ] ->
    Alcotest.(check bool) "first occurrence solves" true
      (member_exn "cached" ra = Json.Bool false);
    Alcotest.(check bool) "duplicate shares the solve" true
      (member_exn "cached" rc = Json.Bool true);
    Alcotest.(check string) "shared result identical" (result_part ra)
      (result_part rc);
    Alcotest.(check bool) "ids echoed" true
      (member_exn "id" ra = Json.Str "a"
      && member_exn "id" rb = Json.Str "b"
      && member_exn "id" rc = Json.Str "c");
    (* Two distinct keys solved; the duplicate neither solved nor probed
       the cache as a hit (it arrived before the solve completed). *)
    Alcotest.(check int) "two entries" 2 (Result_cache.length (Engine.cache eng))
  | rs -> Alcotest.failf "expected 3 responses, got %d" (List.length rs)

let test_concurrent_clients_deterministic () =
  (* Two daemons fed the same requests in different interleavings (one
     batch vs. request-at-a-time, different order) must report the same
     result for every request — placement results depend only on the
     request content, never on arrival order or batch shape. *)
  let lines = [ line_qft6; line_phaseest; line_qft6 ] in
  let results_of responses =
    List.map
      (fun r -> (Json.to_string (member_exn "id" r), strip_wall (result_part r)))
      responses
  in
  let eng_batch = engine ~jobs:2 () in
  let batch =
    Engine.dispatch eng_batch ~now:(Qcp_util.Clock.now ())
      (List.mapi (fun i l -> job_of_line eng_batch ~id:(string_of_int i) l) lines)
  in
  let eng_seq = engine ~jobs:0 () in
  let seq =
    (* Reverse arrival order, one dispatch per request. *)
    List.rev
      (List.mapi
         (fun i l ->
           List.hd
             (Engine.dispatch eng_seq ~now:(Qcp_util.Clock.now ())
                [ job_of_line eng_seq ~id:(string_of_int (2 - i)) l ]))
         (List.rev lines))
  in
  List.iter2
    (fun (id_b, result_b) (id_s, result_s) ->
      Alcotest.(check string) "same request" id_b id_s;
      Alcotest.(check string)
        (Printf.sprintf "request %s: same result at any interleaving" id_b)
        result_b result_s)
    (List.sort compare (results_of batch))
    (List.sort compare (results_of seq))

let test_timeout_response () =
  let eng = engine ~jobs:0 () in
  let line =
    "{\"id\":\"t\",\"op\":\"place\",\"env\":\"trans-crotonic\",\"circuit\":\"phaseest\",\"deadline\":0}"
  in
  match Engine.dispatch eng ~now:(Qcp_util.Clock.now ()) [ job_of_line eng line ] with
  | [ r ] ->
    Alcotest.(check bool) "status timeout" true
      (member_exn "status" r = Json.Str "timeout");
    Alcotest.(check bool) "nothing cached" true
      (Result_cache.length (Engine.cache eng) = 0);
    (* The same request with budget must still place (and not be poisoned
       by the timed-out attempt). *)
    let ok =
      List.hd
        (Engine.dispatch eng ~now:(Qcp_util.Clock.now ())
           [ job_of_line eng line_phaseest ])
    in
    Alcotest.(check bool) "subsequent solve ok" true
      (member_exn "status" ok = Json.Str "ok")
  | rs -> Alcotest.failf "expected 1 response, got %d" (List.length rs)

let equal_qubit_line =
  "{\"id\":\"x\",\"op\":\"place\",\"env\":\"trans-crotonic\",\"circuit\":\"qubits \
   3\\ncnot 1 1\\n\",\"options\":{\"threshold\":100}}"

let test_request_validation () =
  let eng = engine ~jobs:0 () in
  let expect_error line needle =
    match (Engine.parse_line eng line).Protocol.request with
    | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%s mentions %s" line needle)
        true
        (Helpers.contains ~needle msg)
    | Ok _ -> Alcotest.failf "%s: should be rejected" line
  in
  expect_error "{\"op\":\"place\",\"circuit\":\"qft6\"}" "env";
  expect_error "{\"op\":\"place\",\"env\":\"nope\",\"circuit\":\"qft6\"}"
    "unknown environment";
  expect_error
    "{\"op\":\"place\",\"env\":\"chain:6\",\"circuit\":\"qft6\",\"options\":{\"jobs\":4}}"
    "server-side";
  expect_error
    "{\"op\":\"place\",\"env\":\"chain:6\",\"circuit\":\"qft6\",\"options\":{\"spill\":\"x\"}}"
    "spill";
  expect_error
    "{\"op\":\"place\",\"env\":\"chain:6\",\"circuit\":\"qft6\",\"options\":{\"typo\":1}}"
    "unknown option";
  (* A two-qubit gate on one qubit used to escape the circuit parser as
     [Invalid_argument] and kill the daemon. *)
  expect_error equal_qubit_line "line 2";
  expect_error "{\"op\":\"dance\"}" "unknown op";
  expect_error "not json" "bad JSON"

(* Generator specs build a dense delay matrix, so sizes past the vertex
   cap are refused before anything of that size is allocated — including
   products that would wrap past [max_int]. *)
let test_generator_cap () =
  let oversized =
    [
      "grid:100000:100000";
      "chain:1025";
      "grid:33:32";
      "grid:1:1025";
      Printf.sprintf "chain:%d" max_int;
      Printf.sprintf "grid:%d:4" (max_int / 2);
      "grid:3037000500:3037000500";
    ]
  in
  List.iter
    (fun spec ->
      let before = Gc.minor_words () in
      (match Protocol.resolve_env spec with
      | Ok _ -> Alcotest.failf "%s: should be rejected" spec
      | Error msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: error names the cap" spec)
          true
          (Helpers.contains ~needle:"capped" msg));
      (* Building even the smallest refused size, 1,025 vertices, takes
         over 10^6 words. *)
      Alcotest.(check bool)
        (Printf.sprintf "%s: refused before allocating" spec)
        true
        (Gc.minor_words () -. before < 10_000.0))
    oversized;
  let eng = engine ~jobs:0 () in
  List.iter
    (fun spec ->
      let line =
        Printf.sprintf
          "{\"id\":\"big\",\"op\":\"place\",\"env\":\"%s\",\"circuit\":\"qft6\"}"
          spec
      in
      match Engine.parse_line eng line with
      | { Protocol.id = "big"; request = Error _ } -> ()
      | _ -> Alcotest.failf "%s: expected an error envelope" spec)
    oversized;
  (* The bound itself is servable. *)
  List.iter
    (fun spec ->
      match Protocol.resolve_env spec with
      | Ok (env, _) ->
        Alcotest.(check int) (spec ^ " size") Protocol.max_generated_vertices
          (Qcp_env.Environment.size env)
      | Error msg -> Alcotest.failf "%s: %s" spec msg)
    [ "chain:1024"; "grid:32:32" ]

(* ------------------------------------------------------------------ *)
(* Hostile request lines                                               *)
(* ------------------------------------------------------------------ *)

let valid_place_lines =
  [
    line_qft6;
    "{\"id\":\"x\",\"op\":\"place\",\"env\":\"grid:3:3\",\"circuit\":\"aqft9\",\"deadline\":5,\"telemetry\":true,\"options\":{\"threshold\":100,\"monomorphisms\":8,\"lookahead\":false,\"router\":\"token\",\"reuse_cap\":2,\"window\":16,\"strategies\":[\"greedy\"]}}";
    "{\"op\":\"place\",\"env\":\"name e\\nnuclei a b\\ncoupling a b 10\\n\",\"circuit\":\"qubits 2\\ncnot 0 1\\n\"}";
  ]

(* One field of a valid place line replaced by a value of every other
   JSON type. *)
let wrong_type_lines =
  let values =
    [ Json.Null; Json.Bool true; Json.Num 3.5; Json.Str "x"; Json.Arr [ Json.Num 1.0 ];
      Json.Obj [ ("k", Json.Num 1.0) ] ]
  in
  let replace fields name v =
    List.map (fun (n, old) -> (n, if n = name then v else old)) fields
  in
  List.concat_map
    (fun line ->
      match Json.parse line with
      | Ok (Json.Obj fields) ->
        let options =
          match List.assoc_opt "options" fields with
          | Some (Json.Obj o) -> o
          | _ -> []
        in
        List.concat_map
          (fun v ->
            List.map (fun (name, _) -> Json.to_string (Json.Obj (replace fields name v))) fields
            @ List.map
                (fun (name, _) ->
                  Json.to_string
                    (Json.Obj (replace fields "options" (Json.Obj (replace options name v)))))
                options)
          values
      | _ -> [])
    valid_place_lines

(* Oversized, overflowing and malformed generator specs. *)
let generator_spec_lines =
  List.map
    (fun spec ->
      Printf.sprintf "{\"op\":\"place\",\"env\":\"%s\",\"circuit\":\"qft6\"}" spec)
    [ "grid:100000:100000"; "chain:99999999999999999999"; "grid:-1:5"; "chain:0";
      "grid:4611686018427387903:2"; "grid:2:2:2"; "chain:" ]

(* Inline .qc documents whose last gate line is mutated: equal, negative
   or out-of-range qubits, missing or non-numeric angles, unknown
   mnemonics. *)
let mutated_circuit_lines =
  let open QCheck.Gen in
  let gate =
    oneofl [ "cnot"; "zz"; "cphase"; "swap"; "u2 g 1"; "rx"; "h"; "frob" ]
  in
  let qubit = oneofl [ "0"; "1"; "2"; "3"; "-1"; "x" ] in
  let angle = oneofl [ ""; " 90"; " -45.5"; " x" ] in
  map
    (fun (g, (a, b, rest)) ->
      Printf.sprintf
        "{\"id\":\"x\",\"op\":\"place\",\"env\":\"trans-crotonic\",\"circuit\":\"qubits \
         3\\ncnot 0 1\\n%s %s %s%s\\n\",\"options\":{\"threshold\":100}}"
        g a b rest)
    (pair gate (triple qubit qubit angle))

(* [Engine.parse_line] — the memoized path the daemon runs on every
   line — answers any input with an envelope; it never raises. *)
let qcheck_parse_line_total =
  let eng = engine ~jobs:0 () in
  let truncations =
    List.concat_map
      (fun l -> List.init (String.length l) (fun n -> String.sub l 0 n))
      valid_place_lines
  in
  let pick l = QCheck.Gen.oneofl l in
  let gen =
    QCheck.Gen.oneof
      [
        QCheck.Gen.string_size ~gen:QCheck.Gen.char (QCheck.Gen.int_bound 64);
        pick truncations;
        pick wrong_type_lines;
        pick generator_spec_lines;
        mutated_circuit_lines;
      ]
  in
  QCheck.Test.make ~name:"Engine.parse_line answers every line with an envelope"
    ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%S") gen)
    (fun line ->
      match Engine.parse_line eng line with
      | { Protocol.request = Ok _ | Error _; _ } -> true)

let test_parse_line_truncations () =
  let eng = engine ~jobs:0 () in
  List.iter
    (fun line ->
      for n = 0 to String.length line - 1 do
        match (Engine.parse_line eng (String.sub line 0 n)).Protocol.request with
        | Error _ -> ()
        | Ok _ -> Alcotest.failf "%S: a truncated line parsed" (String.sub line 0 n)
      done)
    valid_place_lines

(* ------------------------------------------------------------------ *)
(* Socket daemon smoke                                                 *)
(* ------------------------------------------------------------------ *)

let temp_socket name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "qcp-%s-%d.sock" name (Unix.getpid ()))

let with_daemon name config f =
  let path = temp_socket name in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let config =
    { config with Server.socket_path = Some path; install_signals = false }
  in
  let daemon = Domain.spawn (fun () -> Server.serve config) in
  Fun.protect ~finally:(fun () -> Domain.join daemon) @@ fun () ->
  let client = Client.connect (Client.Unix_socket path) in
  Fun.protect ~finally:(fun () -> Client.close client) @@ fun () -> f client

let test_socket_roundtrip () =
  with_daemon "smoke" Server.default_config @@ fun client ->
  let ping = Client.request client "{\"id\":\"p\",\"op\":\"ping\"}" in
  Alcotest.(check bool) "ping ok" true
    (member_exn "status" ping = Json.Str "ok");
  let bad = Client.request client equal_qubit_line in
  Alcotest.(check bool) "equal-qubit gate: error envelope" true
    (member_exn "status" bad = Json.Str "error");
  let ping = Client.request client "{\"id\":\"p\",\"op\":\"ping\"}" in
  Alcotest.(check bool) "ping ok after the error" true
    (member_exn "status" ping = Json.Str "ok");
  let cold = Client.request client line_qft6 in
  let hit = Client.request client line_qft6 in
  Alcotest.(check bool) "cold ok" true
    (member_exn "status" cold = Json.Str "ok");
  Alcotest.(check bool) "repeat cached" true
    (member_exn "cached" hit = Json.Bool true);
  Alcotest.(check string) "hit bytes identical over the wire"
    (result_part cold) (result_part hit);
  let stats = Client.request client "{\"op\":\"stats\"}" in
  let cache_stats =
    Option.get (Json.member "cache" (member_exn "result" stats))
  in
  Alcotest.(check (option Alcotest.int)) "one cache hit" (Some 1)
    (Option.bind (Json.member "hits" cache_stats) Json.to_int);
  let bye = Client.request client "{\"op\":\"shutdown\"}" in
  Alcotest.(check bool) "shutdown acknowledged" true
    (member_exn "status" bye = Json.Str "ok")

let test_socket_overload () =
  with_daemon "overload"
    { Server.default_config with Server.queue_cap = 0 }
  @@ fun client ->
  let r = Client.request client line_qft6 in
  Alcotest.(check bool) "overloaded" true
    (member_exn "status" r = Json.Str "overloaded");
  ignore (Client.request client "{\"op\":\"shutdown\"}" : string)

let suite =
  [
    Alcotest.test_case "json print/parse fixpoint" `Quick test_json_roundtrip;
    Alcotest.test_case "json number rendering" `Quick test_json_numbers;
    Alcotest.test_case "keys collide iff equal over 50 seeds" `Quick
      test_keys_collide_iff_equal;
    Alcotest.test_case "key digest format" `Quick test_key_hash_format;
    Alcotest.test_case "result cache LRU deterministic" `Quick
      test_result_cache_lru;
    Alcotest.test_case "hit bit-identical to cold solve (jobs 0/2)" `Quick
      test_hit_bit_identical;
    Alcotest.test_case "batch dedup solves once" `Quick test_batch_dedup;
    Alcotest.test_case "interleaving never changes results" `Quick
      test_concurrent_clients_deterministic;
    Alcotest.test_case "deadline expiry yields timeout" `Quick
      test_timeout_response;
    Alcotest.test_case "request validation" `Quick test_request_validation;
    Alcotest.test_case "socket daemon round trip" `Quick test_socket_roundtrip;
    Alcotest.test_case "admission control overload" `Quick test_socket_overload;
    Alcotest.test_case "memoized keys equal Protocol.key" `Quick
      test_memo_keys_match_reference;
    Alcotest.test_case "generator specs capped before allocation" `Quick
      test_generator_cap;
    Alcotest.test_case "every truncated place line is an error" `Quick
      test_parse_line_truncations;
    QCheck_alcotest.to_alcotest qcheck_parse_line_total;
  ]
