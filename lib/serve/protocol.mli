(** The [qcp serve] wire protocol: line-delimited JSON requests and
    responses, plus the content-hash request keys behind the daemon's
    exact result cache.

    One request per line, one response line per request, in order:

    {v
    {"id": "r1", "op": "place", "env": "trans-crotonic",
     "circuit": "phaseest", "options": {"threshold": 100}}
    {"id": "r1", "status": "ok", "cached": false, "key": "f00..", ,
     "result": {"runtime": 6900, ...}}
    v}

    [env] and [circuit] are resolved like the CLI's arguments — molecule /
    catalog / library names and the [chain:<n>] / [grid:<r>:<c>]
    generators — except that file paths are rejected: a serving daemon
    must not read paths named by remote clients.  Multi-line payloads
    (values containing ['\n']) are instead parsed as inline [.env] /
    [.qc] documents, so clients can submit circuits the server has never
    seen.

    {b Content-hash keys.}  A place request's cache key is the canonical
    serialization of its options ({!Qcp.Options.canonical}), environment
    ({!Qcp_env.Env_format.print} of the {e resolved} value) and circuit
    ({!Qcp_circuit.Qc_format.print}).  Resolution normalizes formatting,
    comments and field order, so two requests get the same key exactly
    when they denote structurally equal instances — and the exact cache
    can answer repeats with the bit-identical result a cold solve would
    produce.  The full key is used for lookups (no truncation, so no
    false collisions); responses carry its FNV-1a 64-bit hex digest for
    observability.  The texts are computed once per resolved spec (see
    the resolver contract of {!parse_line}). *)

type place = {
  env : Qcp_env.Environment.t;
  circuit : Qcp_circuit.Circuit.t;
  options : Qcp.Options.t;
  deadline : float option;
      (** The request's timeout budget in seconds, counted from arrival
          (the top-level ["deadline"] field).  Enforced out-of-band by the
          server — it is {e not} part of the content key, so one cached
          solve answers the same instance under any budget.  Distinct from
          ["options":{"deadline"}], which is the portfolio race's anytime
          budget: that one shapes the result, lives in the key, and (like
          the CLI flag) implies [portfolio].  A portfolio race ignores
          this out-of-band budget (its anchor strategy must finish). *)
  telemetry : bool;
      (** Include the run's full metrics snapshot in the result. *)
  key : string;  (** Canonical content key (see above). *)
}

type stats_format = Stats_json | Stats_prometheus
    (** The ["format"] member of a stats request: ["json"] (default) for
        the engine's counter object, ["prometheus"] (or ["prom"]) for the
        text exposition format rendered by {!Qcp_obs.Export.prometheus}. *)

type request =
  | Place of place
  | Ping
  | Stats of stats_format
  | Dump  (** Flight-recorder dump: the last N requests as a Chrome trace. *)
  | Shutdown

type envelope = {
  id : string;  (** Client correlation id, echoed verbatim ([""] if absent). *)
  request : (request, string) result;
      (** [Error] carries a parse/validation message; the server answers
          it with a [status = "error"] response. *)
}

val parse_line :
  ?resolve_env:(string -> (Qcp_env.Environment.t * string, string) result) ->
  ?resolve_circuit:(string -> (Qcp_circuit.Circuit.t * string, string) result) ->
  string ->
  envelope
(** Parse one request line.  [resolve_env] / [resolve_circuit] override
    the spec resolvers; the defaults are {!resolve_env} and
    {!resolve_circuit} below.

    {b Resolver contract.}  A resolver maps a spec to its value {e and}
    that value's canonical text: [Env_format.print env] for an
    environment, [Qc_format.print circuit] for a circuit, byte for byte.
    The request key is built from those texts, so a resolver that returns
    any other text breaks the collide-iff-equal property of keys.  The
    daemon passes interning resolvers that return the stored pair of a
    repeated spec: repeats share one physical environment (which keeps
    the adjacency and route registries hot) and build their key without
    printing anything, so a hit's parse cost does not grow with the
    instance. *)

val resolve_env : string -> (Qcp_env.Environment.t * string, string) result
(** Molecule names, [chain:<n>], [grid:<r>:<c>], or an inline multi-line
    [.env] document, paired with {!Qcp_env.Env_format.print} of the value.
    No file paths.  Generators are capped at {!max_generated_vertices}
    vertices (a generated environment holds a dense delay matrix); larger
    or overflowing sizes are an [Error], returned before anything is
    allocated. *)

val max_generated_vertices : int
(** 1,024: the vertex bound on [chain:<n>] and [grid:<r>:<c>] specs. *)

val resolve_circuit : string -> (Qcp_circuit.Circuit.t * string, string) result
(** Catalog and library names, or an inline multi-line [.qc] document,
    paired with {!Qcp_circuit.Qc_format.print} of the value.  No file
    paths. *)

val key : Qcp.Options.t -> Qcp_env.Environment.t -> Qcp_circuit.Circuit.t -> string
(** The canonical content key of a (options, env, circuit) instance: the
    reference definition.  {!parse_line} builds its keys from the
    resolvers' texts with the same function, so for any request the key
    it returns equals [key options env circuit] on the resolved values. *)

val key_hash : string -> string
(** FNV-1a 64-bit hex digest of a key (16 hex chars) — the [key] field of
    responses. *)

val cacheable : place -> bool
(** Whether the request's result may be cached and served to repeats:
    everything except portfolio races under a finite deadline, whose
    winner depends on machine load (the one knob that trades determinism
    for latency). *)

val result_of_program :
  telemetry:bool -> Qcp.Placer.program -> Qcp_util.Json.t
(** The stable result object of a placed program: runtime (delay units
    and seconds), stage/SWAP counts, initial and final placements, the
    search-effort stats, fidelity when decoherence is modeled, and —
    with [telemetry] — the run's full per-request metrics snapshot
    (the PR 6 registry: phase gauges, cache counters, search counters).
    Deterministic apart from wall-clock fields ([scoring_seconds], phase
    gauges); the cache stores the rendered text, so repeats are
    byte-identical. *)

val response :
  id:string ->
  status:string ->
  ?cached:bool ->
  ?key:string ->
  ?queue_wait:float ->
  ?wall:float ->
  ?result:string ->
  ?error:string ->
  unit ->
  string
(** Render one response line (no trailing newline).  [status] is one of
    ["ok"], ["timeout"], ["unplaceable"], ["error"], ["overloaded"],
    ["shutting-down"].  [key] is hashed with {!key_hash} before rendering.
    [result] is pre-rendered JSON text (typically
    [Json.to_string (result_of_program ...)] — or the cache's stored copy
    of exactly that), spliced in verbatim so cached responses carry the
    cold solve's bytes. *)
