(** Deterministic strategy portfolio: race placers against a shared
    incumbent.

    The enabled {!Strategy} solvers attack the same instance concurrently
    over the {!Qcp_util.Task_pool}.  Every achieved runtime is published
    into one {!Incumbent} cell, so the bounded-search cutoff of each
    classic pipeline — and the lower-bound ordering of its sweeps — prunes
    against the best result {e any} strategy has produced so far, not just
    its own incumbent.

    The race is deterministic by construction (when {!Options.t.deadline}
    is [None]): a strategy either completes with output bit-identical to
    running it alone, or aborts carrying proof that its final runtime
    strictly exceeds a published value — hence it could neither win nor
    tie.  Every strategy achieving the winning runtime therefore completes
    under {e every} schedule, and the reduce (earliest strategy in
    canonical order achieving the strict minimum replayed runtime) names
    the same winner at any [jobs] value.

    With a finite deadline the race becomes an anytime search: non-anchor
    strategies abort between stages once the budget expires, while the
    anchor (first enabled strategy) ignores the clock so a race always
    returns a valid placement. *)

type status =
  | Completed of float
      (** Finished, achieving this replayed runtime (delay units). *)
  | Pruned  (** Provably unable to win or tie; abandoned mid-run. *)
  | Expired  (** Out of deadline budget. *)
  | Infeasible of string  (** Could not place the instance at all. *)

type entry = {
  strategy : string;
  status : status;
  wall_seconds : float;
  peer_prunes : int;
      (** Stage sweeps tightened and aborts caused by peers' published
          runtimes during this strategy's run. *)
}

type report = {
  program : Placer.program;  (** The winning placement. *)
  winner : string;
  runtime : float;  (** [Placer.runtime program], delay units. *)
  lower_bound : float;
      (** {!Baselines.lower_bound} — placement-independent. *)
  gap : float;
      (** [runtime /. lower_bound] ([1.0] when the bound is trivial):
          certified optimality gap of the race's result. *)
  entries : entry list;  (** One per enabled strategy, canonical order. *)
}

val run :
  ?jobs:int ->
  ?share:bool ->
  Options.t ->
  Qcp_env.Environment.t ->
  Qcp_circuit.Circuit.t ->
  (report, string) result
(** Race {!Options.t.portfolio_strategies} on the instance.  [jobs]
    defaults to [options.jobs]; strategies map over the shared pool and
    any surplus parallelism inside a strategy serializes through the
    pool's nested-use guard.  [share] (default [true]) exists for
    ablation: [false] gives every strategy a private incumbent cell, so
    cross-strategy pruning is off but each strategy still runs — the
    [portfolio/cross-prune] benchmark measures exactly this difference.
    [Error] when the strategy list is invalid or every strategy is
    infeasible.

    Telemetry (when {!Qcp_obs.Metrics.enabled}): one [portfolio/<name>]
    span per strategy under cat ["portfolio"], plus global counters
    [portfolio.races], [portfolio.strategy_wins.<name>] and
    [portfolio.candidates_pruned_by_peer].  The report's plain-int fields
    carry the same information with telemetry off. *)

val place :
  ?jobs:int ->
  Options.t ->
  Qcp_env.Environment.t ->
  Qcp_circuit.Circuit.t ->
  Placer.outcome
(** {!run} collapsed onto the classic outcome type: the winning program,
    or [Unplaceable] with the race's error. *)

val place_batch :
  ?jobs:int ->
  ?deadline_of:(int -> float) ->
  (Options.t * Qcp_env.Environment.t * Qcp_circuit.Circuit.t) list ->
  Placer.outcome list
(** The batch entry point for a mix of classic and portfolio jobs, with
    {!Placer.place_batch}'s contract: jobs map over the shared pool with
    at most [jobs] domains ([0], the default, runs sequentially), and
    outcomes come back in input order, bit-identical to calling each job's
    engine in turn.  A spec with [options.portfolio] set is raced through
    {!place} (its budget is [options.deadline]); any other spec runs
    {!Placer.place} with [deadline_of i] (default [infinity]) as its
    absolute deadline.  Each job's inner parallel layers serialize when
    the outer fan-out saturates the pool. *)

val pp_report : Format.formatter -> report -> unit
(** Human-readable race table: winner, runtime, gap, then one line per
    strategy with status, wall seconds and peer-prune count. *)

(** Per-instance-feature win history biasing future races' per-strategy
    effort budgets (enabled by {!Options.t.portfolio_learn}).

    The table is process-global and mutex-protected; keys bucket the
    instance coarsely (power-of-two qubit and gate-count buckets plus a
    gates-per-qubit density bucket).  Effort multipliers are
    Laplace-smoothed win shares clamped to [\[0.5, 2.0\]], so an empty
    history yields exactly [1.0] for every strategy (the unbiased race)
    and no strategy is ever starved outright. *)
module Learn : sig
  val record :
    Qcp_env.Environment.t -> Qcp_circuit.Circuit.t -> winner:string -> unit
  (** Credit [winner] for this instance's feature bucket. *)

  val effort :
    Qcp_env.Environment.t ->
    Qcp_circuit.Circuit.t ->
    arity:int ->
    string ->
    float
  (** Effort multiplier for a strategy in an [arity]-way race:
      [clamp (arity * (wins + 1) / (total + arity)) 0.5 2.0]. *)

  val reset : unit -> unit
  (** Drop all history (tests). *)

  (** {2 Persistence}

      The win table can round-trip through a small versioned dotfile so
      the strategy bias survives process restarts — both repeated CLI
      runs and [qcp serve] restarts.  The format is one header line
      ([qcp-learn v1]) followed by
      [<qubit-bucket> <gate-bucket> <density-bucket> <strategy> <wins>]
      rows.  Nothing here runs implicitly: callers that want persistence
      (the CLI under [--learn], the daemon) load at startup and save at
      exit. *)

  val default_path : unit -> string option
  (** [$QCP_LEARN_FILE] when set and non-empty; [None] when it is set but
      empty (an explicit off switch); else [$HOME/.qcp_learn]; [None]
      when neither variable offers a path. *)

  val save : string -> unit
  (** Write the current table (deterministic row order: equal tables
      write byte-identical files).  Raises [Sys_error] on I/O failure. *)

  val load : string -> bool
  (** Merge a previously saved table additively into the in-process one
      (counts accumulate).  Returns [false] — merging {e nothing} — on a
      missing file, a version-header mismatch or any malformed row: a
      stale or corrupt dotfile must never break a run. *)
end
