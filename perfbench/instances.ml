(* Workload inputs, generated from the workload seed (paper_tables' are
   fixed).  The program under test only ever sees the values built here. *)

module Environment = Qcp_env.Environment
module Molecules = Qcp_env.Molecules
module Catalog = Qcp_circuit.Catalog
module Options = Qcp.Options

type instance = {
  label : string;
  options : Options.t;
  env : Environment.t;
  circuit : Qcp_circuit.Circuit.t;
  env_spec : string;  (** how a serve request names [env] *)
  circuit_spec : string;
      (** how a serve request names [circuit]; [""] sends it inline *)
}

let sequential o = { o with Options.jobs = 0 }

let catalog name =
  match Catalog.by_name name with
  | Some c -> c
  | None -> failwith ("perfbench: unknown catalog circuit " ^ name)

(* Table 2's three rows and Table 3's sections, as printed in the paper. *)
let table2 =
  [
    ("qec3", "acetyl-chloride", Molecules.acetyl_chloride, None);
    ("qec5", "trans-crotonic", Molecules.trans_crotonic_acid, Some 100.0);
    ("cat10", "histidine", Molecules.histidine, Some 1000.0);
  ]

let table3_thresholds = [ 50.0; 100.0; 200.0; 500.0; 1000.0; 10000.0 ]

let table3_sections =
  [
    ("boc-glycine", Molecules.boc_glycine_fluoride, [ "phaseest" ]);
    ("iron-complex", Molecules.iron_complex, [ "phaseest" ]);
    ("trans-crotonic", Molecules.trans_crotonic_acid, [ "phaseest"; "qft6" ]);
    ( "histidine",
      Molecules.histidine,
      [ "phaseest"; "qft6"; "aqft9"; "steane-x/z1"; "steane-x/z2"; "aqft12" ] );
  ]

let table2_circuit = function
  | "qec3" -> Catalog.qec3_encode
  | "qec5" -> Catalog.qec5_encode
  | "cat10" -> Catalog.cat_state 10
  | name -> catalog name

let table3_cells () =
  List.concat_map
    (fun (env_spec, env, circuits) ->
      List.concat_map
        (fun name ->
          List.map
            (fun threshold ->
              {
                label = Printf.sprintf "t3/%s/%s@%g" env_spec name threshold;
                options = sequential (Options.default ~threshold);
                env;
                circuit = catalog name;
                env_spec;
                circuit_spec = name;
              })
            table3_thresholds)
        circuits)
    table3_sections

let table4_sizes = [ 8; 16; 32; 64; 128 ]

(* Table 4's circuits come from the repository's own Table 4 seed, the one
   [qcp report] uses.  Drawn from the workload seed instead, the 128-qubit
   chain alone took 0.055 to 0.45 s depending on the draw, which put the
   spread of wall_s over ten seeds at the 0.25 limit. *)
let table4_seed = 2007

(* Table 2's 3 rows, Table 3's 60 cells and Table 4's 5 chains: 68
   instances at the paper's defaults (k = 100; Table 4 under
   [Options.fast]), in the paper's order.  The set does not depend on the
   workload seed.  Shuffling the order by the seed moved wall_s by up to
   20% and peak_heap_mb by up to 35% between seeds, because the order
   decides which placement pays each cold cache (adjacency memo, route
   registries). *)
let paper_tables () =
  let t2 =
    List.map
      (fun (name, env_spec, env, threshold) ->
        let threshold =
          match threshold with
          | Some t -> t
          | None -> Environment.min_threshold_connected env
        in
        {
          label = "t2/" ^ name;
          options = sequential (Options.default ~threshold);
          env;
          circuit = table2_circuit name;
          env_spec;
          circuit_spec = name;
        })
      table2
  in
  let t4 =
    List.map
      (fun n ->
        let rng = Qcp_util.Rng.create (table4_seed + n) in
        let circuit, _ = Qcp_circuit.Random_circuit.hidden_stages rng ~n in
        {
          label = Printf.sprintf "t4/chain%d" n;
          options = sequential (Options.fast ~threshold:50.0);
          env = Environment.chain n;
          circuit;
          env_spec = Printf.sprintf "chain:%d" n;
          circuit_spec = "";
        })
      table4_sizes
  in
  t2 @ table3_cells () @ t4

(* The paper's anchors, checked on every paper_tables pass. *)
let anchor_label = "t2/qec3"
let anchor_runtime = 136.0

let expected_unplaceable =
  [ "t3/iron-complex/phaseest@50"; "t3/iron-complex/phaseest@100" ]

(* scale_spill: a 10^5-gate, 256-qubit hidden-stage circuit on a 16x16
   grid, placed by the streaming path with stages dropped.  Ten hidden
   stages rather than four: the makespan sums over more SWAP networks, so
   it varies far less from seed to seed (an interquartile spread of 6%
   over ten seeds, against 26% over five with four stages). *)
let scale_stages = 10

let scale ~seed =
  let rng = Qcp_util.Rng.create seed in
  let circuit =
    Qcp_circuit.Random_circuit.hidden_stages_custom rng ~n:256 ~stages:scale_stages
      ~gates_per_stage:(100_000 / scale_stages)
  in
  {
    label = "scale/grid16x16";
    options =
      sequential { (Options.scale ~threshold:50.0) with Options.spill = Options.Spill_drop };
    env = Environment.grid 16 16;
    circuit;
    env_spec = "grid:16:16";
    circuit_spec = "";
  }

(* Serve requests name built-in circuits where one exists and otherwise
   carry the generated document inline, as a remote client would. *)
let spec_circuit i =
  if i.circuit_spec = "" then Qcp_circuit.Qc_format.print i.circuit else i.circuit_spec

(* A request's "options" object: the fields the placement workloads set,
   spelled as the protocol spells them. *)
let options_json (o : Options.t) =
  let module J = Qcp_util.Json in
  let opt name f = function Some v -> [ (name, f v) ] | None -> [] in
  J.Obj
    ([
       ("threshold", J.Num o.Options.threshold);
       ("monomorphisms", J.Num (float_of_int o.Options.monomorphism_limit));
       ("lookahead", J.Bool o.Options.lookahead);
       ("fine_tune", J.Num (float_of_int o.Options.fine_tune_passes));
       ("coarsen", J.Bool o.Options.coarsen);
     ]
    @ opt "window" (fun w -> J.Num (float_of_int w)) o.Options.window
    @ opt "root_cap" (fun r -> J.Num (float_of_int r)) o.Options.root_cap)

let request_line ~id i =
  let module J = Qcp_util.Json in
  J.to_string
    (J.Obj
       [
         ("id", J.Str id);
         ("op", J.Str "place");
         ("env", J.Str i.env_spec);
         ("circuit", J.Str (spec_circuit i));
         ("options", options_json i.options);
       ])

(* serve_mixed's hot set: from the 9-gate qec3 encoder up to an inline
   .qc document of 1,024 gates (a seeded hidden-stage circuit on a
   16-qubit chain), so hit cost is measured across circuit sizes. *)
let hot_set ~seed =
  let named label env_spec env circuit_spec threshold =
    {
      label;
      options = sequential (Options.default ~threshold);
      env;
      circuit = table2_circuit circuit_spec;
      env_spec;
      circuit_spec;
    }
  in
  let big =
    let rng = Qcp_util.Rng.create (seed + 1024) in
    Qcp_circuit.Random_circuit.hidden_stages_custom rng ~n:16 ~stages:4
      ~gates_per_stage:256
  in
  [
    named "hot/qec3" "acetyl-chloride" Molecules.acetyl_chloride "qec3"
      (Environment.min_threshold_connected Molecules.acetyl_chloride);
    named "hot/qec5" "trans-crotonic" Molecules.trans_crotonic_acid "qec5" 100.0;
    named "hot/qft6" "trans-crotonic" Molecules.trans_crotonic_acid "qft6" 100.0;
    named "hot/phaseest" "boc-glycine" Molecules.boc_glycine_fluoride "phaseest"
      200.0;
    named "hot/aqft9" "histidine" Molecules.histidine "aqft9" 1000.0;
    named "hot/cat10" "histidine" Molecules.histidine "cat10" 1000.0;
    named "hot/aqft12" "histidine" Molecules.histidine "aqft12" 1000.0;
    {
      label = "hot/inline1024";
      options = sequential (Options.fast ~threshold:50.0);
      env = Environment.chain 16;
      circuit = big;
      env_spec = "chain:16";
      circuit_spec = "";
    };
  ]

(* serve_mixed's cold pool: every placeable Table 3 cell under every
   monomorphism limit in [cold_k_min, cold_k_max].  The limits differ from
   the hot set's (100), so each draw is a fresh key, while molecule names
   keep the daemon's adjacency memo shared.  The pool is a sequence of
   rounds: round r visits every cell once, in a seeded order, with the
   limit cold_k_min + r.  So any stretch of draws covers the cells evenly,
   and a given step of the ladder solves the same (cell, limit) set under
   every seed — only the order differs.  One slow solve holds up every
   hit queued behind it, so drawing limits per request from the seed made
   the reference step's hot tail depend on which heavy cells happened to
   be drawn. *)
let cold_k_min = 4
let cold_k_max = 21
let cold_rounds = cold_k_max - cold_k_min + 1

let cold_pool ~seed =
  let rng = Qcp_util.Rng.create (seed + 7) in
  let cells =
    Array.of_list
      (List.filter
         (fun i -> not (List.mem i.label expected_unplaceable))
         (table3_cells ()))
  in
  Array.concat
    (List.init cold_rounds (fun r ->
         let k = cold_k_min + r in
         let order = Array.init (Array.length cells) Fun.id in
         Qcp_util.Rng.shuffle_in_place rng order;
         Array.map
           (fun c ->
             let i = cells.(c) in
             {
               i with
               label = Printf.sprintf "%s/k%d" i.label k;
               options = { i.options with Options.monomorphism_limit = k };
             })
           order))
