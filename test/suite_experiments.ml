(* Locks the reporting pipeline into `dune runtest`: every table/figure
   driver must run and contain its anchor facts. *)

module E = Qcp_report.Experiments

let contains = Helpers.contains

let test_table1 () =
  let text = E.table1 () in
  Alcotest.(check bool) "bad runtime 770" true (contains ~needle:"770" text);
  Alcotest.(check bool) "optimal 136" true (contains ~needle:"136" text);
  Alcotest.(check bool) "intermediate 680" true (contains ~needle:"680" text)

let test_table2 () =
  let text = E.table2 () in
  Alcotest.(check bool) "acetyl exact" true (contains ~needle:"0.0136 sec" text);
  Alcotest.(check bool) "search space 2520" true (contains ~needle:"2520" text);
  Alcotest.(check bool) "search space 239500800" true
    (contains ~needle:"239500800" text)

let test_table3 () =
  (* A smaller monomorphism limit keeps this test quick; shapes still hold. *)
  let text = E.table3 ~monomorphism_limit:24 () in
  Alcotest.(check bool) "iron N/A" true (contains ~needle:"N/A" text);
  Alcotest.(check bool) "histidine section" true
    (contains ~needle:"12-qubit histidine" text);
  (* Whole-circuit placement shows exactly one subcircuit at 10000. *)
  Alcotest.(check bool) "single-workspace cells" true
    (contains ~needle:"(1)" text)

(* Every Table 3 cell at the paper's k = 100, pinned to its runtime (delay
   units) and subcircuit count.  A pruning bound that is not admissible
   would refute a winning candidate and move one of these; the "table3
   anchors" test above runs at k = 24 and checks only the table's shape.
   Runtimes are dyadic, so they compare exactly.  Cells are in the table's
   order, thresholds 50, 100, 200, 500, 1000 and 10000; [None] is N/A. *)
let table3_pinned =
  let module M = Qcp_env.Molecules in
  [
    ( M.boc_glycine_fluoride,
      "phaseest",
      [
        Some (704.75, 5); Some (704.75, 5); Some (622.0, 2);
        Some (622.0, 2); Some (882.0, 2); Some (1032.0, 1);
      ] );
    ( M.iron_complex,
      "phaseest",
      [
        None; None; Some (3501.5, 5);
        Some (2051.0, 2); Some (2051.0, 2); Some (2518.5, 1);
      ] );
    ( M.trans_crotonic_acid,
      "phaseest",
      [
        Some (1095.0, 4); Some (1095.0, 4); Some (1303.0, 3);
        Some (944.75, 2); Some (1020.5, 2); Some (1689.5, 1);
      ] );
    ( M.trans_crotonic_acid,
      "qft6",
      [
        Some (1428.4375, 5); Some (1428.4375, 5); Some (1449.5, 4);
        Some (1934.625, 2); Some (1447.0, 2); Some (1870.0, 1);
      ] );
    ( M.histidine,
      "phaseest",
      [
        Some (1831.0, 4); Some (1831.0, 4); Some (1347.25, 3);
        Some (793.75, 2); Some (793.75, 2); Some (992.0, 1);
      ] );
    ( M.histidine,
      "qft6",
      [
        Some (5504.3125, 5); Some (5504.3125, 5); Some (2088.75, 4);
        Some (1443.625, 2); Some (1790.625, 2); Some (1059.0, 1);
      ] );
    ( M.histidine,
      "aqft9",
      [
        Some (10495.75, 8); Some (10495.75, 8); Some (13806.0, 7);
        Some (5777.0, 3); Some (8579.75, 3); Some (5061.5, 1);
      ] );
    ( M.histidine,
      "steane-x/z1",
      [
        Some (4207.0, 4); Some (4207.0, 4); Some (7319.0, 3);
        Some (7092.0, 2); Some (5382.0, 2); Some (12788.0, 1);
      ] );
    ( M.histidine,
      "steane-x/z2",
      [
        Some (8461.0, 5); Some (8461.0, 5); Some (29958.0, 3);
        Some (5166.0, 2); Some (5236.0, 2); Some (5893.0, 1);
      ] );
    ( M.histidine,
      "aqft12",
      [
        Some (18640.625, 11); Some (18640.625, 11); Some (20284.0, 10);
        Some (16444.25, 4); Some (15435.875, 4); Some (7459.5, 1);
      ] );
  ]

let test_table3_pinned () =
  let thresholds = [ 50.0; 100.0; 200.0; 500.0; 1000.0; 10000.0 ] in
  List.iter
    (fun (env, name, cells) ->
      let circuit = Option.get (Qcp_circuit.Catalog.by_name name) in
      List.iter2
        (fun threshold expected ->
          let label =
            Printf.sprintf "%s %s @ %g" (Qcp_env.Environment.name env) name
              threshold
          in
          let options =
            { (Qcp.Options.default ~threshold) with
              Qcp.Options.monomorphism_limit = 100 }
          in
          let got =
            match Qcp.Placer.place options env circuit with
            | Qcp.Placer.Placed p ->
              Some (Qcp.Placer.runtime p, Qcp.Placer.subcircuit_count p)
            | Qcp.Placer.Unplaceable _ -> None
          in
          Alcotest.(check (option (pair (float 0.0) int))) label expected got)
        thresholds cells)
    table3_pinned

let test_table4 () =
  let text = E.table4 () in
  Alcotest.(check bool) "row 8 gates" true (contains ~needle:"72" text);
  Alcotest.(check bool) "row 128 gates" true (contains ~needle:"6272" text);
  (* The headline: subcircuits match hidden stages on every row; spot-check
     by parsing each data row. *)
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         if String.length line > 0 && line.[0] = '|' then begin
           match
             String.split_on_char '|' line
             |> List.map String.trim
             |> List.filter (fun c -> c <> "")
           with
           | qubits :: _gates :: hidden :: subcircuits :: _
             when int_of_string_opt qubits <> None ->
             Alcotest.(check string)
               (Printf.sprintf "N=%s stages" qubits)
               hidden subcircuits
           | _ -> ()
         end)

let test_figures () =
  Alcotest.(check bool) "figure1 delays" true
    (contains ~needle:"672" (E.figure1 ()));
  Alcotest.(check bool) "figure2 diagram" true
    (contains ~needle:"[ZZ 90]" (E.figure2 ()));
  let f3 = E.figure3 () in
  Alcotest.(check bool) "figure3 runs the permutation" true
    (contains ~needle:"level" f3 && contains ~needle:"C4" f3);
  Alcotest.(check bool) "figure4 molecule s=1/2" true
    (contains ~needle:"0.500" (E.figure4 ()))

let test_npc () =
  let text = E.npc () in
  Alcotest.(check bool) "petersen row" true (contains ~needle:"petersen" text);
  Alcotest.(check bool) "all rows agree" false (contains ~needle:"false " text
  && contains ~needle:"| false |" text)

let test_npc_agreement_column () =
  let text = E.npc () in
  (* The final column of every data row must be "true". *)
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         if
           String.length line > 0 && line.[0] = '|'
           && not (contains ~needle:"agree" line)
         then
           Alcotest.(check bool) "agree column" true
             (contains ~needle:"| true  |" (line ^ " ")
             || contains ~needle:"true" line))

let test_ablation () =
  let text = E.ablation () in
  Alcotest.(check bool) "has default row" true
    (contains ~needle:"default (paper settings)" text);
  Alcotest.(check bool) "has balancing row" true
    (contains ~needle:"boundary balancing" text)

let test_fidelity () =
  let text = E.fidelity () in
  Alcotest.(check bool) "has fidelity numbers" true (contains ~needle:"0." text);
  Alcotest.(check bool) "has all three rows" true
    (contains ~needle:"pseudo-cat" text)

let test_architectures () =
  let text = E.architectures () in
  Alcotest.(check bool) "chain row" true (contains ~needle:"chain-10" text);
  Alcotest.(check bool) "complete row" true (contains ~needle:"complete-10" text)

let test_schedule_demo () =
  let text = E.schedule_demo () in
  Alcotest.(check bool) "gantt" true (contains ~needle:"pulse schedule" text)

let suite =
  [
    Alcotest.test_case "table1 anchors" `Quick test_table1;
    Alcotest.test_case "table2 anchors" `Quick test_table2;
    Alcotest.test_case "table3 anchors" `Slow test_table3;
    Alcotest.test_case "table3 pinned at k = 100" `Slow test_table3_pinned;
    Alcotest.test_case "table4 stage structure" `Slow test_table4;
    Alcotest.test_case "figures" `Quick test_figures;
    Alcotest.test_case "npc report" `Quick test_npc;
    Alcotest.test_case "npc agreement" `Quick test_npc_agreement_column;
    Alcotest.test_case "ablation report" `Slow test_ablation;
    Alcotest.test_case "fidelity report" `Quick test_fidelity;
    Alcotest.test_case "architectures report" `Quick test_architectures;
    Alcotest.test_case "schedule demo" `Quick test_schedule_demo;
  ]
