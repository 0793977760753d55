exception Parse_error of int * string

let fail line msg = raise (Parse_error (line, msg))

let split_words line =
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun w -> w <> "")

let parse_int lineno word =
  match int_of_string_opt word with
  | Some v -> v
  | None -> fail lineno (Printf.sprintf "expected an integer, got %S" word)

let parse_float lineno word =
  match float_of_string_opt word with
  | Some v -> v
  | None -> fail lineno (Printf.sprintf "expected a number, got %S" word)

let parse_gate lineno words =
  match words with
  | [ "h"; q ] -> Gate.h (parse_int lineno q)
  | [ "rx"; q; angle ] -> Gate.rx (parse_int lineno q) (parse_float lineno angle)
  | [ "ry"; q; angle ] -> Gate.ry (parse_int lineno q) (parse_float lineno angle)
  | [ "rz"; q; angle ] -> Gate.rz (parse_int lineno q) (parse_float lineno angle)
  | [ "zz"; a; b; angle ] ->
    Gate.zz (parse_int lineno a) (parse_int lineno b) (parse_float lineno angle)
  | [ "cnot"; a; b ] -> Gate.cnot (parse_int lineno a) (parse_int lineno b)
  | [ "cphase"; a; b; angle ] ->
    Gate.cphase (parse_int lineno a) (parse_int lineno b) (parse_float lineno angle)
  | [ "swap"; a; b ] -> Gate.swap (parse_int lineno a) (parse_int lineno b)
  | [ "u1"; name; weight; q ] ->
    Gate.custom1 name (parse_float lineno weight) (parse_int lineno q)
  | [ "u2"; name; weight; a; b ] ->
    Gate.custom2 name (parse_float lineno weight) (parse_int lineno a)
      (parse_int lineno b)
  | mnemonic :: _ -> fail lineno (Printf.sprintf "unknown or malformed gate %S" mnemonic)
  | [] -> fail lineno "empty gate line"

let parse text =
  let lines = String.split_on_char '\n' text in
  let qubits = ref None in
  let gates = ref [] in
  List.iteri
    (fun idx raw ->
      let lineno = idx + 1 in
      let line =
        match String.index_opt raw '#' with
        | Some cut -> String.sub raw 0 cut
        | None -> raw
      in
      match split_words line with
      | [] -> ()
      | [ "qubits"; count ] ->
        if !qubits <> None then fail lineno "duplicate qubits declaration";
        qubits := Some (parse_int lineno count)
      | words ->
        if !qubits = None then fail lineno "gate before qubits declaration";
        let gate =
          try parse_gate lineno words
          with Invalid_argument msg -> fail lineno msg
        in
        gates := gate :: !gates)
    lines;
  match !qubits with
  | None -> fail 1 "missing qubits declaration"
  | Some n -> (
    try Circuit.make ~qubits:n (List.rev !gates)
    with Invalid_argument msg -> fail 1 msg)

let parse_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  parse text

let gate_line gate =
  match gate with
  | Gate.G1 (Gate.Rotation (Gate.X, angle), q) -> Printf.sprintf "rx %d %g" q angle
  | Gate.G1 (Gate.Rotation (Gate.Y, angle), q) -> Printf.sprintf "ry %d %g" q angle
  | Gate.G1 (Gate.Rotation (Gate.Z, angle), q) -> Printf.sprintf "rz %d %g" q angle
  | Gate.G1 (Gate.Hadamard, q) -> Printf.sprintf "h %d" q
  | Gate.G1 (Gate.Custom1 (name, weight), q) -> Printf.sprintf "u1 %s %g %d" name weight q
  | Gate.G2 (Gate.ZZ angle, a, b) -> Printf.sprintf "zz %d %d %g" a b angle
  | Gate.G2 (Gate.Cnot, a, b) -> Printf.sprintf "cnot %d %d" a b
  | Gate.G2 (Gate.Cphase angle, a, b) -> Printf.sprintf "cphase %d %d %g" a b angle
  | Gate.G2 (Gate.Swap, a, b) -> Printf.sprintf "swap %d %d" a b
  | Gate.G2 (Gate.Custom2 (name, weight), a, b) ->
    Printf.sprintf "u2 %s %g %d %d" name weight a b

let print circuit =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "qubits %d\n" (Circuit.qubits circuit));
  List.iter
    (fun gate ->
      Buffer.add_string buf (gate_line gate);
      Buffer.add_char buf '\n')
    (Circuit.gates circuit);
  Buffer.contents buf
