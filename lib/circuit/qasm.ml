exception Parse_error of int * string

let fail line msg = raise (Parse_error (line, msg))

let degrees radians = radians *. 180.0 /. Float.pi

let radians degrees = degrees *. Float.pi /. 180.0

(* Evaluate angle expressions of the shapes: [x], [pi], [x*pi], [pi/x],
   [x*pi/y], [-expr]. *)
let eval_angle lineno text =
  let text = String.trim text in
  let negative = String.length text > 0 && text.[0] = '-' in
  let body = if negative then String.sub text 1 (String.length text - 1) else text in
  let parse_atom atom =
    let atom = String.trim atom in
    if atom = "pi" then Float.pi
    else
      match float_of_string_opt atom with
      | Some v -> v
      | None -> fail lineno (Printf.sprintf "cannot parse angle %S" text)
  in
  let value =
    match String.split_on_char '/' body with
    | [ numerator ] -> (
      match String.split_on_char '*' numerator with
      | [ single ] -> parse_atom single
      | factors -> List.fold_left (fun acc f -> acc *. parse_atom f) 1.0 factors)
    | [ numerator; denominator ] ->
      let num =
        match String.split_on_char '*' numerator with
        | [ single ] -> parse_atom single
        | factors -> List.fold_left (fun acc f -> acc *. parse_atom f) 1.0 factors
      in
      num /. parse_atom denominator
    | _ -> fail lineno (Printf.sprintf "cannot parse angle %S" text)
  in
  if negative then -.value else value

type header = { mutable register : string option; mutable size : int }

let parse_operand lineno header operand =
  let operand = String.trim operand in
  match (String.index_opt operand '[', String.index_opt operand ']') with
  | Some lb, Some rb when rb > lb ->
    let reg = String.sub operand 0 lb in
    let idx = String.sub operand (lb + 1) (rb - lb - 1) in
    (match header.register with
    | Some r when r <> reg ->
      fail lineno (Printf.sprintf "unknown register %S (declared %S)" reg r)
    | Some _ | None -> ());
    (match int_of_string_opt idx with
    | Some i -> i
    | None -> fail lineno (Printf.sprintf "bad index in %S" operand))
  | _ -> fail lineno (Printf.sprintf "expected reg[idx], got %S" operand)

let split_statement lineno stmt =
  (* "name(arg) ops" or "name ops" *)
  let stmt = String.trim stmt in
  match String.index_opt stmt '(' with
  | Some lp -> (
    match String.index_opt stmt ')' with
    | Some rp when rp > lp ->
      let name = String.trim (String.sub stmt 0 lp) in
      let arg = String.sub stmt (lp + 1) (rp - lp - 1) in
      let rest = String.sub stmt (rp + 1) (String.length stmt - rp - 1) in
      (name, Some arg, String.trim rest)
    | _ -> fail lineno "unbalanced parentheses")
  | None -> (
    match String.index_opt stmt ' ' with
    | Some sp ->
      ( String.trim (String.sub stmt 0 sp),
        None,
        String.trim (String.sub stmt sp (String.length stmt - sp)) )
    | None -> (stmt, None, ""))

let parse text =
  let header = { register = None; size = 0 } in
  let gates = ref [] in
  let statements =
    (* Strip // comments, split on ';'. *)
    String.split_on_char '\n' text
    |> List.mapi (fun i line ->
           let line =
             let rec find_comment i =
               if i + 1 >= String.length line then None
               else if line.[i] = '/' && line.[i + 1] = '/' then Some i
               else find_comment (i + 1)
             in
             match find_comment 0 with
             | Some i -> String.sub line 0 i
             | None -> line
           in
           (i + 1, line))
    |> List.concat_map (fun (lineno, line) ->
           String.split_on_char ';' line
           |> List.filter_map (fun stmt ->
                  let stmt = String.trim stmt in
                  if stmt = "" then None else Some (lineno, stmt)))
  in
  let handle (lineno, stmt) =
    let name, arg, rest = split_statement lineno stmt in
    let operands () =
      String.split_on_char ',' rest |> List.map (parse_operand lineno header)
    in
    let angle () =
      match arg with
      | Some a -> degrees (eval_angle lineno a)
      | None -> fail lineno (Printf.sprintf "%s needs an angle" name)
    in
    let one_q () =
      match operands () with
      | [ q ] -> q
      | _ -> fail lineno (Printf.sprintf "%s expects one operand" name)
    in
    let two_q () =
      match operands () with
      | [ a; b ] -> (a, b)
      | _ -> fail lineno (Printf.sprintf "%s expects two operands" name)
    in
    match String.lowercase_ascii name with
    | "openqasm" | "include" | "creg" | "barrier" | "measure" | "reset" -> ()
    | "qreg" -> (
      match (String.index_opt rest '[', String.index_opt rest ']') with
      | Some lb, Some rb when rb > lb ->
        header.register <- Some (String.trim (String.sub rest 0 lb));
        (match int_of_string_opt (String.sub rest (lb + 1) (rb - lb - 1)) with
        | Some n -> header.size <- max header.size n
        | None -> fail lineno "bad qreg size")
      | _ -> fail lineno "bad qreg declaration")
    | "h" -> gates := Gate.h (one_q ()) :: !gates
    | "x" -> gates := Gate.rx (one_q ()) 180.0 :: !gates
    | "y" -> gates := Gate.ry (one_q ()) 180.0 :: !gates
    | "z" -> gates := Gate.rz (one_q ()) 180.0 :: !gates
    | "t" -> gates := Gate.rz (one_q ()) 45.0 :: !gates
    | "tdg" -> gates := Gate.rz (one_q ()) (-45.0) :: !gates
    | "s" -> gates := Gate.rz (one_q ()) 90.0 :: !gates
    | "sdg" -> gates := Gate.rz (one_q ()) (-90.0) :: !gates
    | "rx" -> gates := Gate.rx (one_q ()) (angle ()) :: !gates
    | "ry" -> gates := Gate.ry (one_q ()) (angle ()) :: !gates
    | "rz" | "u1" | "p" -> gates := Gate.rz (one_q ()) (angle ()) :: !gates
    | "cx" | "cnot" ->
      let a, b = two_q () in
      gates := Gate.cnot a b :: !gates
    | "cz" ->
      let a, b = two_q () in
      gates := Gate.cphase a b 180.0 :: !gates
    | "cp" | "cu1" ->
      let a, b = two_q () in
      gates := Gate.cphase a b (angle ()) :: !gates
    | "swap" ->
      let a, b = two_q () in
      gates := Gate.swap a b :: !gates
    | "rzz" ->
      let a, b = two_q () in
      gates := Gate.zz a b (angle ()) :: !gates
    | other -> fail lineno (Printf.sprintf "unsupported gate %S" other)
  in
  List.iter
    (fun ((lineno, _) as stmt) ->
      try handle stmt with Invalid_argument msg -> fail lineno msg)
    statements;
  if header.size = 0 then fail 1 "missing qreg declaration";
  (try Circuit.make ~qubits:header.size (List.rev !gates)
   with Invalid_argument msg -> fail 1 msg)

let parse_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  parse text

let print ?(register = "q") circuit =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n";
  Buffer.add_string buf
    (Printf.sprintf "qreg %s[%d];\n" register (Circuit.qubits circuit));
  let q i = Printf.sprintf "%s[%d]" register i in
  let line gate =
    match gate with
    | Gate.G1 (Gate.Hadamard, a) -> Printf.sprintf "h %s;" (q a)
    | Gate.G1 (Gate.Rotation (axis, angle), a) ->
      let name = match axis with Gate.X -> "rx" | Gate.Y -> "ry" | Gate.Z -> "rz" in
      Printf.sprintf "%s(%.12g) %s;" name (radians angle) (q a)
    | Gate.G1 (Gate.Custom1 (name, weight), a) ->
      Printf.sprintf "// custom1 %s %g %s" name weight (q a)
    | Gate.G2 (Gate.Cnot, a, b) -> Printf.sprintf "cx %s,%s;" (q a) (q b)
    | Gate.G2 (Gate.Cphase angle, a, b) ->
      Printf.sprintf "cp(%.12g) %s,%s;" (radians angle) (q a) (q b)
    | Gate.G2 (Gate.Swap, a, b) -> Printf.sprintf "swap %s,%s;" (q a) (q b)
    | Gate.G2 (Gate.ZZ angle, a, b) ->
      Printf.sprintf "rzz(%.12g) %s,%s;" (radians angle) (q a) (q b)
    | Gate.G2 (Gate.Custom2 (name, weight), a, b) ->
      Printf.sprintf "// custom2 %s %g %s,%s" name weight (q a) (q b)
  in
  List.iter
    (fun gate ->
      Buffer.add_string buf (line gate);
      Buffer.add_char buf '\n')
    (Circuit.gates circuit);
  Buffer.contents buf
