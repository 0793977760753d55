(* One reported number: name, value, unit and a human-readable note. *)
type t = { name : string; value : float; unit : string; detail : string }

let make ?(detail = "") name unit value = { name; value; unit; detail }
