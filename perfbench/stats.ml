(* Order statistics shared by every workload and by the self-test. *)

let sorted samples =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  a

(* Python's [statistics.quantiles data ~n:4] (method "exclusive"), so the
   spread printed here is the one the acceptance check computes. *)
let quartiles samples =
  let d = sorted samples in
  let len = Array.length d in
  if len = 0 then (nan, nan, nan)
  else if len = 1 then (d.(0), d.(0), d.(0))
  else begin
    let m = len + 1 in
    let q i =
      let j = i * m / 4 in
      let j = if j < 1 then 1 else if j > len - 1 then len - 1 else j in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)
  end

let median samples =
  match samples with
  | [] -> nan
  | [ x ] -> x
  | _ ->
    let d = sorted samples in
    let len = Array.length d in
    if len mod 2 = 1 then d.(len / 2)
    else (d.((len / 2) - 1) +. d.(len / 2)) /. 2.0

let geomean = function
  | [] -> nan
  | xs ->
    exp
      (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
      /. float_of_int (List.length xs))

type tail = {
  percentile : float;  (** e.g. 99.0 *)
  value : float;
  beyond : int;  (** samples strictly after the percentile's rank *)
  count : int;  (** sample size *)
}

(* The usual reporting percentiles. *)
let tail_candidates = [ 99.9; 99.0; 95.0; 90.0; 50.0 ]

(* The highest candidate percentile with at least [min_beyond] samples
   beyond it (nearest-rank: the p-th percentile is the ceil(p N / 100)-th
   smallest sample).  [None] when even the median leaves fewer. *)
let tail ?(min_beyond = 10) samples =
  let d = sorted samples in
  let count = Array.length d in
  let rank p = int_of_float (Float.ceil (p *. float_of_int count /. 100.0)) in
  List.find_map
    (fun p ->
      let k = rank p in
      if k >= 1 && count - k >= min_beyond then
        Some { percentile = p; value = d.(k - 1); beyond = count - k; count }
      else None)
    tail_candidates

(* The tail as reported: the qualifying percentile, or the sample maximum
   (marked p100 with nothing beyond) when the sample is too small. *)
let tail_or_max samples =
  match tail samples with
  | Some t -> t
  | None ->
    let d = sorted samples in
    let count = Array.length d in
    {
      percentile = 100.0;
      value = (if count = 0 then nan else d.(count - 1));
      beyond = 0;
      count;
    }

let describe_tail t =
  Printf.sprintf "p%g of %d samples, %d beyond" t.percentile t.count t.beyond

(* The median member's latency: each group's median, then the median over
   groups.  Pooling every sample instead lets the median jump between
   members of very different cost from run to run, since the members are
   fixed and their costs lie far apart. *)
let group_median (samples : (string * float) list) =
  let groups = Hashtbl.create 64 in
  List.iter
    (fun (k, v) ->
      Hashtbl.replace groups k (v :: Option.value (Hashtbl.find_opt groups k) ~default:[]))
    samples;
  let medians = Hashtbl.fold (fun _ vs acc -> median vs :: acc) groups [] in
  (median medians, List.length medians)
