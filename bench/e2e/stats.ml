(* Order statistics with the definitions of Python's [statistics] module
   ([quantiles] with the default exclusive method, and [median]), so the
   spreads this benchmark reports are the ones its users compute. *)

let sorted values =
  let data = Array.of_list values in
  Array.sort compare data;
  data

(* cut point [i] of [n] equal-probability intervals *)
let quantile ~n ~i values =
  let data = sorted values in
  let m = Array.length data in
  if m = 0 then invalid_arg "Stats.quantile: no values"
  else if m = 1 then data.(0)
  else
    let j = i * (m + 1) / n in
    let j = max 1 (min (m - 1) j) in
    let delta = (i * (m + 1)) - (j * n) in
    ((data.(j - 1) *. float_of_int (n - delta)) +. (data.(j) *. float_of_int delta))
    /. float_of_int n

let median values = quantile ~n:2 ~i:1 values

let quartiles values =
  (quantile ~n:4 ~i:1 values, median values, quantile ~n:4 ~i:3 values)

(* interquartile range as a share of the median *)
let spread values =
  let q1, m, q3 = quartiles values in
  if m = 0.0 then 0.0 else (q3 -. q1) /. Float.abs m
