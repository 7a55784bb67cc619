type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create ~seed = { state = mix (Int64.of_int seed) }

let next_int64 g =
  g.state <- Int64.add g.state golden_gamma;
  mix g.state

(* Independent stream [index] of a campaign seed. The salt multiplies the
   (shifted) index by the odd golden gamma — a bijection on 64-bit words —
   and mixes, so distinct (seed, index) pairs map to distinct states and
   the mapping is a pure function of its arguments: the same pair is
   bit-reproducible across runs, processes and worker counts. *)
let of_seed_index ~seed ~index =
  let base = mix (Int64.of_int seed) in
  let salt =
    mix (Int64.mul (Int64.add (Int64.of_int index) 1L) golden_gamma)
  in
  { state = mix (Int64.logxor base salt) }

(* A per-domain scratch stream (Domain.DLS). Seeded from a process-wide
   spawn counter, so its values depend on domain spawn order: fine for
   diagnostics and test-interleaving shuffles, never for stimulus — all
   stimulus must flow from [of_seed_index]/[substream] so campaigns stay
   reproducible for any worker count. *)
module Domain_local = struct
  let spawn_counter = Atomic.make 0

  let key =
    Domain.DLS.new_key (fun () ->
        of_seed_index ~seed:0x5EED
          ~index:(Atomic.fetch_and_add spawn_counter 1))

  let stream () = Domain.DLS.get key
end

(* FNV-1a over the name, folded into the stream state *)
let split g name =
  let hash = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      hash := Int64.logxor !hash (Int64.of_int (Char.code c));
      hash := Int64.mul !hash 0x100000001B3L)
    name;
  { state = mix (Int64.logxor g.state !hash) }

let bits g = Int64.to_int (Int64.shift_right_logical (next_int64 g) 2)

let int_range g ~lo ~hi =
  if lo > hi then
    invalid_arg (Printf.sprintf "Prng.int_range: empty range [%d,%d]" lo hi);
  let span = hi - lo + 1 in
  lo + (bits g mod span)

let bool g = Int64.logand (next_int64 g) 1L = 1L

let chance g p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else float_of_int (bits g) /. 4611686018427387904.0 < p

let pick g = function
  | [] -> invalid_arg "Prng.pick: empty list"
  | items -> List.nth items (int_range g ~lo:0 ~hi:(List.length items - 1))

let pick_weighted g weighted =
  let total = List.fold_left (fun acc (w, _) -> acc + max 0 w) 0 weighted in
  if total <= 0 then invalid_arg "Prng.pick_weighted: no positive weight";
  let target = int_range g ~lo:0 ~hi:(total - 1) in
  let rec walk remaining = function
    | [] -> invalid_arg "Prng.pick_weighted: exhausted"
    | (w, item) :: rest ->
      let w = max 0 w in
      if remaining < w then item else walk (remaining - w) rest
  in
  walk target weighted
