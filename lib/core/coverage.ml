module SS = Set.Make (String)

type t = {
  cov_name : string;
  expected : SS.t;
  mutable seen : SS.t;
  mutable outside : SS.t;
  mutable count : int;
}

let create ~name ~expected =
  {
    cov_name = name;
    expected = SS.of_list expected;
    seen = SS.empty;
    outside = SS.empty;
    count = 0;
  }

let observe coverage value =
  coverage.count <- coverage.count + 1;
  if SS.mem value coverage.expected then
    coverage.seen <- SS.add value coverage.seen
  else coverage.outside <- SS.add value coverage.outside

let observations coverage = coverage.count
let observed coverage = SS.elements coverage.seen
let missing coverage = SS.elements (SS.diff coverage.expected coverage.seen)
let unexpected coverage = SS.elements coverage.outside

let percent coverage =
  let total = SS.cardinal coverage.expected in
  if total = 0 then 100.0
  else 100.0 *. float_of_int (SS.cardinal coverage.seen) /. float_of_int total

let reset coverage =
  coverage.seen <- SS.empty;
  coverage.outside <- SS.empty;
  coverage.count <- 0

let merge a b =
  if not (String.equal a.cov_name b.cov_name && SS.equal a.expected b.expected)
  then invalid_arg "Coverage.merge: incompatible collectors";
  {
    cov_name = a.cov_name;
    expected = a.expected;
    seen = SS.union a.seen b.seen;
    outside = SS.union a.outside b.outside;
    count = a.count + b.count;
  }
