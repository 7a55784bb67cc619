(* Three parallel int arrays instead of an entry record per element, so
   that neither [push] nor [pop] allocates once the arrays have grown,
   and no store needs the write barrier. An element is ordered by its
   key, then by its insertion sequence for stability. *)
type t = {
  mutable keys : int array;
  mutable seqs : int array;
  mutable values : int array;
  mutable size : int;
  mutable next_seq : int;
}

let create () =
  { keys = [||]; seqs = [||]; values = [||]; size = 0; next_seq = 0 }

let is_empty heap = heap.size = 0

let before heap i j =
  let ki = heap.keys.(i) and kj = heap.keys.(j) in
  ki < kj || (ki = kj && heap.seqs.(i) < heap.seqs.(j))

let swap heap i j =
  let key = heap.keys.(i) and seq = heap.seqs.(i) in
  let value = heap.values.(i) in
  heap.keys.(i) <- heap.keys.(j);
  heap.seqs.(i) <- heap.seqs.(j);
  heap.values.(i) <- heap.values.(j);
  heap.keys.(j) <- key;
  heap.seqs.(j) <- seq;
  heap.values.(j) <- value

let grow heap =
  let capacity = Array.length heap.keys in
  if heap.size = capacity then begin
    let fresh = max 16 (2 * capacity) in
    let extend array =
      let bigger = Array.make fresh 0 in
      Array.blit array 0 bigger 0 heap.size;
      bigger
    in
    heap.keys <- extend heap.keys;
    heap.seqs <- extend heap.seqs;
    heap.values <- extend heap.values
  end

(* top level, not local closures over [heap]: without flambda those
   would be allocated on every push and pop *)
let rec sift_up heap i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before heap i parent then begin
      swap heap i parent;
      sift_up heap parent
    end
  end

let rec sift_down heap i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let smallest = if left < heap.size && before heap left i then left else i in
  let smallest =
    if right < heap.size && before heap right smallest then right
    else smallest
  in
  if smallest <> i then begin
    swap heap i smallest;
    sift_down heap smallest
  end

let push heap key value =
  grow heap;
  let last = heap.size in
  heap.keys.(last) <- key;
  heap.seqs.(last) <- heap.next_seq;
  heap.values.(last) <- value;
  heap.next_seq <- heap.next_seq + 1;
  heap.size <- last + 1;
  sift_up heap last

let min_key heap =
  if heap.size = 0 then raise Not_found;
  heap.keys.(0)

let pop heap =
  if heap.size = 0 then raise Not_found;
  let top = heap.values.(0) in
  let last = heap.size - 1 in
  heap.size <- last;
  if last > 0 then begin
    heap.keys.(0) <- heap.keys.(last);
    heap.seqs.(0) <- heap.seqs.(last);
    heap.values.(0) <- heap.values.(last);
    sift_down heap 0
  end;
  top
