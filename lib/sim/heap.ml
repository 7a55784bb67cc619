type 'a entry = { key : int; seq : int; value : 'a }

type 'a t = {
  mutable data : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { data = [||]; size = 0; next_seq = 0 }

let is_empty heap = heap.size = 0

(* Entry ordering: by key, then by insertion sequence for stability. *)
let before a b = a.key < b.key || (a.key = b.key && a.seq < b.seq)

let grow heap entry =
  let capacity = Array.length heap.data in
  if heap.size = capacity then begin
    let fresh = Array.make (max 16 (2 * capacity)) entry in
    Array.blit heap.data 0 fresh 0 heap.size;
    heap.data <- fresh
  end

let push heap key value =
  let entry = { key; seq = heap.next_seq; value } in
  heap.next_seq <- heap.next_seq + 1;
  grow heap entry;
  heap.data.(heap.size) <- entry;
  heap.size <- heap.size + 1;
  (* sift up *)
  let rec up i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if before heap.data.(i) heap.data.(parent) then begin
        let tmp = heap.data.(i) in
        heap.data.(i) <- heap.data.(parent);
        heap.data.(parent) <- tmp;
        up parent
      end
    end
  in
  up (heap.size - 1)

let min_key heap = if heap.size = 0 then None else Some heap.data.(0).key

let pop heap =
  if heap.size = 0 then raise Not_found;
  let top = heap.data.(0) in
  heap.size <- heap.size - 1;
  if heap.size > 0 then begin
    heap.data.(0) <- heap.data.(heap.size);
    (* sift down *)
    let rec down i =
      let left = (2 * i) + 1 and right = (2 * i) + 2 in
      let smallest = ref i in
      if left < heap.size && before heap.data.(left) heap.data.(!smallest) then
        smallest := left;
      if right < heap.size && before heap.data.(right) heap.data.(!smallest)
      then smallest := right;
      if !smallest <> i then begin
        let tmp = heap.data.(i) in
        heap.data.(i) <- heap.data.(!smallest);
        heap.data.(!smallest) <- tmp;
        down !smallest
      end
    in
    down 0
  end;
  (top.key, top.value)
