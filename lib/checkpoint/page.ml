let default_size = 4096

type id = { hash : int64; len : int }

let id_of buf off len = { hash = Dice_util.Hashutil.fnv1a_bytes buf off len; len }

let split ~page_size b =
  assert (page_size > 0);
  let total = Bytes.length b in
  let rec go off acc =
    if off >= total then List.rev acc
    else begin
      let len = min page_size (total - off) in
      go (off + len) (id_of b off len :: acc)
    end
  in
  if total = 0 then [] else go 0 []

let count ~page_size size =
  assert (page_size > 0);
  (size + page_size - 1) / page_size

let equal_id a b = Int64.equal a.hash b.hash && a.len = b.len
