let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;  (** 0: no enclosing span *)
  op : int;
}

type t = {
  origin : float;
  mutable spans : span list;  (** newest first *)
  mutable next_id : int;
  mutable open_ : int list;  (** innermost first *)
  mutable op : int;
  counters : (string, int) Hashtbl.t;
}

let create () =
  { origin = now (); spans = []; next_id = 1; open_ = []; op = 0;
    counters = Hashtbl.create 16 }

let op t n = t.op <- n

let span t name f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = match t.open_ with p :: _ -> p | [] -> 0 in
  t.open_ <- id :: t.open_;
  let start = now () -. t.origin in
  let finish () =
    let stop = now () -. t.origin in
    t.open_ <- List.tl t.open_;
    t.spans <- { id; name; start; stop; parent; op = t.op } :: t.spans
  in
  Fun.protect ~finally:finish f

let durations t name =
  List.filter_map (fun s -> if s.name = name then Some (s.stop -. s.start) else None) t.spans
  |> List.rev |> Array.of_list

let count t name n =
  Hashtbl.replace t.counters name (n + Option.value (Hashtbl.find_opt t.counters name) ~default:0)

let write t path =
  let module J = Dice_util.Json in
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc
        (J.to_string
           (J.obj
              [ ("span", J.string s.name); ("id", J.int s.id); ("parent", J.int s.parent);
                ("op", J.int s.op); ("start_s", J.float s.start); ("end_s", J.float s.stop) ]));
      output_char oc '\n')
    (List.rev t.spans);
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.counters []
  |> List.sort compare
  |> List.iter (fun (k, v) ->
         output_string oc (J.to_string (J.obj [ ("counter", J.string k); ("value", J.int v) ]));
         output_char oc '\n');
  close_out oc
