module Router = Dice_bgp.Router

type progress = {
  updates_sent : int;
  updates_processed : int;
  wall_seconds : float;
}

let feed ?(on_update = fun _ -> ()) router ~peer msgs =
  let t0 = Unix.gettimeofday () in
  let before = Router.updates_processed router in
  let sent = ref 0 in
  List.iter
    (fun msg ->
      ignore (Router.handle_msg router ~peer msg);
      incr sent;
      on_update !sent)
    msgs;
  {
    updates_sent = !sent;
    updates_processed = Router.updates_processed router - before;
    wall_seconds = Unix.gettimeofday () -. t0;
  }

let feed_dump ?on_update router ~peer ~next_hop (t : Gen.t) =
  feed ?on_update router ~peer (Gen.to_updates t ~peer_as:t.collector_as ~next_hop)

let feed_events ?on_update router ~peer ~next_hop (t : Gen.t) =
  let msgs =
    Array.to_list (Array.map (Gen.event_update ~entry_next_hop:next_hop) t.events)
  in
  feed ?on_update router ~peer msgs

let schedule net ~from_node ~to_node ?(start_at = 0.0) ?(dump_pace = 0.001) ~next_hop
    (t : Gen.t) =
  let module Net = Dice_sim.Network in
  let count = ref 0 in
  Array.iteri
    (fun i e ->
      let msg = Gen.update_of_entry ~next_hop e in
      let when_ = start_at +. (float_of_int i *. dump_pace) in
      Net.schedule_at net ~time:(max (Net.now net) when_) (fun () ->
          Net.send net ~src:from_node ~dst:to_node (Dice_bgp.Router_node.frame_bgp msg));
      incr count)
    t.dump;
  let dump_end = start_at +. (float_of_int (Array.length t.dump) *. dump_pace) in
  Array.iter
    (fun ev ->
      let msg = Gen.event_update ~entry_next_hop:next_hop ev in
      let when_ = dump_end +. Gen.event_time ev in
      Net.schedule_at net ~time:(max (Net.now net) when_) (fun () ->
          Net.send net ~src:from_node ~dst:to_node (Dice_bgp.Router_node.frame_bgp msg));
      incr count)
    t.events;
  !count
