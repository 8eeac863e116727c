(* fleet-stream: many domains at once. The 16-domain generated fleet
   (seed 31, all three implementations) absorbs batches of collector
   updates, 48 per domain, each batch with its own seed, propagating to
   quiescence with every 8th routed message probed. One op is one
   delivered message; latency is per batch, from feed to quiescence.

   The stream runs on one worker: at two, the same batches ran slower and
   spread three times wider from run to run on a two-core box. The output
   check still drives the first batch at both, and the traced run times
   one session at two workers to report what pool dispatch costs there.

   Fresh prefixes grow every table, and batch time grows with them, so
   the stream runs in sessions: [batches_per_session] batches on a freshly
   realized fleet, every session replaying the same batch seeds. A run
   measures whole sessions; rebuilding between them is off the clock. *)

open Dice_core
open Common
module Spec = Dice_topology.Topology.Spec
module Fleet = Dice_topology.Fleet
module Pool = Dice_exec.Pool
module Gen = Dice_trace.Gen

let domains = 16
let topology_seed = 31L
let jobs = 1
let pool_jobs = 2
let updates_per_domain = 48
let probe_every = 8
let batches_per_session = 8
let max_rounds = 64

let spec = Dice_topology.Gen.generate ~seed:topology_seed ~domains ()

let fresh () =
  let fl = Fleet.realize spec in
  Fleet.establish fl;
  fl

(* Batch seeds sit 64 apart: a batch feeds domain i the trace seeded
   [batch seed + i], so nearer seeds would share traces across batches. *)
let batch_seed seed k = Int64.of_int ((seed * 4096) + (64 * k))

let drive ~jobs fl seed k =
  Fleet.drive ~jobs ~max_rounds ~probe_every ~updates_per_domain ~seed:(batch_seed seed k) fl

(* Per-member import cost: a clone of the domain's live speaker absorbs
   the domain's share of a batch no session feeds. *)
let feed_samples tr seed fl =
  List.mapi
    (fun i (d : Spec.domain) ->
      let trace =
        Gen.generate
          { Gen.default_params with
            Gen.seed = Int64.add (batch_seed seed batches_per_session) (Int64.of_int i);
            n_prefixes = updates_per_domain;
            n_ases = 100;
            duration = 0.0 }
      in
      let peer = Spec.feed_addr spec d.Spec.name in
      let clone = Speaker.clone (Fleet.speaker fl d.Spec.name) in
      let msgs = Gen.to_updates trace ~peer_as:Spec.feed_as ~next_hop:peer in
      let feed m =
        span tr ("speaker.feed." ^ d.Spec.speaker) (fun () -> Speaker.feed clone ~peer m)
      in
      (d.Spec.speaker, List.map (fun m -> snd (timed (fun () -> feed m))) msgs))
    spec.Spec.domains

let run ~seed ~seconds ~trace:tr =
  let fl, setup_s = setup fresh in
  (* the output check: the first batch gives the same stats on the pool *)
  let reference = drive ~jobs:pool_jobs (fresh ()) seed 0 in
  let fl = ref fl in
  let batches = ref [] and failed = ref 0 and jobs_agree = ref true and quiesced = ref true in
  let clock = start () in
  let sessions = ref 0 in
  while elapsed clock < seconds do
    incr sessions;
    if !sessions > 1 then
      excluded clock (fun () ->
          fl := fresh ();
          Gc.full_major ());
    for k = 0 to batches_per_session - 1 do
      Option.iter (fun t -> Perfbench.Btrace.op t (List.length !batches + 1)) tr;
      let st, dt = timed (fun () -> span tr "fleet.drive" (fun () -> drive ~jobs !fl seed k)) in
      batches := (st, dt) :: !batches;
      excluded clock (fun () ->
          let same = k > 0 || st = reference in
          let clean =
            st.Fleet.rounds < max_rounds && st.Fleet.dropped_down = 0 && st.Fleet.skipped_feeds = 0
          in
          if not same then jobs_agree := false;
          if not clean then quiesced := false;
          if not (same && clean) then failed := !failed + st.Fleet.delivered)
    done
  done;
  let elapsed_s = elapsed clock in
  Option.iter (fun t -> Perfbench.Btrace.op t 0) tr;
  let batches = List.rev !batches in
  let total f = List.fold_left (fun acc ((st : Fleet.stats), _) -> acc + f st) 0 batches in
  let delivered = total (fun s -> s.Fleet.delivered) and fed = total (fun s -> s.Fleet.fed) in
  let latencies = Array.of_list (List.map snd batches) in
  let ops_per_s = float_of_int delivered /. elapsed_s in
  let metrics =
    match tr with
    | None ->
      end_to_end ~ops:delivered ~elapsed_s ~latencies
        ~live_updates_per_s:(float_of_int fed /. elapsed_s) ~setup_s
    | Some _ ->
      let rounds = total (fun s -> s.Fleet.rounds)
      and probes = total (fun s -> s.Fleet.probes)
      and verdicts = total (fun s -> s.Fleet.verdicts)
      and emitted = total (fun s -> s.Fleet.emitted)
      and dropped = total (fun s -> s.Fleet.dropped_down) in
      counters tr
        [ ("fleet.batches", List.length batches); ("fleet.fed", fed);
          ("fleet.delivered", delivered); ("fleet.emitted", emitted);
          ("fleet.to_collector", total (fun s -> s.Fleet.to_collector)); ("fleet.rounds", rounds);
          ("fleet.probes", probes); ("fleet.verdicts", verdicts); ("fleet.dropped_down", dropped);
          ("fleet.skipped_feeds", total (fun s -> s.Fleet.skipped_feeds)) ];
      let per_batch n = float_of_int n /. float_of_int (List.length batches) in
      (* pool dispatch at two workers, and its share of one session run there *)
      let dispatch =
        sample tr "pool.map" (fun () -> Pool.map ~jobs:pool_jobs Fun.id (List.init domains Fun.id))
      in
      let pooled = fresh () in
      let on_pool =
        List.init batches_per_session (fun k ->
            let batch () = drive ~jobs:pool_jobs pooled seed k in
            timed (fun () -> span tr "fleet.drive.pool" batch))
      in
      let pool_rounds =
        List.fold_left (fun acc ((st : Fleet.stats), _) -> acc + st.Fleet.rounds) 0 on_pool
      and pool_busy = List.fold_left (fun acc (_, dt) -> acc +. dt) 0.0 on_pool in
      let feeds = feed_samples tr seed !fl in
      let feed_us impl =
        let times = List.concat_map (fun (i, ts) -> if i = impl then ts else []) feeds in
        metric ("speaker.feed_us." ^ impl) "us" (us (median (Array.of_list times)))
      in
      [ metric "trace.ops_per_s" "1/s" ops_per_s;
        metric "fleet.rounds_per_batch" "count" (per_batch rounds);
        metric "fleet.delivered_per_batch" "count" (per_batch delivered);
        metric "fleet.emitted_per_batch" "count" (per_batch emitted);
        metric "pool.dispatch_us" "us" (us dispatch);
        metric "pool.dispatch_share" "ratio" (float_of_int pool_rounds *. dispatch /. pool_busy);
        metric "fleet.probes" "count" (float_of_int probes);
        metric "fleet.verdicts" "count" (float_of_int verdicts);
        metric "fleet.dropped" "count" (float_of_int dropped) ]
      @ List.map feed_us Speakers.names
  in
  { attempted = delivered;
    failed = !failed;
    checks =
      [ ("first_batch_same_at_jobs_1_and_2", !jobs_agree); ("every_batch_quiesced", !quiesced) ];
    metrics;
    info =
      [ ("batches", Json.int (List.length batches)); ("sessions", Json.int !sessions);
        ("fed", Json.int fed); ("delivered", Json.int delivered) ] }
