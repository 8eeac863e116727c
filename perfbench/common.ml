(* What every workload shares: the outcome record, the measured clock,
   set-up timing, optional spans, and the end-to-end metric set. *)

module Json = Dice_util.Json

type metric = { name : string; unit_ : string; value : float }

let metric name unit_ value = { name; unit_; value }

type outcome = {
  attempted : int;  (** operations attempted *)
  failed : int;  (** operations whose output check failed *)
  checks : (string * bool) list;  (** every named output check and its result *)
  metrics : metric list;  (** end-to-end, or per-layer in a traced run *)
  info : (string * Json.t) list;  (** facts printed beside the result *)
}

let now = Perfbench.Btrace.now
let median = Perfbench.Bstats.median

(* Spans only in the traced run: the untraced run pays one match. *)
let span tr name f = match tr with None -> f () | Some t -> Perfbench.Btrace.span t name f

(* The library's own counters, copied into the trace beside the spans. *)
let counters tr kvs =
  Option.iter (fun t -> List.iter (fun (k, v) -> Perfbench.Btrace.count t k v) kvs) tr

(* The measured clock: wall time since [start], minus the time spent
   checking outputs, which belongs to the benchmark, not the system. *)
type clock = { t0 : float; mutable excluded : float }

let start () = { t0 = now (); excluded = 0.0 }
let elapsed c = now () -. c.t0 -. c.excluded

let excluded c f =
  let t = now () in
  Fun.protect ~finally:(fun () -> c.excluded <- c.excluded +. (now () -. t)) f

let timed f =
  let t = now () in
  let r = f () in
  (r, now () -. t)

(* Build the workload's state 15 times from scratch, keep the last, and
   report the median build time: one build is too short to time steadily.
   Each build starts with the previous state dropped and collected, so
   builds neither overlap in memory nor pay for each other's garbage. *)
let setup build =
  let state = ref None in
  let times =
    Array.init 15 (fun _ ->
        state := None;
        Gc.full_major ();
        let s, dt = timed build in
        state := Some s;
        dt)
  in
  Gc.full_major ();
  (Option.get !state, median times)

(* VmHWM: the process's resident high-water mark, every domain included. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let ms s = 1000.0 *. s
let us s = 1_000_000.0 *. s

(* The end-to-end set. [latencies] are per-op seconds; a p90 over fewer
   than 100 ops is refused and left out, which the runner reports as a
   missing metric. *)
let end_to_end ~ops ~elapsed_s ~latencies ~live_updates_per_s ~setup_s =
  let pct p = Perfbench.Bstats.percentile p latencies in
  List.concat
    [ [ metric "ops_per_s" "1/s" (float_of_int ops /. elapsed_s) ];
      (match pct 0.5 with Some v -> [ metric "latency_p50_ms" "ms" (ms v) ] | None -> []);
      (match pct 0.9 with Some v -> [ metric "latency_p90_ms" "ms" (ms v) ] | None -> []);
      [ metric "live_updates_per_s" "1/s" live_updates_per_s;
        metric "setup_s" "s" setup_s;
        metric "peak_rss_mb" "MB" (peak_rss_mb ()) ] ]

(* A layer call timed on its own, outside any operation: the median over
   21 samples of the time per call. A sample repeats the call until it
   spans 100 us, so sub-microsecond calls read above the clock's cost. *)
let sample tr name f =
  let one () =
    span tr name (fun () ->
        let t0 = now () and calls = ref 0 in
        while now () -. t0 < 1e-4 do
          ignore (f ());
          incr calls
        done;
        (now () -. t0) /. float_of_int !calls)
  in
  median (Array.init 21 (fun _ -> one ()))
