(* Self-tests for the benchmark's own helpers: the percentile rule, the
   metric-name charset and span nesting. Run by [dune runtest] or
   [python3 perfbench/run.py --self-test]. *)

open Perfbench

let failures = ref 0
let checks = ref 0

let check name ok =
  incr checks;
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close a b = Float.abs (a -. b) < 1e-9
let ramp n = Array.init n (fun i -> float_of_int (i + 1))

let () =
  (* the percentile helper *)
  check "p90 refused below 100 samples" (Bstats.percentile 0.9 (ramp 99) = None);
  check "p90 given at 100 samples" (Bstats.percentile 0.9 (ramp 100) <> None);
  check "p90 of 1..100" (match Bstats.percentile 0.9 (ramp 100) with Some v -> close v 90.1 | None -> false);
  check "p99 needs 1000 samples" (Bstats.min_samples 0.99 = 1000 && Bstats.percentile 0.99 (ramp 999) = None);
  check "p50 from one sample" (Bstats.percentile 0.5 [| 3.0 |] = Some 3.0);
  check "p50 interpolates" (Bstats.percentile 0.5 [| 4.0; 1.0; 3.0; 2.0 |] = Some 2.5);
  check "median ignores order" (close (Bstats.median [| 5.0; 1.0; 3.0 |]) 3.0);
  check "median of nothing raises"
    (match Bstats.median [||] with _ -> false | exception Invalid_argument _ -> true);
  check "percentile input left unsorted"
    (let xs = [| 3.0; 1.0; 2.0 |] in
     ignore (Bstats.median xs);
     xs = [| 3.0; 1.0; 2.0 |]);
  (* the metric-name and unit charsets *)
  List.iter
    (fun n -> check ("name ok: " ^ n) (Bstats.valid_name n))
    [ "ops_per_s"; "latency_p90_ms"; "speaker.feed_us.bird"; "explore-live"; "9"; String.make 64 'a' ];
  List.iter
    (fun n -> check ("name refused: " ^ n) (not (Bstats.valid_name n)))
    [ ""; "_x"; ".x"; "-x"; "a b"; "a/b"; "p90%"; String.make 65 'a' ];
  List.iter (fun u -> check ("unit ok: " ^ u) (Bstats.valid_unit u)) [ "ms"; "1/s"; "%"; "count"; "MB"; "us" ];
  List.iter
    (fun u -> check ("unit refused: " ^ u) (not (Bstats.valid_unit u)))
    [ ""; "m s"; "ms,"; String.make 17 's' ];
  (* spans nest and keep their op *)
  let t = Btrace.create () in
  Btrace.op t 7;
  let v = Btrace.span t "outer" (fun () -> Btrace.span t "inner" (fun () -> 42)) in
  check "span returns its value" (v = 42);
  check "one span per call" (Array.length (Btrace.durations t "inner") = 1);
  check "outer covers inner" ((Btrace.durations t "outer").(0) >= (Btrace.durations t "inner").(0));
  (match Btrace.span t "raises" (fun () -> failwith "x") with
  | _ -> check "span re-raises" false
  | exception Failure _ -> check "span closed on exception" (Array.length (Btrace.durations t "raises") = 1));
  Printf.printf "perfbench self-test: %d/%d checks passed\n" (!checks - !failures) !checks;
  exit (if !failures = 0 then 0 else 1)
