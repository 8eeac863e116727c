open Dice_inet
open Dice_bgp
module Wbuf = Dice_wire.Wbuf
module Rbuf = Dice_wire.Rbuf

type quorum =
  | Full
  | Degraded of string list

type divergence = {
  prefix : Prefix.t;
  answers : (string * Verdict.t option) list;
  majority : Verdict.t;
  outliers : string list;
  tie_break_only : bool;
  quorum : quorum;
}

let signature d =
  Printf.sprintf "%s|%s|%s"
    (Prefix.to_string d.prefix)
    (if d.tie_break_only then "tiebreak" else "semantic")
    (String.concat "," (List.sort compare d.outliers))

let pp_divergence ppf d =
  let pp_answer ppf (name, v) =
    Format.fprintf ppf "%-8s %a%s" (name ^ ":")
      (fun ppf -> function
        | Some v -> Verdict.pp ppf v
        | None -> Format.pp_print_string ppf "no answer")
      v
      (if List.mem name d.outliers then "   <- outlier" else "")
  in
  Format.fprintf ppf "@[<v 2>%s %s%s:@,%a@,%-8s %a@]"
    (Prefix.to_string d.prefix)
    (if d.tie_break_only then "tie-break divergence" else "divergence")
    (match d.quorum with
    | Full -> ""
    | Degraded absent ->
      Printf.sprintf " (degraded: %s down)" (String.concat "," absent))
    (Format.pp_print_list pp_answer) d.answers "majority:" Verdict.pp d.majority

(* Field-wise majority vote. Earliest occurrence wins a tie, so the
   result is deterministic in panel order (and, for a two-member
   panel, degenerates to "the first member's answer" exactly when the
   members split 1-1 — outlier naming is only meaningful from three
   members up, which is the point of the panel). *)
let plurality values =
  match values with
  | [] -> invalid_arg "Panel.plurality: no values"
  | first :: _ ->
    let count v = List.length (List.filter (( = ) v) values) in
    fst
      (List.fold_left
         (fun (bv, bc) v ->
           let c = count v in
           if c > bc then (v, c) else (bv, bc))
         (first, count first) values)

let majority_of answered =
  {
    Verdict.accepted = plurality (List.map (fun v -> v.Verdict.accepted) answered);
    installed = plurality (List.map (fun v -> v.Verdict.installed) answered);
    origin_conflict = plurality (List.map (fun v -> v.Verdict.origin_conflict) answered);
    covers_foreign = plurality (List.map (fun v -> v.Verdict.covers_foreign) answered);
    would_propagate = plurality (List.map (fun v -> v.Verdict.would_propagate) answered);
  }

(* The facts the decision process cannot touch: whether policy accepted
   the route and whether it conflicts with an installed origin.
   Conformant speakers must agree on these; everything downstream of
   the decision process ([installed], and through export also
   [covers_foreign]/[would_propagate]) may legitimately differ under
   different tie-breaking orders. *)
let tie_break_pair (a : Verdict.t) (b : Verdict.t) =
  a.Verdict.accepted = b.Verdict.accepted
  && a.Verdict.origin_conflict = b.Verdict.origin_conflict

let diverging prefix answers =
  let answered = List.filter_map snd answers in
  if answered = [] then None (* nothing crossed the interface anywhere *)
  else begin
    let all_equal =
      List.length answered = List.length answers
      && List.for_all (fun v -> Verdict.equal v (List.hd answered)) answered
    in
    if all_equal then None
    else begin
      let majority = majority_of answered in
      let outliers =
        List.filter_map
          (fun (name, v) ->
            match v with
            | None -> Some name
            | Some v -> if Verdict.equal v majority then None else Some name)
          answers
      in
      let tie_break_only =
        List.length answered = List.length answers
        && List.for_all (fun v -> tie_break_pair v (List.hd answered)) answered
      in
      Some { prefix; answers; majority; outliers; tie_break_only; quorum = Full }
    end
  end

(* Pair one exchange's outcomes prefix by prefix. Verdict lists follow
   NLRI order, but a declined member contributes nothing — index on
   the prefix instead of zipping. *)
let divergences_of agents outcomes =
  let vs = function
    | Distributed.Verdicts vs -> Some vs
    | Distributed.Declined _ | Distributed.Timeout -> None
  in
  let tagged = List.map2 (fun a o -> (Distributed.agent_name a, vs o)) agents outcomes in
  let prefixes =
    List.sort_uniq Prefix.compare
      (List.concat_map
         (fun (_, o) -> match o with Some vs -> List.map fst vs | None -> [])
         tagged)
  in
  List.filter_map
    (fun prefix ->
      diverging prefix
        (List.map
           (fun (name, o) ->
             (name, match o with Some vs -> List.assoc_opt prefix vs | None -> None))
           tagged))
    prefixes

let rec chunk n = function
  | [] -> []
  | l ->
    let rec take k = function
      | rest when k = 0 -> ([], rest)
      | [] -> invalid_arg "Panel.chunk: ragged outcome list"
      | x :: rest ->
        let h, t = take (k - 1) rest in
        (x :: h, t)
    in
    let h, t = take n l in
    h :: chunk n t

(* The one health-based membership split. Voting (quorum) and the
   fleet's update-stream drive loop must agree on who is out: a member
   the monitor marks [Down] is excluded from BOTH, or a crashed domain
   would silently stall the stream while still being skipped at the
   vote. *)
let eligible agents =
  List.partition
    (fun a -> Health.state (Distributed.agent_health a) <> Health.Down)
    agents

(* Quorum over live members: a panel can out-vote one crashed member,
   but a vote without a strict majority of members would let a minority
   (or a single survivor) masquerade as "the majority verdict". *)
let quorum_of agents =
  let live, down = eligible agents in
  match down with
  | [] -> `Full
  | _ ->
    let names = List.map Distributed.agent_name down in
    if 2 * List.length live > List.length agents then `Degraded names else `Lost names

let probe ~jobs ~agents exchanges =
  let n = List.length agents in
  if n = 0 then invalid_arg "Panel.probe: empty panel";
  (* Down members are excluded from the vote while a majority survives:
     their timeouts would otherwise read as "gave no answer" outliers
     and flood every prefix with spurious divergences. With quorum lost
     the panel probes everyone anyway — gating belongs to the hunt
     ({!make_checker} pauses), not to a one-shot probe. *)
  let voting, absent =
    match quorum_of agents with
    | `Degraded down -> (List.filter (fun a -> not (List.mem (Distributed.agent_name a) down)) agents, down)
    | `Full | `Lost _ -> (agents, [])
  in
  let vn = List.length voting in
  let reqs =
    List.concat_map (fun (from, msg) -> List.map (fun a -> (a, from, msg)) voting) exchanges
  in
  let answers = Distributed.probe_all ~jobs reqs in
  List.concat_map (divergences_of voting) (chunk vn answers)
  |> List.map (fun d ->
         match absent with
         | [] -> d
         | absent -> { d with quorum = Degraded absent })
  (* prefix-sorted, stably: reports are deterministic across runs and
     job counts, and equal prefixes keep schedule order *)
  |> List.stable_sort (fun a b -> Prefix.compare a.prefix b.prefix)

type hit = {
  schedule : (Ipv4.t * Msg.t) list;
  divergence : divergence;
}

let make_checker ?(on_pause = fun _ -> ()) ~jobs ~agents ~sink () =
  let name = "panel" in
  let addresses = List.map Distributed.agent_addr agents in
  let check (cctx : Checker.context) (outcome : Speaker.import_outcome) =
    if not outcome.Speaker.accepted then []
    else begin
      let exchanges =
        List.filter_map
          (fun (dst, out) ->
            match out with
            | Msg.Update _ when List.mem dst addresses ->
              (* every panel member hears the message on the same
                 claimed session: the exploring node's address as the
                 members know it *)
              Some
                (Distributed.agent_explorer_addr (List.hd agents), (out : Msg.t))
            | _ -> None)
          outcome.Speaker.outputs
      in
      let details_of d =
        [ ("panel", String.concat "," (List.map Distributed.agent_name agents));
          ("local-prefix", Prefix.to_string outcome.Speaker.prefix);
          ("via-peer", Ipv4.to_string cctx.Checker.peer);
          ("majority", Verdict.to_string d.majority);
          ("outliers", String.concat "," d.outliers);
        ]
        @ (match d.quorum with
          | Full -> []
          | Degraded absent -> [ ("quorum-absent", String.concat "," absent) ])
        @ List.concat_map
            (fun (member, v) ->
              match v with
              | Some v -> Verdict.to_details ~prefix:(member ^ "-") v
              | None -> [ (member ^ "-answer", "none") ])
            d.answers
      in
      (* Quorum loss pauses the hunt: a minority vote would produce
         verdicts no one should trust, so the checker reports nothing
         for this outcome and tells the caller who is down. Probing
         resumes by itself on the next outcome once recovery (or the
         health monitor's positive evidence) brings members back. *)
      match quorum_of agents with
      | `Lost down ->
        on_pause down;
        []
      | `Full | `Degraded _ ->
      let divergences = probe ~jobs ~agents exchanges in
      List.iter (fun divergence -> sink { schedule = exchanges; divergence }) divergences;
      List.map
        (fun d ->
          if d.tie_break_only then
            { Checker.checker = name ^ "-tiebreak";
              severity = Checker.Warning;
              prefix = d.prefix;
              description =
                Printf.sprintf
                  "panel splits on the decision process; outlier(s): %s"
                  (String.concat ", " d.outliers);
              details = details_of d;
            }
          else
            { Checker.checker = name ^ "-divergence";
              severity = Checker.Critical;
              prefix = d.prefix;
              description =
                Printf.sprintf
                  "panel disagrees across the narrow interface; outlier(s): %s"
                  (String.concat ", " d.outliers);
              details = details_of d;
            })
        divergences
    end
  in
  { Checker.name; check }

let checker ~jobs ~agents = make_checker ~jobs ~agents ~sink:(fun _ -> ()) ()
let hunt ?on_pause ~jobs ~agents ~sink () = make_checker ?on_pause ~jobs ~agents ~sink ()

(* ------------------------------------------------------------------ *)
(* Replay artifacts                                                    *)
(* ------------------------------------------------------------------ *)

module Artifact = struct
  type config_source =
    | Config_text of string
    | Intent_text of string

  type t = {
    speakers : string list;
    source : config_source;
    setup : (Ipv4.t * Msg.t) list;
    schedule : (Ipv4.t * Msg.t) list;
    signature : string;
    absent : string list;
  }

  let magic = "DICERPR1"
  let version = 3

  let put_string16 b s =
    if String.length s > 0xFFFF then invalid_arg "Panel.Artifact: string too long";
    Wbuf.u16 b (String.length s);
    Wbuf.string b s

  let get_string16 ~what r =
    let len = Rbuf.u16 ~what r in
    Bytes.to_string (Rbuf.take ~what r len)

  let put_exchanges b exchanges =
    if List.length exchanges > 0xFFFF then
      invalid_arg "Panel.Artifact: schedule too long";
    Wbuf.u16 b (List.length exchanges);
    List.iter
      (fun (addr, msg) ->
        Wbuf.u32 b addr;
        let encoded = Msg.encode msg in
        Wbuf.u16 b (Bytes.length encoded);
        Wbuf.bytes b encoded)
      exchanges

  let get_exchanges ~what r =
    let n = Rbuf.u16 ~what r in
    List.init n (fun _ ->
        let addr = Rbuf.u32 ~what:(what ^ " session") r in
        let len = Rbuf.u16 ~what:(what ^ " message length") r in
        let encoded = Rbuf.take ~what:(what ^ " message") r len in
        match Msg.decode encoded with
        | Ok msg -> (addr, msg)
        | Error e ->
          raise
            (Rbuf.Truncated
               (Printf.sprintf "%s message: %s" what (Msg.error_to_string e))))

  let encode t =
    let b = Wbuf.create ~capacity:1024 () in
    Wbuf.string b magic;
    Wbuf.u8 b version;
    Wbuf.u16 b (List.length t.speakers);
    List.iter (put_string16 b) t.speakers;
    let kind, text =
      match t.source with Config_text s -> (0, s) | Intent_text s -> (1, s)
    in
    Wbuf.u8 b kind;
    if String.length text > 0xFFFFFF then
      invalid_arg "Panel.Artifact: configuration too long";
    Wbuf.u32 b (String.length text);
    Wbuf.string b text;
    put_exchanges b t.setup;
    put_exchanges b t.schedule;
    put_string16 b t.signature;
    (* v3: members absent (Down) when the divergence was captured —
       appended last so the v1/v2 prefix layout is untouched *)
    if List.length t.absent > 0xFFFF then invalid_arg "Panel.Artifact: absent list too long";
    Wbuf.u16 b (List.length t.absent);
    List.iter (put_string16 b) t.absent;
    Wbuf.contents b

  let decode bytes =
    let r = Rbuf.of_bytes bytes in
    let m = Bytes.to_string (Rbuf.take ~what:"artifact magic" r 8) in
    if m <> magic then raise (Rbuf.Truncated "artifact magic: not a DiCE repro");
    let v = Rbuf.u8 ~what:"artifact version" r in
    if v < 1 || v > version then
      raise (Rbuf.Truncated (Printf.sprintf "artifact version: %d (want <= %d)" v version));
    let n_speakers = Rbuf.u16 ~what:"speaker count" r in
    let speakers = List.init n_speakers (fun _ -> get_string16 ~what:"speaker name" r) in
    (* v1 had no source kind: the field was always shared config text *)
    let kind = if v = 1 then 0 else Rbuf.u8 ~what:"source kind" r in
    let config_len = Rbuf.u32 ~what:"config length" r in
    let text = Bytes.to_string (Rbuf.take ~what:"config" r config_len) in
    let source =
      match kind with
      | 0 -> Config_text text
      | 1 -> Intent_text text
      | k -> raise (Rbuf.Truncated (Printf.sprintf "source kind: %d (want 0 or 1)" k))
    in
    let setup = get_exchanges ~what:"setup" r in
    let schedule = get_exchanges ~what:"schedule" r in
    let signature = get_string16 ~what:"signature" r in
    (* pre-v3 artifacts predate degraded captures: nobody was absent *)
    let absent =
      if v < 3 then []
      else begin
        let n = Rbuf.u16 ~what:"absent count" r in
        List.init n (fun _ -> get_string16 ~what:"absent member" r)
      end
    in
    if not (Rbuf.eof r) then
      raise (Rbuf.Truncated (Printf.sprintf "trailing bytes at %d" (Rbuf.pos r)));
    { speakers; source; setup; schedule; signature; absent }

  let save path t =
    Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc (encode t))

  let load path = decode (Bytes.of_string (In_channel.with_open_bin path In_channel.input_all))

  let build ?speakers t =
    (* default to the members that actually voted: rebuilding the
       absent ones too would replay a vote that never happened and
       miss the recorded signature (their answers were excluded) *)
    let voting = List.filter (fun s -> not (List.mem s t.absent)) t.speakers in
    let selected =
      Option.value speakers ~default:(if voting = [] then t.speakers else voting)
    in
    List.iter
      (fun name ->
        if not (List.mem name t.speakers) then
          invalid_arg
            (Printf.sprintf "Panel.Artifact.build: %s is not a panel member (panel: %s)"
               name
               (String.concat ", " t.speakers)))
      selected;
    let source =
      match t.source with
      | Config_text text -> Speaker.Config (Config_parser.parse text)
      | Intent_text text -> Speaker.Intent (Intent.parse text)
    in
    let explorer_addr =
      match t.schedule with (from, _) :: _ -> from | [] -> Ipv4.zero
    in
    List.map
      (fun name ->
        (* each member realizes the source through its own dialect *)
        let sp = Speakers.create_exn name source in
        let cfg = Speaker.config sp in
        List.iter
          (fun (pcfg : Config_types.peer_cfg) ->
            Speaker.establish sp ~peer:pcfg.Config_types.neighbor)
          cfg.Config_types.peers;
        List.iter (fun (peer, msg) -> ignore (Speaker.feed sp ~peer msg)) t.setup;
        Distributed.agent ~name ~addr:cfg.Config_types.router_id ~explorer_addr
          (Distributed.Local sp))
      selected

  let replay ?speakers ~jobs t =
    probe ~jobs ~agents:(build ?speakers t) t.schedule

  let reproduces t divergences =
    List.exists (fun d -> signature d = t.signature) divergences
end
