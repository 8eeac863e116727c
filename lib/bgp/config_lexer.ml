open Dice_inet

type token =
  | IDENT of string
  | INT of int
  | IP of Ipv4.t
  | PREFIX of Prefix.t
  | LBRACE
  | RBRACE
  | LBRACK
  | RBRACK
  | LPAREN
  | RPAREN
  | SEMI
  | COMMA
  | DOT
  | TILDE
  | PLUS
  | MINUS
  | EQ
  | NE
  | LT
  | LE
  | GT
  | GE
  | ANDAND
  | OROR
  | BANG
  | COLON
  | EOF

let token_to_string = function
  | IDENT s -> Printf.sprintf "identifier %S" s
  | INT n -> Printf.sprintf "integer %d" n
  | IP a -> Printf.sprintf "address %s" (Ipv4.to_string a)
  | PREFIX p -> Printf.sprintf "prefix %s" (Prefix.to_string p)
  | LBRACE -> "'{'"
  | RBRACE -> "'}'"
  | LBRACK -> "'['"
  | RBRACK -> "']'"
  | LPAREN -> "'('"
  | RPAREN -> "')'"
  | SEMI -> "';'"
  | COMMA -> "','"
  | DOT -> "'.'"
  | TILDE -> "'~'"
  | PLUS -> "'+'"
  | MINUS -> "'-'"
  | EQ -> "'='"
  | NE -> "'!='"
  | LT -> "'<'"
  | LE -> "'<='"
  | GT -> "'>'"
  | GE -> "'>='"
  | ANDAND -> "'&&'"
  | OROR -> "'||'"
  | BANG -> "'!'"
  | COLON -> "':'"
  | EOF -> "end of input"

exception Lex_error of { line : int; msg : string }

let is_digit c = c >= '0' && c <= '9'
let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || is_digit c

let lex src =
  let n = String.length src in
  let pos = ref 0 in
  let line = ref 1 in
  let out = ref [] in
  let emit tok = out := (tok, !line) :: !out in
  let peek k = if !pos + k < n then Some src.[!pos + k] else None in
  let error msg = raise (Lex_error { line = !line; msg }) in
  let read_int () =
    let start = !pos in
    while !pos < n && is_digit src.[!pos] do
      incr pos
    done;
    let digits = String.sub src start (!pos - start) in
    match int_of_string_opt digits with
    | Some v -> v
    | None -> error (Printf.sprintf "integer %s out of range" digits)
  in
  while !pos < n do
    let c = src.[!pos] in
    if c = '\n' then begin
      incr line;
      incr pos
    end
    else if c = ' ' || c = '\t' || c = '\r' then incr pos
    else if c = '#' then
      while !pos < n && src.[!pos] <> '\n' do
        incr pos
      done
    else if is_digit c then begin
      (* integer, address, or prefix *)
      let a = read_int () in
      if peek 0 = Some '.' && (match peek 1 with Some d -> is_digit d | None -> false)
      then begin
        let octet what v = if v < 0 || v > 255 then error (what ^ " octet out of range") in
        incr pos;
        let b = read_int () in
        if peek 0 <> Some '.' then error "malformed address (expected second '.')";
        incr pos;
        let c' = read_int () in
        if peek 0 <> Some '.' then error "malformed address (expected third '.')";
        incr pos;
        let d = read_int () in
        octet "first" a;
        octet "second" b;
        octet "third" c';
        octet "fourth" d;
        let addr = Ipv4.of_octets a b c' d in
        if peek 0 = Some '/' then begin
          incr pos;
          if not (match peek 0 with Some ch -> is_digit ch | None -> false) then
            error "expected prefix length after '/'";
          let len = read_int () in
          if len > 32 then error "prefix length > 32";
          emit (PREFIX (Prefix.make addr len))
        end
        else emit (IP addr)
      end
      else emit (INT a)
    end
    else if is_ident_start c then begin
      let start = !pos in
      while !pos < n && is_ident_char src.[!pos] do
        incr pos
      done;
      emit (IDENT (String.sub src start (!pos - start)))
    end
    else begin
      let two tok = emit tok; pos := !pos + 2 in
      let one tok = emit tok; incr pos in
      match (c, peek 1) with
      | '&', Some '&' -> two ANDAND
      | '|', Some '|' -> two OROR
      | '!', Some '=' -> two NE
      | '<', Some '=' -> two LE
      | '>', Some '=' -> two GE
      | '=', Some '=' -> two EQ  (* tolerate '==' as '=' *)
      | '{', _ -> one LBRACE
      | '}', _ -> one RBRACE
      | '[', _ -> one LBRACK
      | ']', _ -> one RBRACK
      | '(', _ -> one LPAREN
      | ')', _ -> one RPAREN
      | ';', _ -> one SEMI
      | ',', _ -> one COMMA
      | '.', _ -> one DOT
      | '~', _ -> one TILDE
      | '+', _ -> one PLUS
      | '-', _ -> one MINUS
      | '=', _ -> one EQ
      | '<', _ -> one LT
      | '>', _ -> one GT
      | '!', _ -> one BANG
      | ':', _ -> one COLON
      | _, _ -> error (Printf.sprintf "unexpected character %C" c)
    end
  done;
  emit EOF;
  List.rev !out
