module Space = struct
  type t = {
    vars : (string, Sym.var) Hashtbl.t;
    mutable rev_names : string list;
    sites : (string, Path.Site.t) Hashtbl.t;
  }

  let create () = { vars = Hashtbl.create 32; rev_names = []; sites = Hashtbl.create 64 }

  let var t ~name ~width =
    match Hashtbl.find_opt t.vars name with
    | Some v ->
      if v.Sym.width <> width then
        invalid_arg
          (Printf.sprintf "Engine.Space.var: %s re-used with width %d (was %d)" name width
             v.Sym.width);
      v
    | None ->
      let v = Sym.var ~id:(Hashtbl.length t.vars) ~name ~width in
      Hashtbl.add t.vars name v;
      t.rev_names <- name :: t.rev_names;
      v

  let find t name = Hashtbl.find_opt t.vars name

  let names t = List.rev t.rev_names

  let site t name =
    match Hashtbl.find_opt t.sites name with
    | Some s -> s
    | None ->
      let s = { Path.Site.id = Hashtbl.length t.sites; name } in
      Hashtbl.add t.sites name s;
      s
end

type ctx = {
  space : Space.t option;  (* [None] exactly when not recording *)
  overrides : Sym.env;
  concrete_env : Sym.env;
  mutable rev_path : Path.entry list;
  mutable rev_seeds : Path.constr list;
  coverage : Coverage.t option;
}

let create ?coverage ~space ~overrides () =
  {
    space = Some space;
    overrides;
    concrete_env = Hashtbl.create 16;
    rev_path = [];
    rev_seeds = [];
    coverage;
  }

(* Shared by every non-recording caller, on any domain: [input],
   [constrain] and [branchf] write a context only while recording, so
   nothing ever writes it. *)
let null =
  {
    space = None;
    overrides = Hashtbl.create 0;
    concrete_env = Hashtbl.create 0;
    rev_path = [];
    rev_seeds = [];
    coverage = None;
  }

let recording t = Option.is_some t.space

let input t ~name ~width ~default =
  match t.space with
  | None -> Cval.concrete ~width default
  | Some space ->
    let v = Space.var space ~name ~width in
    let conc =
      match Hashtbl.find_opt t.overrides v.Sym.id with
      | Some x -> Sym.wrap width x
      | None -> Sym.wrap width default
    in
    Hashtbl.replace t.concrete_env v.Sym.id conc;
    Cval.symbolic v conc

let constrain t expr ~nonzero =
  if recording t then
    t.rev_seeds <- { Path.expr; expected_nonzero = nonzero } :: t.rev_seeds

(* Only a recording run interns the site, in its exploration's space; a
   non-recording branch just evaluates. *)
let branchf t name cond =
  let taken = Cval.bool_of cond in
  (match t.space with
  | None -> ()
  | Some space -> (
    let site = Space.site space name in
    (match t.coverage with
    | Some cov -> ignore (Coverage.record cov site taken)
    | None -> ());
    match Cval.sym cond with
    | Some expr ->
      t.rev_path <-
        { Path.site; constr = { Path.expr; expected_nonzero = taken } } :: t.rev_path
    | None -> ()));
  taken

let env t = t.concrete_env

let path t = List.rev t.rev_path

let seed_constraints t = List.rev t.rev_seeds

let assignment t ~space =
  List.filter_map
    (fun name ->
      match Space.find space name with
      | Some v -> begin
        match Hashtbl.find_opt t.concrete_env v.Sym.id with
        | Some x -> Some (name, x)
        | None -> None
      end
      | None -> None)
    (Space.names space)
