module Site = struct
  type t = { id : int; name : string }

  let id t = t.id
  let name t = t.name
  let pp ppf t = Format.fprintf ppf "%s#%d" t.name t.id
end

type constr = { expr : Sym.t; expected_nonzero : bool }

let negate c = { c with expected_nonzero = not c.expected_nonzero }

let constr_holds env c = Sym.eval env c.expr <> 0L = c.expected_nonzero

let pp_constr ppf c =
  if c.expected_nonzero then Sym.pp ppf c.expr
  else Format.fprintf ppf "!(%a)" Sym.pp c.expr

type entry = { site : Site.t; constr : constr }

type t = entry list

let length = List.length

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter (fun e -> Format.fprintf ppf "%a: %a@," Site.pp e.site pp_constr e.constr) t;
  Format.fprintf ppf "@]"

let signature t =
  List.fold_left
    (fun acc e ->
      let v =
        Int64.of_int ((Site.id e.site * 2) + if e.constr.expected_nonzero then 1 else 0)
      in
      Dice_util.Hashutil.combine acc v)
    0xCBF29CE484222325L t
