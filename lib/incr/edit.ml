open Cfront
open Norm

type op =
  | Add of string * Nast.kind * bool
  | Remove of string * int
  | Mutate of string * int * Nast.kind * bool

let vars_of_kind (k : Nast.kind) : Cvar.t list =
  match k with
  | Nast.Addr (s, t, _) | Nast.Addr_deref (s, t, _) | Nast.Copy (s, t, _) ->
      [ s; t ]
  | Nast.Load (s, q) -> [ s; q ]
  | Nast.Store (p, v) -> [ p; v ]
  | Nast.Arith (s, v) -> [ s; v ]
  | Nast.Call { Nast.cret; cfn; cargs } ->
      (match cret with Some v -> [ v ] | None -> [])
      @ (match cfn with Nast.Indirect v -> [ v ] | Nast.Direct _ -> [])
      @ cargs

let apply (p : Nast.program) (ops : op list) : Nast.program =
  let next_id =
    ref
      (List.fold_left
         (fun m (s : Nast.stmt) -> max m s.Nast.id)
         0 (Nast.all_stmts p))
  in
  let app (p : Nast.program) (op : op) : Nast.program =
    let mk kind deref =
      incr next_id;
      {
        Nast.id = !next_id;
        kind;
        loc = Srcloc.dummy;
        is_source_deref = deref;
      }
    in
    (* register variables the new statement mentions but the program
       does not know yet *)
    let with_vars (p : Nast.program) (kind : Nast.kind) : Nast.program =
      let known = Idtbl.Int.create 64 in
      List.iter
        (fun (v : Cvar.t) -> Idtbl.Int.replace known v.Cvar.vid ())
        p.Nast.pall_vars;
      let fresh =
        List.filter
          (fun (v : Cvar.t) ->
            if Idtbl.Int.mem known v.Cvar.vid then false
            else begin
              Idtbl.Int.replace known v.Cvar.vid ();
              true
            end)
          (vars_of_kind kind)
      in
      if fresh = [] then p
      else
        {
          p with
          Nast.pall_vars = p.Nast.pall_vars @ fresh;
          pglobals =
            p.Nast.pglobals
            @ List.filter (fun (v : Cvar.t) -> v.Cvar.vkind = Cvar.Global) fresh;
        }
    in
    let upd_func fname g =
      {
        p with
        Nast.pfuncs =
          List.map
            (fun (f : Nast.func) -> if f.Nast.fname = fname then g f else f)
            p.Nast.pfuncs;
      }
    in
    match op with
    | Add (fname, kind, deref) ->
        let p' = with_vars p kind in
        {
          p' with
          Nast.pfuncs =
            List.map
              (fun (f : Nast.func) ->
                if f.Nast.fname = fname then
                  { f with Nast.fstmts = f.Nast.fstmts @ [ mk kind deref ] }
                else f)
              p'.Nast.pfuncs;
        }
    | Remove (fname, idx) ->
        upd_func fname (fun f ->
            {
              f with
              Nast.fstmts = List.filteri (fun i _ -> i <> idx) f.Nast.fstmts;
            })
    | Mutate (fname, idx, kind, deref) ->
        let p' = with_vars p kind in
        {
          p' with
          Nast.pfuncs =
            List.map
              (fun (f : Nast.func) ->
                if f.Nast.fname = fname then
                  {
                    f with
                    Nast.fstmts =
                      List.mapi
                        (fun i s -> if i = idx then mk kind deref else s)
                        f.Nast.fstmts;
                  }
                else f)
              p'.Nast.pfuncs;
        }
  in
  List.fold_left app p ops

(* fresh-global counter: names only need to be unique per process *)
let minted = ref 0

let random_op ~(rand : Random.State.t) (p : Nast.program) : op option =
  let pick l = List.nth l (Random.State.int rand (List.length l)) in
  let named_kind (v : Cvar.t) =
    match v.Cvar.vkind with
    | Cvar.Global | Cvar.Local _ | Cvar.Param _ -> true
    | _ -> false
  in
  let ptrs =
    List.filter
      (fun (v : Cvar.t) -> named_kind v && Ctype.is_ptr v.Cvar.vty)
      p.Nast.pall_vars
  in
  let objs = List.filter named_kind p.Nast.pall_vars in
  let funcs = p.Nast.pfuncs in
  if funcs = [] || ptrs = [] || objs = [] then None
  else begin
    let random_kind () : Nast.kind * bool =
      let lhs () =
        (* occasionally mint a fresh global pointer, exercising the
           added-variable path of the differ *)
        if Random.State.int rand 5 = 0 then begin
          incr minted;
          Cvar.fresh
            ~name:(Printf.sprintf "$incr%d" !minted)
            ~ty:(Ctype.Ptr (pick ptrs).Cvar.vty)
            ~kind:Cvar.Global
        end
        else pick ptrs
      in
      match Random.State.int rand 5 with
      | 0 -> (Nast.Addr (lhs (), pick objs, []), false)
      | 1 -> (Nast.Copy (lhs (), pick ptrs, []), false)
      | 2 -> (Nast.Load (lhs (), pick ptrs), true)
      | 3 -> (Nast.Store (pick ptrs, pick ptrs), true)
      | _ -> (Nast.Arith (lhs (), pick ptrs), false)
    in
    let nonempty =
      List.filter (fun (f : Nast.func) -> f.Nast.fstmts <> []) funcs
    in
    match Random.State.int rand 4 with
    | (2 | 3) when nonempty <> [] ->
        let f = pick nonempty in
        let idx = Random.State.int rand (List.length f.Nast.fstmts) in
        if Random.State.bool rand then Some (Remove (f.Nast.fname, idx))
        else
          let kind, deref = random_kind () in
          Some (Mutate (f.Nast.fname, idx, kind, deref))
    | _ ->
        let f = pick funcs in
        let kind, deref = random_kind () in
        Some (Add (f.Nast.fname, kind, deref))
  end

let pp_op ppf = function
  | Add (f, k, _) -> Fmt.pf ppf "%s += %a" f Nast.pp_kind k
  | Remove (f, i) -> Fmt.pf ppf "%s -= #%d" f i
  | Mutate (f, i, k, _) -> Fmt.pf ppf "%s #%d := %a" f i Nast.pp_kind k
