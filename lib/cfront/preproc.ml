(** A small C preprocessor operating on token streams.

    Supported directives: [#define] (object- and function-like, with [#]
    stringize and [##] paste), [#undef], [#include] (resolved through a
    caller-supplied function, so the corpus can ship virtual headers),
    [#if]/[#ifdef]/[#ifndef]/[#elif]/[#else]/[#endif] with full integer
    constant expressions and [defined], [#error], and [#pragma] (ignored).

    Not supported (not needed by the corpus): [#line], variadic macros,
    trigraphs. *)

type macro =
  | Objlike of Token.spanned list
  | Funclike of { params : string list; body : Token.spanned list }

type env = {
  defines : (string, macro) Hashtbl.t;
  resolve : string -> string option;
      (** map an include path to its source text *)
  mutable include_depth : int;
}

let create_env ?(defines = []) ?(resolve = fun _ -> None) () =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (name, text) ->
      let toks = Lexer.tokenize ~file:("<define " ^ name ^ ">") text in
      let toks = List.filter (fun t -> t.Token.tok <> Token.Eof) toks in
      Hashtbl.replace tbl name (Objlike toks))
    defines;
  { defines = tbl; resolve; include_depth = 0 }

(* ------------------------------------------------------------------ *)
(* Token cursors                                                       *)
(* ------------------------------------------------------------------ *)

(* A cursor is the unread rest of a token list: reading one advances
   past a cons cell, and the list itself is never copied. *)
type cursor = { mutable rest : Token.spanned list }

let cursor_of_list l = { rest = l }

let eof = { Token.tok = Token.Eof; loc = Srcloc.dummy; bol = true }

let cur c = match c.rest with t :: _ -> t | [] -> eof

(* the token after [cur c] *)
let peek2 c = match c.rest with _ :: t :: _ -> t | _ -> eof

let bump c = match c.rest with _ :: r -> c.rest <- r | [] -> ()

(* All tokens of the current directive line: everything up to (not
   including) the next beginning-of-line token. *)
let directive_line c : Token.spanned list =
  let rec go acc =
    let t = cur c in
    if t.Token.tok = Token.Eof || t.Token.bol then List.rev acc
    else (
      bump c;
      go (t :: acc))
  in
  go []

(* ------------------------------------------------------------------ *)
(* Macro expansion                                                     *)
(* ------------------------------------------------------------------ *)

module Sset = Set.Make (String)

let is_adjacent (a : Token.spanned) (b : Token.spanned) =
  (* true when [b] starts right after [a] ends, on the same line; used to
     distinguish [#define F(x)] from [#define F (x)]. *)
  match a.Token.tok with
  | Token.Ident s ->
      a.loc.Srcloc.line = b.loc.Srcloc.line
      && b.loc.Srcloc.col = a.loc.Srcloc.col + String.length s
  | _ -> false

(* Split the argument tokens of a function-like macro call. The cursor is
   positioned right after the opening parenthesis; it may be the source
   stream itself, where a directive ends the arguments (a directive
   cannot occur in a macro body or an argument list). *)
let parse_macro_args c loc : Token.spanned list list =
  let args = ref [] in
  let current = ref [] in
  let depth = ref 0 in
  let rec go () =
    let t = cur c in
    match t.Token.tok with
    | Token.Eof -> Diag.error ~loc "unterminated macro argument list"
    | Token.Hash when t.Token.bol ->
        (* a call's arguments never run into a directive *)
        Diag.error ~loc "unterminated macro argument list"
    | Token.Rparen when !depth = 0 ->
        bump c;
        args := List.rev !current :: !args
    | Token.Comma when !depth = 0 ->
        bump c;
        args := List.rev !current :: !args;
        current := [];
        go ()
    | tok ->
        (match tok with
        | Token.Lparen -> incr depth
        | Token.Rparen -> decr depth
        | _ -> ());
        bump c;
        current := t :: !current;
        go ()
  in
  go ();
  List.rev !args

let stringize (arg : Token.spanned list) loc : Token.spanned =
  let text = String.concat " " (List.map (fun t -> Token.to_source t.Token.tok) arg) in
  { Token.tok = Token.String_lit text; loc; bol = false }

let paste (a : Token.spanned) (b : Token.spanned) : Token.spanned =
  let text = Token.to_source a.Token.tok ^ Token.to_source b.Token.tok in
  match Lexer.tokenize ~file:"<paste>" text with
  | [ t; { Token.tok = Token.Eof; _ } ] -> { t with Token.loc = a.Token.loc }
  | _ ->
      Diag.error ~loc:a.Token.loc "'##' of %s and %s does not form a token"
        (Token.describe a.Token.tok) (Token.describe b.Token.tok)

(* Substitute parameters into a function-like macro body, handling # and
   ##. [args_raw] are unexpanded arguments (used for # and ##),
   [args_exp] are fully expanded (used elsewhere). *)
let substitute body params args_raw args_exp loc : Token.spanned list =
  let arg_index name =
    let rec find i = function
      | [] -> None
      | p :: _ when p = name -> Some i
      | _ :: ps -> find (i + 1) ps
    in
    find 0 params
  in
  let nth_arg args i = try List.nth args i with _ -> [] in
  let rec go acc = function
    | [] -> List.rev acc
    | { Token.tok = Token.Hash; _ } :: ({ Token.tok = Token.Ident p; _ } as pt) :: rest
      when arg_index p <> None -> (
        match arg_index p with
        | Some i -> go (stringize (nth_arg args_raw i) pt.Token.loc :: acc) rest
        | None -> assert false)
    | a :: { Token.tok = Token.Hash_hash; _ } :: b :: rest ->
        let expand_side (t : Token.spanned) : Token.spanned list =
          match t.Token.tok with
          | Token.Ident p -> (
              match arg_index p with
              | Some i -> nth_arg args_raw i
              | None -> [ t ])
          | _ -> [ t ]
        in
        let left = expand_side a and right = expand_side b in
        let merged =
          match (List.rev left, right) with
          | [], r -> r
          | lrev, [] -> List.rev lrev
          | last :: lrev, first :: rrest ->
              List.rev_append lrev (paste last first :: rrest)
        in
        go acc (merged @ rest)
    | ({ Token.tok = Token.Ident p; _ } as t) :: rest -> (
        match arg_index p with
        | Some i -> go (List.rev_append (nth_arg args_exp i) acc) rest
        | None -> go (t :: acc) rest)
    | t :: rest -> go (t :: acc) rest
  in
  ignore loc;
  go [] body

(* Expand the macro call that starts at [t = cur c] ([name], defined as
   [m], not hidden), pushing its expansion onto [out] in reverse. A
   function-like name not followed by '(' is not a call and stays. *)
let rec expand_macro env hide c (t : Token.spanned) name m out =
  match m with
  | Objlike body ->
      bump c;
      let expanded = expand_tokens env (Sset.add name hide) body in
      out := List.rev_append expanded !out
  | Funclike { params; body } ->
      if (peek2 c).Token.tok = Token.Lparen then (
        bump c;
        bump c;
        (* name, lparen *)
        let args_raw = parse_macro_args c t.Token.loc in
        let args_raw =
          (* f() with one empty argument and zero parameters *)
          if params = [] && args_raw = [ [] ] then [] else args_raw
        in
        if List.length args_raw <> List.length params then
          Diag.error ~loc:t.Token.loc "macro %s expects %d argument(s), got %d"
            name (List.length params) (List.length args_raw);
        let args_exp = List.map (expand_tokens env hide) args_raw in
        let body' = substitute body params args_raw args_exp t.Token.loc in
        let expanded = expand_tokens env (Sset.add name hide) body' in
        out := List.rev_append expanded !out)
      else (
        bump c;
        out := t :: !out)

(* Expand a token list fully. [hide] prevents recursive self-expansion. *)
and expand_tokens env hide (toks : Token.spanned list) : Token.spanned list =
  let c = cursor_of_list toks in
  let out = ref [] in
  let rec go () =
    let t = cur c in
    match t.Token.tok with
    | Token.Eof -> ()
    | Token.Ident name when not (Sset.mem name hide) -> (
        match Hashtbl.find_opt env.defines name with
        | Some m ->
            expand_macro env hide c t name m out;
            go ()
        | None ->
            bump c;
            out := t :: !out;
            go ())
    | _ ->
        bump c;
        out := t :: !out;
        go ()
  in
  go ();
  List.rev !out

(* ------------------------------------------------------------------ *)
(* #if expression evaluation                                           *)
(* ------------------------------------------------------------------ *)

let eval_if_expr env (line : Token.spanned list) loc : bool =
  (* First rewrite [defined X] / [defined(X)], then macro-expand, then
     evaluate; remaining identifiers are 0. *)
  let rec rewrite = function
    | [] -> []
    | { Token.tok = Token.Ident "defined"; loc = dl; bol } :: rest -> (
        let mk v =
          { Token.tok = Token.Int_lit ((if v then 1L else 0L), if v then "1" else "0");
            loc = dl; bol }
        in
        match rest with
        | { Token.tok = Token.Ident n; _ } :: rest' ->
            mk (Hashtbl.mem env.defines n) :: rewrite rest'
        | { Token.tok = Token.Lparen; _ }
          :: { Token.tok = Token.Ident n; _ }
          :: { Token.tok = Token.Rparen; _ }
          :: rest' ->
            mk (Hashtbl.mem env.defines n) :: rewrite rest'
        | _ -> Diag.error ~loc:dl "malformed 'defined' operator")
    | t :: rest -> t :: rewrite rest
  in
  let toks = expand_tokens env Sset.empty (rewrite line) in
  let c = cursor_of_list toks in
  let expect tok =
    if (cur c).Token.tok = tok then bump c
    else
      Diag.error ~loc "expected %s in #if expression, got %s"
        (Token.describe tok)
        (Token.describe (cur c).Token.tok)
  in
  (* precedence climbing over int64 *)
  let rec primary () : int64 =
    let t = cur c in
    match t.Token.tok with
    | Token.Int_lit (v, _) ->
        bump c;
        v
    | Token.Char_lit v ->
        bump c;
        Int64.of_int v
    | Token.Ident _ ->
        bump c;
        0L
    | Token.Lparen ->
        bump c;
        let v = ternary () in
        expect Token.Rparen;
        v
    | Token.Minus ->
        bump c;
        Int64.neg (primary ())
    | Token.Plus ->
        bump c;
        primary ()
    | Token.Bang ->
        bump c;
        if primary () = 0L then 1L else 0L
    | Token.Tilde ->
        bump c;
        Int64.lognot (primary ())
    | tok ->
        Diag.error ~loc "unexpected %s in #if expression" (Token.describe tok)
  and binary min_prec () : int64 =
    let prec tok =
      match tok with
      | Token.Star | Token.Slash | Token.Percent -> Some 10
      | Token.Plus | Token.Minus -> Some 9
      | Token.Shl | Token.Shr -> Some 8
      | Token.Lt | Token.Gt | Token.Le | Token.Ge -> Some 7
      | Token.Eq_eq | Token.Bang_eq -> Some 6
      | Token.Amp -> Some 5
      | Token.Caret -> Some 4
      | Token.Pipe -> Some 3
      | Token.Amp_amp -> Some 2
      | Token.Pipe_pipe -> Some 1
      | _ -> None
    in
    let lhs = ref (primary ()) in
    let rec loop () =
      match prec (cur c).Token.tok with
      | Some p when p >= min_prec ->
          let op = (cur c).Token.tok in
          bump c;
          let rhs = binary (p + 1) () in
          let b v = if v then 1L else 0L in
          let l = !lhs in
          lhs :=
            (match op with
            | Token.Star -> Int64.mul l rhs
            | Token.Slash ->
                if rhs = 0L then Diag.error ~loc "division by zero in #if"
                else Int64.div l rhs
            | Token.Percent ->
                if rhs = 0L then Diag.error ~loc "modulo by zero in #if"
                else Int64.rem l rhs
            | Token.Plus -> Int64.add l rhs
            | Token.Minus -> Int64.sub l rhs
            | Token.Shl -> Int64.shift_left l (Int64.to_int rhs)
            | Token.Shr -> Int64.shift_right l (Int64.to_int rhs)
            | Token.Lt -> b (l < rhs)
            | Token.Gt -> b (l > rhs)
            | Token.Le -> b (l <= rhs)
            | Token.Ge -> b (l >= rhs)
            | Token.Eq_eq -> b (l = rhs)
            | Token.Bang_eq -> b (l <> rhs)
            | Token.Amp -> Int64.logand l rhs
            | Token.Caret -> Int64.logxor l rhs
            | Token.Pipe -> Int64.logor l rhs
            | Token.Amp_amp -> b (l <> 0L && rhs <> 0L)
            | Token.Pipe_pipe -> b (l <> 0L || rhs <> 0L)
            | _ -> assert false);
          loop ()
      | _ -> ()
    in
    loop ();
    !lhs
  and ternary () : int64 =
    let cond = binary 1 () in
    if (cur c).Token.tok = Token.Question then (
      bump c;
      let a = ternary () in
      expect Token.Colon;
      let b = ternary () in
      if cond <> 0L then a else b)
    else cond
  in
  let v = ternary () in
  (match (cur c).Token.tok with
  | Token.Eof -> ()
  | tok -> Diag.error ~loc "trailing %s in #if expression" (Token.describe tok));
  v <> 0L

(* ------------------------------------------------------------------ *)
(* Directive processing                                                *)
(* ------------------------------------------------------------------ *)

type cond_state = {
  parent_active : bool;
  mutable this_active : bool;
  mutable taken : bool;  (** some branch of this #if chain was active *)
  mutable in_else : bool;
}

let rec process env (toks : Token.spanned list) (out : Token.spanned list ref)
    : unit =
  let c = cursor_of_list toks in
  let conds : cond_state list ref = ref [] in
  let active () =
    List.for_all (fun s -> s.this_active) !conds
  in
  let parent_active () =
    match !conds with [] -> true | s :: _ -> s.parent_active
  in
  let handle_directive (t : Token.spanned) =
    bump c;
    (* past '#' *)
    let line = directive_line c in
    match line with
    | [] -> () (* null directive *)
    | { Token.tok = Token.Ident dir; loc = dloc; _ } :: rest -> (
        match dir with
        | "ifdef" | "ifndef" -> (
            match rest with
            | [ { Token.tok = Token.Ident n; _ } ] ->
                let defined = Hashtbl.mem env.defines n in
                let v = if dir = "ifdef" then defined else not defined in
                let pa = active () in
                conds :=
                  { parent_active = pa; this_active = pa && v;
                    taken = pa && v; in_else = false }
                  :: !conds
            | _ -> Diag.error ~loc:dloc "#%s expects a single identifier" dir)
        | "if" ->
            let pa = active () in
            let v = if pa then eval_if_expr env rest dloc else false in
            conds :=
              { parent_active = pa; this_active = pa && v; taken = pa && v;
                in_else = false }
              :: !conds
        | "elif" -> (
            match !conds with
            | [] -> Diag.error ~loc:dloc "#elif without #if"
            | s :: _ ->
                if s.in_else then Diag.error ~loc:dloc "#elif after #else";
                if s.taken then s.this_active <- false
                else begin
                  let v =
                    if s.parent_active then eval_if_expr env rest dloc
                    else false
                  in
                  s.this_active <- s.parent_active && v;
                  if s.this_active then s.taken <- true
                end)
        | "else" -> (
            match !conds with
            | [] -> Diag.error ~loc:dloc "#else without #if"
            | s :: _ ->
                if s.in_else then Diag.error ~loc:dloc "duplicate #else";
                s.in_else <- true;
                s.this_active <- s.parent_active && not s.taken;
                if s.this_active then s.taken <- true)
        | "endif" -> (
            match !conds with
            | [] -> Diag.error ~loc:dloc "#endif without #if"
            | _ :: rest' -> conds := rest')
        | "define" when active () -> (
            match rest with
            | ({ Token.tok = Token.Ident name; _ } as nt) :: body -> (
                match body with
                | ({ Token.tok = Token.Lparen; _ } as lp) :: more
                  when is_adjacent nt lp ->
                    (* function-like *)
                    let rec params acc = function
                      | { Token.tok = Token.Rparen; _ } :: body' ->
                          (List.rev acc, body')
                      | { Token.tok = Token.Ident p; _ }
                        :: { Token.tok = Token.Comma; _ }
                        :: more' ->
                          params (p :: acc) more'
                      | { Token.tok = Token.Ident p; _ }
                        :: ({ Token.tok = Token.Rparen; _ } :: _ as more') ->
                          params (p :: acc) more'
                      | _ ->
                          Diag.error ~loc:dloc
                            "malformed parameter list for macro %s" name
                    in
                    let ps, body' = params [] more in
                    Hashtbl.replace env.defines name
                      (Funclike { params = ps; body = body' })
                | _ -> Hashtbl.replace env.defines name (Objlike body))
            | _ -> Diag.error ~loc:dloc "#define expects a macro name")
        | "undef" when active () -> (
            match rest with
            | [ { Token.tok = Token.Ident n; _ } ] ->
                Hashtbl.remove env.defines n
            | _ -> Diag.error ~loc:dloc "#undef expects a single identifier")
        | "include" when active () -> (
            let path =
              match rest with
              | [ { Token.tok = Token.String_lit p; _ } ] -> p
              | { Token.tok = Token.Lt; _ } :: middle -> (
                  (* <...> — reassemble the path from the tokens between
                     the angle brackets *)
                  match List.rev middle with
                  | { Token.tok = Token.Gt; _ } :: rev_inner ->
                      String.concat ""
                        (List.rev_map
                           (fun t -> Token.to_source t.Token.tok)
                           rev_inner)
                  | _ -> Diag.error ~loc:dloc "malformed #include")
              | _ -> Diag.error ~loc:dloc "malformed #include"
            in
            match env.resolve path with
            | None -> Diag.error ~loc:dloc "cannot resolve #include %S" path
            | Some text ->
                if env.include_depth > 32 then
                  Diag.error ~loc:dloc "#include nesting too deep (%S)" path;
                env.include_depth <- env.include_depth + 1;
                process env (Lexer.tokenize ~file:path text) out;
                env.include_depth <- env.include_depth - 1)
        | "error" when active () ->
            Diag.error ~loc:dloc "#error %s"
              (String.concat " "
                 (List.map (fun t -> Token.to_source t.Token.tok) rest))
        | "pragma" -> ()
        | "define" | "undef" | "include" | "error" ->
            () (* inactive branch *)
        | d when active () -> Diag.error ~loc:dloc "unknown directive #%s" d
        | _ -> ())
    | { Token.loc; tok; _ } :: _ ->
        if active () then
          Diag.error ~loc "expected directive name after '#', got %s"
            (Token.describe tok)
        else ignore t
  in
  let rec go () =
    let t = cur c in
    match t.Token.tok with
    | Token.Eof -> ()
    | Token.Hash when t.Token.bol ->
        handle_directive t;
        go ()
    | _ ->
        if active () then text () else skip ();
        go ()
  (* The ordinary tokens up to the next directive or EOF. Plain ones go
     straight to [out]; a macro name expands in place, a call reading
     its arguments from the stream, so calls spanning lines work. *)
  and text () =
    match c.rest with
    | [] -> ()
    | t :: rest -> (
        match t.Token.tok with
        | Token.Eof -> ()
        | Token.Hash when t.Token.bol -> ()
        | Token.Ident name -> (
            match Hashtbl.find_opt env.defines name with
            | Some m ->
                expand_macro env Sset.empty c t name m out;
                text ()
            | None ->
                c.rest <- rest;
                out := t :: !out;
                text ())
        | _ ->
            c.rest <- rest;
            out := t :: !out;
            text ())
  (* an inactive region, up to the next directive or EOF *)
  and skip () =
    match c.rest with
    | { Token.tok = Token.Eof; _ } :: _ | [] -> ()
    | { Token.tok = Token.Hash; bol = true; _ } :: _ -> ()
    | _ :: rest ->
        c.rest <- rest;
        skip ()
  in
  go ();
  ignore (parent_active ());
  match !conds with
  | [] -> ()
  | _ -> Diag.error "unterminated #if block at end of file"

(** Preprocess [src]. [resolve] maps include paths to source text;
    [defines] provides initial object-like macro definitions as
    (name, replacement-text) pairs. *)
let run ?(defines = []) ?(resolve = fun _ -> None) ~file src :
    Token.spanned list =
  let env = create_env ~defines ~resolve () in
  let out = ref [] in
  process env (Lexer.tokenize ~file src) out;
  List.rev (eof :: !out)
