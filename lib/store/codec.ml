(** Snapshot codec: full solver state to deterministic bytes and back.
    See the interface for the format and the rebinding rules. *)

open Cfront
open Norm
open Core

type arith = [ `Spread | `Copy | `Stride | `Unknown ]

type config = {
  strategy_id : string;
  engine : Solver.engine;
  layout_id : string;
  arith : arith;
  budget : Budget.limits;
}

let version_line = "structcast-snap v1"

let engine_id : Solver.engine -> string = function
  | `Delta -> "delta"
  | `Delta_nocycle -> "delta-nocycle"
  | `Naive -> "naive"
  | `Summary -> "summary"

let arith_id : arith -> string = function
  | `Spread -> "spread"
  | `Copy -> "copy"
  | `Stride -> "stride"
  | `Unknown -> "unknown"

(* Budget limits rendered with integer milliseconds so the line is a
   stable function of the limits, never of float formatting. *)
let budget_id (b : Budget.limits) : string =
  let o = function None -> 0 | Some n -> n in
  let ms =
    match b.Budget.timeout_s with
    | None -> 0
    | Some s -> max 1 (int_of_float (s *. 1000.))
  in
  Printf.sprintf "steps=%d,timeout_ms=%d,obj=%d,total=%d"
    (o b.Budget.max_steps) ms
    (o b.Budget.max_cells_per_object)
    (o b.Budget.max_total_cells)

let config_line (c : config) : string =
  Printf.sprintf "%s|%s|%s|%s|%s" c.strategy_id (engine_id c.engine)
    c.layout_id (arith_id c.arith) (budget_id c.budget)

let config_digest (c : config) : string =
  Digest.to_hex (Digest.string (config_line c))

(* ------------------------------------------------------------------ *)
(* Identity-free program fingerprint                                   *)
(* ------------------------------------------------------------------ *)

let stmt_keys ?(keyer = Incr.Progdiff.Keyer.create ()) (p : Nast.program) :
    string list =
  let module K = Incr.Progdiff.Keyer in
  let iface = K.iface_of_program keyer p in
  List.map (K.stmt keyer ~iface ~scope:"<init>") p.Nast.pinit
  @ List.concat_map
      (fun (f : Nast.func) ->
        List.map (K.stmt keyer ~iface ~scope:f.Nast.fname) f.Nast.fstmts)
      p.Nast.pfuncs

let key ?(keyer = Incr.Progdiff.Keyer.create ()) (c : config) ~(name : string)
    ~(diags_fp : string) (p : Nast.program) : string =
  let b = Buffer.create 4096 in
  Buffer.add_string b (config_line c);
  Buffer.add_char b '\n';
  Buffer.add_string b name;
  Buffer.add_char b '\n';
  Buffer.add_string b diags_fp;
  Buffer.add_char b '\n';
  List.iter
    (fun k ->
      Buffer.add_string b k;
      Buffer.add_char b '\n')
    (List.sort compare
       (List.map (Incr.Progdiff.Keyer.var keyer) p.Nast.pall_vars));
  Buffer.add_string b "--\n";
  List.iter
    (fun k ->
      Buffer.add_string b k;
      Buffer.add_char b '\n')
    (List.sort compare (stmt_keys ~keyer p));
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ------------------------------------------------------------------ *)
(* Token escaping                                                      *)
(* ------------------------------------------------------------------ *)

(* Every string field travels as one whitespace-free token: percent,
   space, and control characters are %XX-encoded, so lines split on
   single spaces with no quoting rules. *)
let enc_str (s : string) : string =
  let plain c = c > ' ' && c < '\x7f' && c <> '%' in
  if String.for_all plain s then s
  else begin
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        if plain c then Buffer.add_char b c
        else Buffer.add_string b (Printf.sprintf "%%%02X" (Char.code c)))
      s;
    Buffer.contents b
  end

exception Bad of string

(* The integrity trailer shared by every store file: a final line
   [sum <md5 hex>] over all bytes before it. *)
let seal (payload : string) : string =
  payload ^ Printf.sprintf "sum %s\n" (Digest.to_hex (Digest.string payload))

let unseal (bytes : string) : (string, string) result =
  let n = String.length bytes in
  if n = 0 then Error "empty file"
  else if bytes.[n - 1] <> '\n' then Error "truncated (no final newline)"
  else
    match String.rindex_from_opt bytes (n - 2) '\n' with
    | None -> Error "truncated"
    | Some i -> (
        let payload = String.sub bytes 0 (i + 1) in
        match
          String.split_on_char ' ' (String.sub bytes (i + 1) (n - i - 2))
        with
        | [ "sum"; hex ] when String.length hex = 32 ->
            if Digest.to_hex (Digest.string payload) = hex then Ok payload
            else Error "checksum mismatch"
        | _ -> Error "missing checksum line")

let dec_str (s : string) : string =
  match String.index_opt s '%' with
  | None -> s
  | Some _ ->
      let b = Buffer.create (String.length s) in
      let n = String.length s in
      let hex c =
        match c with
        | '0' .. '9' -> Char.code c - Char.code '0'
        | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
        | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
        | _ -> raise (Bad "bad percent escape")
      in
      let rec go i =
        if i < n then
          if s.[i] = '%' then begin
            if i + 2 >= n then raise (Bad "truncated percent escape");
            Buffer.add_char b
              (Char.chr ((hex s.[i + 1] * 16) + hex s.[i + 2]));
            go (i + 3)
          end
          else begin
            Buffer.add_char b s.[i];
            go (i + 1)
          end
      in
      go 0;
      Buffer.contents b

let dec_str_opt (s : string) : string option =
  match dec_str s with v -> Some v | exception Bad _ -> None

(* ------------------------------------------------------------------ *)
(* Decoded form                                                        *)
(* ------------------------------------------------------------------ *)

type sel_code = SPath of string list | SOff of int

type decoded = {
  d_key : string;
  d_cfg : string;  (** the producing run's [config_line] *)
  d_name : string;
  d_vars : string array;  (** var keys, sorted *)
  d_cells : (int * sel_code) array;  (** (var index, selector) *)
  d_keytbl : string array;  (** statement key table, sorted unique *)
  d_stmts : int array;  (** per base statement, in program order *)
  d_externs : string list;
  d_classes : (int * int list * int list) array;
      (** (rep cell, members incl. rep, target log in insertion order) *)
  d_cursors : (int * (int * int) list) array;  (** stmt → (cell, consumed) *)
  d_ssubs : (int * int list) array;  (** stmt → subscribed vars *)
  d_psubs : (int * int list) array;  (** rep cell → consuming stmts *)
  d_copysrcs : int list;  (** copy sources, list order (newest first) *)
  d_copy : (int * (int * int) list) array;  (** src → (dst, cursor) *)
  d_sedges : (int * (int * int) list) array;  (** stmt → direct edges *)
  d_scopies : (int * (int * int) list) array;  (** stmt → copy installs *)
  d_report : string;  (** the stats-free report JSON of the solved run *)
}

let decoded_key d = d.d_key
let decoded_config_line d = d.d_cfg
let decoded_name d = d.d_name
let decoded_report d = d.d_report
let decoded_stmt_keys d =
  Array.to_list (Array.map (fun i -> d.d_keytbl.(i)) d.d_stmts)

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

let sel_compare (a : sel_code) (b : sel_code) =
  match (a, b) with
  | SPath p, SPath q -> List.compare String.compare p q
  | SOff x, SOff y -> Int.compare x y
  | SPath _, SOff _ -> -1
  | SOff _, SPath _ -> 1

let sel_code_of (s : Cell.sel) : sel_code =
  match s with Cell.Path p -> SPath p | Cell.Off o -> SOff o

exception Refuse of string

let encode ?(keyer = Incr.Progdiff.Keyer.create ()) (t : Solver.t)
    ~(config : config) ~(name : string) ~(key : string)
    ~(report_json : string) : (string, string) result =
  let var_key = Incr.Progdiff.Keyer.var keyer in
  try
    let prog = t.Solver.prog in
    let g = t.Solver.graph in
    (* program-order statements and their table indices *)
    let stmts = Nast.all_stmts prog in
    let stmt_idx : (int, int) Hashtbl.t = Hashtbl.create 256 in
    List.iteri
      (fun i (s : Nast.stmt) -> Hashtbl.replace stmt_idx s.Nast.id i)
      stmts;
    let keys = stmt_keys ~keyer prog in
    let keytbl = List.sort_uniq compare keys in
    let key_idx : (string, int) Hashtbl.t = Hashtbl.create 256 in
    List.iteri (fun i k -> Hashtbl.replace key_idx k i) keytbl;
    (* variables bind by Progdiff key; a snapshot is only usable if
       every referenced variable is the first (and in practice only)
       holder of its key, so the load side's first-occurrence match
       finds exactly it *)
    let first_by_key : (string, Cvar.t) Hashtbl.t = Hashtbl.create 256 in
    List.iter
      (fun (v : Cvar.t) ->
        let k = var_key v in
        if not (Hashtbl.mem first_by_key k) then
          Hashtbl.replace first_by_key k v)
      prog.Nast.pall_vars;
    let var_of : (string, unit) Hashtbl.t = Hashtbl.create 256 in
    let need_var (v : Cvar.t) : string =
      let k = var_key v in
      (match Hashtbl.find_opt first_by_key k with
      | Some v0 when Cvar.equal v0 v -> ()
      | Some _ -> raise (Refuse ("shadowed variable key " ^ k))
      | None ->
          raise
            (Refuse ("cell of a variable outside the program: " ^ k)));
      Hashtbl.replace var_of k ();
      k
    in
    (* collect every referenced cell *)
    let cell_set : (int, unit) Hashtbl.t = Hashtbl.create 512 in
    let need_cell cid = Hashtbl.replace cell_set cid () in
    let classes = Graph.dump_classes g in
    List.iter
      (fun (rep, members, log) ->
        need_cell (Cell.id rep);
        List.iter (fun m -> need_cell (Cell.id m)) members;
        List.iter need_cell log)
      classes;
    Solver.Itbl.iter
      (fun _ tbl -> Solver.Itbl.iter (fun cid _ -> need_cell cid) tbl)
      t.Solver.cursors;
    Solver.Itbl.iter (fun rid _ -> need_cell rid) t.Solver.pointer_subs;
    Solver.Itbl.iter
      (fun sid l ->
        need_cell sid;
        List.iter (fun (did, _) -> need_cell did) !l)
      t.Solver.copy_out;
    let need_pairs tbl =
      Solver.Itbl.iter
        (fun _ l ->
          List.iter
            (fun (a, b) ->
              need_cell a;
              need_cell b)
            !l)
        tbl
    in
    need_pairs t.Solver.stmt_edges;
    need_pairs t.Solver.stmt_copies;
    (* map cells to (var key, selector); refuse unmappable ones (the
       `$unknown` marker object, shadowed keys) — storing them would
       rebind to the wrong storage on load *)
    let cell_list =
      Hashtbl.fold
        (fun cid () acc ->
          let c = Cell.of_id cid in
          (cid, need_var c.Cell.base, sel_code_of c.Cell.sel) :: acc)
        cell_set []
    in
    (* subscribed objects may carry no fact-bearing cells; they still
       need a variable binding *)
    let ssubs_keys =
      List.filter_map
        (fun (s : Nast.stmt) ->
          match Solver.Itbl.find_opt t.Solver.stmt_subs s.Nast.id with
          | None -> None
          | Some set ->
              Some
                ( s.Nast.id,
                  List.map need_var (Cvar.Set.elements !set) ))
        stmts
    in
    if List.length ssubs_keys <> Solver.Itbl.length t.Solver.stmt_subs then
      raise (Refuse "stmt_subs entry outside the program");
    (* deterministic tables: vars sorted by key, cells by (var, sel) *)
    let vars = List.sort compare (Hashtbl.fold (fun k () a -> k :: a) var_of []) in
    let varidx : (string, int) Hashtbl.t = Hashtbl.create 256 in
    List.iteri (fun i k -> Hashtbl.replace varidx k i) vars;
    let cells =
      List.sort
        (fun (_, k1, s1) (_, k2, s2) ->
          match compare (k1 : string) k2 with
          | 0 -> sel_compare s1 s2
          | n -> n)
        cell_list
    in
    let cellidx : (int, int) Hashtbl.t = Hashtbl.create 512 in
    List.iteri (fun i (cid, _, _) -> Hashtbl.replace cellidx cid i) cells;
    let ci cid =
      match Hashtbl.find_opt cellidx cid with
      | Some i -> i
      | None -> raise (Refuse "unregistered cell")
    in
    let si sid =
      match Hashtbl.find_opt stmt_idx sid with
      | Some i -> i
      | None -> raise (Refuse "attribution for a statement outside the program")
    in
    (* ---------------- emit ---------------- *)
    let b = Buffer.create 65536 in
    let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
    let ints l = String.concat " " (List.map string_of_int l) in
    line "%s" version_line;
    line "key %s" key;
    line "cfg %s" (enc_str (config_line config));
    line "name %s" (enc_str name);
    line "vars %d" (List.length vars);
    List.iter (fun k -> line "%s" (enc_str k)) vars;
    line "cells %d" (List.length cells);
    List.iter
      (fun (_, vk, sel) ->
        let vi = Hashtbl.find varidx vk in
        match sel with
        | SPath p ->
            line "%d P %d%s" vi (List.length p)
              (String.concat ""
                 (List.map (fun f -> " " ^ enc_str f) p))
        | SOff o -> line "%d O %d" vi o)
      cells;
    line "keys %d" (List.length keytbl);
    List.iter (fun k -> line "%s" (enc_str k)) keytbl;
    line "stmts %d" (List.length stmts);
    line "%s" (ints (List.map (fun k -> Hashtbl.find key_idx k) keys));
    let externs = List.sort_uniq compare t.Solver.unknown_externs in
    line "externs %d" (List.length externs);
    List.iter (fun e -> line "%s" (enc_str e)) externs;
    let classes_coded =
      List.sort
        (fun (r1, _, _) (r2, _, _) -> Int.compare r1 r2)
        (List.map
           (fun (rep, members, log) ->
             ( ci (Cell.id rep),
               List.map (fun m -> ci (Cell.id m)) members,
               List.map ci log ))
           classes)
    in
    line "classes %d" (List.length classes_coded);
    List.iter
      (fun (rep, members, log) ->
        line "%d %d%s %d%s" rep (List.length members)
          (String.concat "" (List.map (fun m -> " " ^ string_of_int m) members))
          (List.length log)
          (String.concat "" (List.map (fun w -> " " ^ string_of_int w) log)))
      classes_coded;
    (* per-statement tables, iterated in program order *)
    let by_stmt tbl f =
      List.filter_map
        (fun (s : Nast.stmt) ->
          Option.map (fun v -> (si s.Nast.id, f v))
            (Solver.Itbl.find_opt tbl s.Nast.id))
        stmts
    in
    let cursor_entries =
      by_stmt t.Solver.cursors (fun tbl ->
          List.sort compare
            (Solver.Itbl.fold (fun cid k acc -> (ci cid, k) :: acc) tbl []))
    in
    if List.length cursor_entries <> Solver.Itbl.length t.Solver.cursors then
      raise (Refuse "cursor entry outside the program");
    let pair_lines label entries =
      line "%s %d" label (List.length entries);
      List.iter
        (fun (i, pairs) ->
          line "%d %d%s" i (List.length pairs)
            (String.concat ""
               (List.map (fun (a, b) -> Printf.sprintf " %d %d" a b) pairs)))
        entries
    in
    pair_lines "cursors" cursor_entries;
    line "ssubs %d" (List.length ssubs_keys);
    List.iter
      (fun (sid, ks) ->
        let vis = List.sort compare (List.map (Hashtbl.find varidx) ks) in
        line "%d %d%s" (si sid) (List.length vis)
          (String.concat "" (List.map (fun v -> " " ^ string_of_int v) vis)))
      ssubs_keys;
    let psubs =
      List.sort
        (fun (r1, _) (r2, _) -> Int.compare r1 r2)
        (Solver.Itbl.fold
           (fun rid l acc ->
             ( ci rid,
               List.map (fun (s : Nast.stmt) -> si s.Nast.id) !l )
             :: acc)
           t.Solver.pointer_subs [])
    in
    line "psubs %d" (List.length psubs);
    List.iter
      (fun (rid, ss) ->
        line "%d %d%s" rid (List.length ss)
          (String.concat "" (List.map (fun s -> " " ^ string_of_int s) ss)))
      psubs;
    (* copy sources in creation-list order; strays (copy_out keys that
       fell out of copy_srcs) are appended, sorted, to stay complete
       and deterministic *)
    let live = List.filter (Solver.Itbl.mem t.Solver.copy_out) !(t.Solver.copy_srcs) in
    let in_live : (int, unit) Hashtbl.t = Hashtbl.create 64 in
    List.iter (fun sid -> Hashtbl.replace in_live sid ()) live;
    let strays =
      List.sort compare
        (Solver.Itbl.fold
           (fun sid _ acc ->
             if Hashtbl.mem in_live sid then acc else ci sid :: acc)
           t.Solver.copy_out [])
    in
    let srcs = List.map ci live @ strays in
    line "copysrcs %d" (List.length srcs);
    line "%s" (ints srcs);
    line "copy %d" (List.length srcs);
    let copy_of_ci =
      let tbl = Hashtbl.create 64 in
      Solver.Itbl.iter
        (fun sid l -> Hashtbl.replace tbl (ci sid) !l)
        t.Solver.copy_out;
      tbl
    in
    List.iter
      (fun src ->
        let pairs =
          match Hashtbl.find_opt copy_of_ci src with
          | Some l -> List.map (fun (did, cur) -> (ci did, !cur)) l
          | None -> []
        in
        line "%d %d%s" src (List.length pairs)
          (String.concat ""
             (List.map (fun (d, c) -> Printf.sprintf " %d %d" d c) pairs)))
      srcs;
    let sedges =
      by_stmt t.Solver.stmt_edges (fun l ->
          List.map (fun (a, b) -> (ci a, ci b)) !l)
    in
    if List.length sedges <> Solver.Itbl.length t.Solver.stmt_edges then
      raise (Refuse "edge attribution outside the program");
    pair_lines "sedges" sedges;
    let scopies =
      by_stmt t.Solver.stmt_copies (fun l ->
          List.map (fun (a, b) -> (ci a, ci b)) !l)
    in
    if List.length scopies <> Solver.Itbl.length t.Solver.stmt_copies then
      raise (Refuse "copy attribution outside the program");
    pair_lines "scopies" scopies;
    line "report";
    line "%s" report_json;
    Ok (seal (Buffer.contents b))
  with Refuse why -> Error why

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

let decode (bytes : string) : (decoded, string) result =
  try
    let payload =
      match unseal bytes with Ok p -> p | Error why -> raise (Bad why)
    in
    let lines = Array.of_list (String.split_on_char '\n' payload) in
    (* split leaves one trailing "" for the final newline *)
    let nlines = Array.length lines - 1 in
    let pos = ref 0 in
    let next () =
      if !pos >= nlines then raise (Bad "unexpected end of snapshot");
      let l = lines.(!pos) in
      incr pos;
      l
    in
    let expect_version () =
      if next () <> version_line then raise (Bad "unsupported format version")
    in
    let int s =
      match int_of_string_opt s with
      | Some n -> n
      | None -> raise (Bad ("bad integer " ^ s))
    in
    let header name =
      match String.split_on_char ' ' (next ()) with
      | [ h; v ] when h = name -> v
      | _ -> raise (Bad ("expected " ^ name ^ " line"))
    in
    let count name = int (header name) in
    let nat name =
      let n = count name in
      if n < 0 then raise (Bad (name ^ " count negative"));
      n
    in
    let ints_of line = List.map int (String.split_on_char ' ' line) in
    let take_pairs bound = function
      | cnt :: rest ->
          let rec go k acc = function
            | [] when k = 0 -> List.rev acc
            | a :: b :: tl when k > 0 ->
                if a < 0 || a >= bound then raise (Bad "index out of range");
                go (k - 1) ((a, b) :: acc) tl
            | _ -> raise (Bad "malformed pair list")
          in
          go cnt [] rest
      | [] -> raise (Bad "malformed pair list")
    in
    expect_version ();
    let d_key = header "key" in
    let d_cfg = dec_str (header "cfg") in
    let d_name = dec_str (header "name") in
    let nvars = nat "vars" in
    let d_vars = Array.init nvars (fun _ -> dec_str (next ())) in
    let ncells = nat "cells" in
    let d_cells =
      Array.init ncells (fun _ ->
          match String.split_on_char ' ' (next ()) with
          | vi :: "P" :: k :: fields ->
              let vi = int vi and k = int k in
              if vi < 0 || vi >= nvars then raise (Bad "cell var out of range");
              if List.length fields <> k then raise (Bad "bad path arity");
              (vi, SPath (List.map dec_str fields))
          | [ vi; "O"; o ] ->
              let vi = int vi in
              if vi < 0 || vi >= nvars then raise (Bad "cell var out of range");
              (vi, SOff (int o))
          | _ -> raise (Bad "malformed cell"))
    in
    let nkeys = nat "keys" in
    let d_keytbl = Array.init nkeys (fun _ -> dec_str (next ())) in
    let nstmts = nat "stmts" in
    let d_stmts =
      let l =
        if nstmts = 0 then (
          ignore (next ());
          [])
        else ints_of (next ())
      in
      if List.length l <> nstmts then raise (Bad "bad stmts arity");
      let a = Array.of_list l in
      Array.iter
        (fun k -> if k < 0 || k >= nkeys then raise (Bad "stmt key range"))
        a;
      a
    in
    let nex = nat "externs" in
    let d_externs = List.init nex (fun _ -> dec_str (next ())) in
    let nclasses = nat "classes" in
    let d_classes =
      Array.init nclasses (fun _ ->
          match ints_of (next ()) with
          | rep :: m :: rest ->
              if rep < 0 || rep >= ncells then raise (Bad "class rep range");
              if m < 1 then raise (Bad "empty class");
              if List.length rest < m + 1 then raise (Bad "short class line");
              let members = List.filteri (fun i _ -> i < m) rest in
              let rest = List.filteri (fun i _ -> i >= m) rest in
              (match rest with
              | t :: targets ->
                  if List.length targets <> t then
                    raise (Bad "bad class target arity");
                  List.iter
                    (fun c ->
                      if c < 0 || c >= ncells then
                        raise (Bad "class cell range"))
                    (members @ targets);
                  (rep, members, targets)
              | [] -> raise (Bad "short class line"))
          | _ -> raise (Bad "malformed class"))
    in
    let entry_array name bound =
      let n = nat name in
      Array.init n (fun _ ->
          match ints_of (next ()) with
          | i :: rest ->
              if i < 0 || i >= bound then raise (Bad (name ^ " index range"));
              (i, take_pairs ncells rest)
          | [] -> raise (Bad ("malformed " ^ name)))
    in
    let d_cursors = entry_array "cursors" nstmts in
    let nssubs = nat "ssubs" in
    let d_ssubs =
      Array.init nssubs (fun _ ->
          match ints_of (next ()) with
          | i :: k :: vs ->
              if i < 0 || i >= nstmts then raise (Bad "ssubs stmt range");
              if List.length vs <> k then raise (Bad "ssubs arity");
              List.iter
                (fun v ->
                  if v < 0 || v >= nvars then raise (Bad "ssubs var range"))
                vs;
              (i, vs)
          | _ -> raise (Bad "malformed ssubs"))
    in
    let npsubs = nat "psubs" in
    let d_psubs =
      Array.init npsubs (fun _ ->
          match ints_of (next ()) with
          | c :: k :: ss ->
              if c < 0 || c >= ncells then raise (Bad "psubs cell range");
              if List.length ss <> k then raise (Bad "psubs arity");
              List.iter
                (fun s ->
                  if s < 0 || s >= nstmts then raise (Bad "psubs stmt range"))
                ss;
              (c, ss)
          | _ -> raise (Bad "malformed psubs"))
    in
    let ncopysrcs = nat "copysrcs" in
    let d_copysrcs =
      let l =
        if ncopysrcs = 0 then (
          ignore (next ());
          [])
        else ints_of (next ())
      in
      if List.length l <> ncopysrcs then raise (Bad "copysrcs arity");
      List.iter
        (fun c -> if c < 0 || c >= ncells then raise (Bad "copysrcs range"))
        l;
      l
    in
    let d_copy = entry_array "copy" ncells in
    let d_sedges = entry_array "sedges" nstmts in
    let d_scopies = entry_array "scopies" nstmts in
    (match next () with
    | "report" -> ()
    | _ -> raise (Bad "expected report line"));
    let d_report = next () in
    Ok
      {
        d_key;
        d_cfg;
        d_name;
        d_vars;
        d_cells;
        d_keytbl;
        d_stmts;
        d_externs;
        d_classes;
        d_cursors;
        d_ssubs;
        d_psubs;
        d_copysrcs;
        d_copy;
        d_sedges;
        d_scopies;
        d_report;
      }
  with Bad why -> Error why

(* ------------------------------------------------------------------ *)
(* Ancestor distance                                                   *)
(* ------------------------------------------------------------------ *)

let ancestor_distance (d : decoded) ~(request_keys : string list) :
    int option =
  let counts : (string, int ref) Hashtbl.t = Hashtbl.create 256 in
  Array.iter
    (fun ki ->
      let k = d.d_keytbl.(ki) in
      match Hashtbl.find_opt counts k with
      | Some r -> incr r
      | None -> Hashtbl.add counts k (ref 1))
    d.d_stmts;
  let added = ref 0 in
  List.iter
    (fun k ->
      match Hashtbl.find_opt counts k with
      | Some r when !r > 0 -> decr r
      | _ -> incr added)
    request_keys;
  let leftover = Hashtbl.fold (fun _ r acc -> acc + max 0 !r) counts 0 in
  (* leftover base statements = the request removed some: the snapshot
     is not an additive ancestor, monotone warm start would be unsound *)
  if leftover > 0 then None else Some !added

(* ------------------------------------------------------------------ *)
(* Restore                                                             *)
(* ------------------------------------------------------------------ *)

let restore ?(keyer = Incr.Progdiff.Keyer.create ()) (d : decoded)
    ~(config : config) ~(layout : Layout.config)
    ~(strategy : (module Strategy.S)) (prog : Nast.program) :
    (Solver.t * Nast.stmt list, string) result =
  let var_key = Incr.Progdiff.Keyer.var keyer in
  try
    let fail why = raise (Bad why) in
    (* bind snapshot variables to the request program's *)
    let first_by_key : (string, Cvar.t) Hashtbl.t = Hashtbl.create 256 in
    List.iter
      (fun (v : Cvar.t) ->
        let k = var_key v in
        if not (Hashtbl.mem first_by_key k) then
          Hashtbl.replace first_by_key k v)
      prog.Nast.pall_vars;
    let vars =
      Array.map
        (fun k ->
          match Hashtbl.find_opt first_by_key k with
          | Some v -> v
          | None -> fail ("snapshot variable not in the program: " ^ k))
        d.d_vars
    in
    let cells =
      Array.map
        (fun (vi, sel) ->
          Cell.v vars.(vi)
            (match sel with
            | SPath p -> Cell.Path p
            | SOff o -> Cell.Off o))
        d.d_cells
    in
    (* bind snapshot statements positionally per key, like
       Progdiff.align does; leftover request statements are the added
       delta to enqueue *)
    let stmts = Nast.all_stmts prog in
    let req_keys = stmt_keys ~keyer prog in
    let buckets : (string, Nast.stmt Queue.t) Hashtbl.t =
      Hashtbl.create 256
    in
    List.iter2
      (fun (s : Nast.stmt) k ->
        let q =
          match Hashtbl.find_opt buckets k with
          | Some q -> q
          | None ->
              let q = Queue.create () in
              Hashtbl.add buckets k q;
              q
        in
        Queue.add s q)
      stmts req_keys;
    let matched : (int, unit) Hashtbl.t = Hashtbl.create 256 in
    let stmt_of =
      Array.map
        (fun ki ->
          let k = d.d_keytbl.(ki) in
          match Hashtbl.find_opt buckets k with
          | Some q when not (Queue.is_empty q) ->
              let s = Queue.pop q in
              Hashtbl.replace matched s.Nast.id ();
              s
          | _ -> fail ("snapshot statement not in the program: " ^ k))
        d.d_stmts
    in
    let added =
      List.filter
        (fun (s : Nast.stmt) -> not (Hashtbl.mem matched s.Nast.id))
        stmts
    in
    (* a fresh solver over the request program, then its state painted
       from the snapshot *)
    let t =
      Solver.create ~layout ~arith:config.arith ~budget:config.budget
        ~engine:config.engine ~track:true ~strategy prog
    in
    let g = t.Solver.graph in
    (* graph: replay each class's append log against the stored
       representative, then fold the members in. Fact-bearing classes
       keep their representative (unify keeps the side with more
       facts); fact-free classes may pick another member, which
       [canon] absorbs below. *)
    Array.iter
      (fun (rep, members, log) ->
        let repc = cells.(rep) in
        List.iter
          (fun w -> ignore (Graph.add_edge g repc cells.(w)))
          log;
        List.iter
          (fun m -> if m <> rep then ignore (Graph.unify g repc cells.(m)))
          members)
      d.d_classes;
    (match Graph.check_counts g with
    | None -> ()
    | Some why -> fail ("restored graph inconsistent: " ^ why));
    let canon_id ci = Cell.id (Graph.canon g cells.(ci)) in
    let log_size ci =
      match Graph.pts_ids g cells.(ci) with
      | Some s -> Idset.cardinal s
      | None -> 0
    in
    (* cursors: per-(stmt, cell) consumed counts into the class logs *)
    Array.iter
      (fun (si, pairs) ->
        let sid = stmt_of.(si).Nast.id in
        let tbl = Solver.Itbl.create (List.length pairs) in
        List.iter
          (fun (ci, k) ->
            if k < 0 || k > log_size ci then fail "cursor past the log";
            Solver.Itbl.replace tbl (Cell.id cells.(ci)) k)
          pairs;
        Solver.Itbl.replace t.Solver.cursors sid tbl)
      d.d_cursors;
    (* object subscriptions *)
    Array.iter
      (fun (si, vis) ->
        let s = stmt_of.(si) in
        let set =
          List.fold_left
            (fun acc vi -> Cvar.Set.add vars.(vi) acc)
            Cvar.Set.empty vis
        in
        Solver.Itbl.replace t.Solver.stmt_subs s.Nast.id (ref set);
        List.iter
          (fun vi ->
            let v = vars.(vi) in
            match Cvar.Tbl.find_opt t.Solver.subscribers v with
            | Some l -> l := s :: !l
            | None -> Cvar.Tbl.replace t.Solver.subscribers v (ref [ s ]))
          vis)
      d.d_ssubs;
    (* pointer (cursor) subscriptions, keyed by the restored class rep *)
    Array.iter
      (fun (ci, sis) ->
        let rid = canon_id ci in
        let ss = List.map (fun si -> stmt_of.(si)) sis in
        (match Solver.Itbl.find_opt t.Solver.pointer_subs rid with
        | Some l -> l := !l @ ss
        | None -> Solver.Itbl.replace t.Solver.pointer_subs rid (ref ss));
        List.iter
          (fun (s : Nast.stmt) ->
            Hashtbl.replace t.Solver.cell_subbed (s.Nast.id, rid) ())
          ss)
      d.d_psubs;
    (* copy edges *)
    t.Solver.copy_srcs := List.map canon_id d.d_copysrcs;
    Array.iter
      (fun (ci, pairs) ->
        let sid = canon_id ci in
        let entries =
          List.map
            (fun (di, cur) ->
              if cur < 0 || cur > log_size ci then
                fail "copy cursor past the log";
              let did = canon_id di in
              Hashtbl.replace t.Solver.copy_mem (sid, did) ();
              (did, ref cur))
            pairs
        in
        Solver.Itbl.replace t.Solver.copy_out sid (ref entries))
      d.d_copy;
    (* attribution: per-statement lists, membership and support derived *)
    let bump tbl key =
      match Hashtbl.find_opt tbl key with
      | Some r -> incr r
      | None -> Hashtbl.add tbl key (ref 1)
    in
    Array.iter
      (fun (si, pairs) ->
        let sid = stmt_of.(si).Nast.id in
        let l =
          List.map
            (fun (a, b) ->
              let e = (Cell.id cells.(a), Cell.id cells.(b)) in
              Hashtbl.replace t.Solver.edge_stmt_mem
                (sid, fst e, snd e) ();
              bump t.Solver.edge_support e;
              e)
            pairs
        in
        Solver.Itbl.replace t.Solver.stmt_edges sid (ref l))
      d.d_sedges;
    Array.iter
      (fun (si, pairs) ->
        let sid = stmt_of.(si).Nast.id in
        let l =
          List.map
            (fun (a, b) ->
              let e = (Cell.id cells.(a), Cell.id cells.(b)) in
              Hashtbl.replace t.Solver.copy_stmt_mem
                (sid, fst e, snd e) ();
              bump t.Solver.copy_support e;
              e)
            pairs
        in
        Solver.Itbl.replace t.Solver.stmt_copies sid (ref l))
      d.d_scopies;
    t.Solver.unknown_externs <- d.d_externs;
    Ok (t, added)
  with
  | Bad why -> Error why
  | Invalid_argument why -> Error ("restore: " ^ why)
