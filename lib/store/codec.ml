(** Store file codec: the store key and the one report-file format.
    See the interface. *)

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
  Printf.sprintf "%s|%s|%s|%s|%s" c.strategy_id (Solver.engine_name c.engine)
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

let shadowed_key ~keyer (p : Nast.program) : string option =
  let first : (string, Cfront.Cvar.t) Hashtbl.t = Hashtbl.create 256 in
  List.find_map
    (fun (v : Cfront.Cvar.t) ->
      let k = Incr.Progdiff.Keyer.var keyer v in
      match Hashtbl.find_opt first k with
      | Some v0 -> if Cfront.Cvar.equal v0 v then None else Some k
      | None ->
          Hashtbl.replace first k v;
          None)
    p.Nast.pall_vars

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

(* Inverse of [enc_str]; [None] on a malformed escape. *)
let dec_str (s : string) : string option =
  if not (String.contains s '%') then Some s
  else
    let n = String.length s in
    let b = Buffer.create n in
    let hex c =
      match c with
      | '0' .. '9' -> Char.code c - Char.code '0'
      | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
      | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
      | _ -> raise Exit
    in
    let rec go i =
      if i < n then
        if s.[i] = '%' then begin
          if i + 2 >= n then raise Exit;
          Buffer.add_char b (Char.chr ((hex s.[i + 1] * 16) + hex s.[i + 2]));
          go (i + 3)
        end
        else begin
          Buffer.add_char b s.[i];
          go (i + 1)
        end
    in
    match go 0 with () -> Some (Buffer.contents b) | exception Exit -> None

(* The integrity trailer: a final line [sum <md5 hex>] over all bytes
   before it. *)
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

(* ------------------------------------------------------------------ *)
(* Report files                                                        *)
(* ------------------------------------------------------------------ *)

let version_line = "structcast-report v1"

(* Everything a request has before its frontend runs, after the
   report-file version. The included files are not in the key — the
   record lists them, and a hit re-checks each one — so an edited header
   is a plain miss whose answer then overwrites the record. *)
let record_key (cfg : config) ~name ~source =
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          [
            version_line;
            config_line cfg;
            enc_str name;
            Digest.to_hex (Digest.string source);
          ]))

type report_file = {
  key : string;
  includes : (string * string option) list;
  diag_errors : bool;
  report : string;
}

let encode r =
  let b = Buffer.create (String.length r.report + 256) in
  let line s =
    Buffer.add_string b s;
    Buffer.add_char b '\n'
  in
  line version_line;
  line ("key " ^ r.key);
  List.iter
    (fun (rel, d) ->
      line
        (Printf.sprintf "inc %s %s" (enc_str rel)
           (Option.value d ~default:"absent")))
    r.includes;
  line (if r.diag_errors then "diag_errors 1" else "diag_errors 0");
  line "report";
  line r.report;
  seal (Buffer.contents b)

let decode bytes : (report_file, string) result =
  let include_of line =
    match String.split_on_char ' ' line with
    | [ "inc"; rel; d ] ->
        Option.map
          (fun rel -> (rel, if d = "absent" then None else Some d))
          (dec_str rel)
    | _ -> None
  in
  Result.bind (unseal bytes) (fun payload ->
      match String.split_on_char '\n' payload with
      | version :: _ when version <> version_line ->
          Error "unsupported format version"
      | _ :: key_line :: rest -> (
          (* the report is one line, the last before the trailer *)
          match List.rev rest with
          | "" :: report :: "report" :: diag :: inc_rev -> (
              let inc_lines = List.rev inc_rev in
              let includes = List.filter_map include_of inc_lines in
              match (String.split_on_char ' ' key_line, diag) with
              | [ "key"; key ], ("diag_errors 0" | "diag_errors 1")
                when List.length includes = List.length inc_lines ->
                  Ok
                    {
                      key;
                      includes;
                      diag_errors = diag = "diag_errors 1";
                      report;
                    }
              | _ -> Error "malformed header")
          | _ -> Error "malformed report file")
      | _ -> Error "truncated header")
