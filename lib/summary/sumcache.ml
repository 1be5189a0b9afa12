(** On-disk summary records; see the interface for the contract. *)

type sel = Path of string list | Off of int
type endpoint = string * sel

type record = {
  r_fn : string;
  r_edges : (endpoint * endpoint) list;
  r_copies : (endpoint * endpoint) list;
}

type t = {
  dir : string;
  quarantine_dir : string;
  counters : Core.Metrics.sumcache;
  log : string -> unit;
}

let version_line = "structcast-sum v1"

let mkdir_p path =
  try Unix.mkdir path 0o755
  with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let open_cache ?(log = ignore) dir : t =
  mkdir_p dir;
  let quarantine_dir = Filename.concat dir "quarantine" in
  mkdir_p quarantine_dir;
  (* a crash between fsync and rename leaves a durable temp: discard *)
  Store.sweep_temps dir;
  { dir; quarantine_dir; counters = Core.Metrics.sumcache_create (); log }

let counters t = t.counters
let record_path t key = Filename.concat t.dir (key ^ ".sum")

(* ------------------------------------------------------------------ *)
(* Wire format                                                         *)
(* ------------------------------------------------------------------ *)

(* One whitespace-free token per string (Store.Codec's escaping); a
   selector is ["P" k f1..fk] or ["O" n], so lines parse left to right
   with no lookahead. *)
let sel_tokens = function
  | Path p ->
      "P" :: string_of_int (List.length p) :: List.map Store.Codec.enc_str p
  | Off o -> [ "O"; string_of_int o ]

let endpoint_tokens ((k, s) : endpoint) =
  Store.Codec.enc_str k :: sel_tokens s

let encode ~(key : string) (r : record) : string =
  let b = Buffer.create 4096 in
  let line toks =
    Buffer.add_string b (String.concat " " toks);
    Buffer.add_char b '\n'
  in
  line [ version_line ];
  line [ "key"; key ];
  line [ "fn"; Store.Codec.enc_str r.r_fn ];
  let pairs label l =
    line [ label; string_of_int (List.length l) ];
    List.iter
      (fun (a, z) -> line (endpoint_tokens a @ endpoint_tokens z))
      l
  in
  pairs "edges" r.r_edges;
  pairs "copies" r.r_copies;
  let payload = Buffer.contents b in
  payload ^ Printf.sprintf "sum %s\n" (Digest.to_hex (Digest.string payload))

exception Bad of string

let decode ~(key : string) (bytes : string) : (record, string) result =
  try
    let n = String.length bytes in
    if n = 0 then raise (Bad "empty record");
    if bytes.[n - 1] <> '\n' then raise (Bad "truncated (no final newline)");
    let i =
      match String.rindex_from_opt bytes (n - 2) '\n' with
      | Some i -> i
      | None -> raise (Bad "truncated")
    in
    let payload = String.sub bytes 0 (i + 1) in
    (match String.split_on_char ' ' (String.sub bytes (i + 1) (n - i - 2)) with
    | [ "sum"; hex ] when String.length hex = 32 ->
        if Digest.to_hex (Digest.string payload) <> hex then
          raise (Bad "checksum mismatch")
    | _ -> raise (Bad "missing checksum line"));
    let lines = Array.of_list (String.split_on_char '\n' payload) in
    let nlines = Array.length lines - 1 in
    let pos = ref 0 in
    let next () =
      if !pos >= nlines then raise (Bad "unexpected end of record");
      let l = lines.(!pos) in
      incr pos;
      l
    in
    let int s =
      match int_of_string_opt s with
      | Some n -> n
      | None -> raise (Bad ("bad integer " ^ s))
    in
    let dec s =
      match Store.Codec.dec_str_opt s with
      | Some v -> v
      | None -> raise (Bad "bad percent escape")
    in
    if next () <> version_line then raise (Bad "unsupported format version");
    (match String.split_on_char ' ' (next ()) with
    | [ "key"; k ] when k = key -> ()
    | [ "key"; _ ] -> raise (Bad "key does not match its content")
    | _ -> raise (Bad "expected key line"));
    let fn =
      match String.split_on_char ' ' (next ()) with
      | [ "fn"; f ] -> dec f
      | _ -> raise (Bad "expected fn line")
    in
    let sel = function
      | "P" :: k :: rest ->
          let k = int k in
          if k < 0 || List.length rest < k then raise (Bad "bad path arity");
          let fields = List.filteri (fun i _ -> i < k) rest in
          (Path (List.map dec fields), List.filteri (fun i _ -> i >= k) rest)
      | "O" :: o :: rest -> (Off (int o), rest)
      | _ -> raise (Bad "malformed selector")
    in
    let endpoint = function
      | vk :: rest ->
          let s, rest = sel rest in
          ((dec vk, s), rest)
      | [] -> raise (Bad "malformed endpoint")
    in
    let pair_section label =
      let count =
        match String.split_on_char ' ' (next ()) with
        | [ l; c ] when l = label -> int c
        | _ -> raise (Bad ("expected " ^ label ^ " line"))
      in
      if count < 0 then raise (Bad (label ^ " count negative"));
      List.init count (fun _ ->
          let toks = String.split_on_char ' ' (next ()) in
          let a, rest = endpoint toks in
          let z, rest = endpoint rest in
          if rest <> [] then raise (Bad "trailing tokens on pair line");
          (a, z))
    in
    let r_edges = pair_section "edges" in
    let r_copies = pair_section "copies" in
    Ok { r_fn = fn; r_edges; r_copies }
  with Bad why -> Error why

(* ------------------------------------------------------------------ *)
(* Load / store                                                        *)
(* ------------------------------------------------------------------ *)

let read_file path : string =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let quarantine t key ~why =
  (try
     Sys.rename (record_path t key)
       (Filename.concat t.quarantine_dir (key ^ ".sum"))
   with Sys_error _ -> ());
  t.counters.Core.Metrics.sum_corrupt <-
    t.counters.Core.Metrics.sum_corrupt + 1;
  t.log (Printf.sprintf "quarantined summary record %s: %s" key why)

let get t ~key : record option =
  let path = record_path t key in
  if not (Sys.file_exists path) then None
  else
    match read_file path with
    | exception Sys_error why ->
        t.log (Printf.sprintf "unreadable summary record %s: %s" key why);
        None
    | bytes -> (
        match decode ~key bytes with
        | Ok r -> Some r
        | Error why ->
            quarantine t key ~why;
            None)

let write_fd fd (data : string) =
  let n = String.length data in
  let rec go off =
    if off < n then go (off + Unix.write_substring fd data off (n - off))
  in
  go 0

let put t ~key (r : record) : unit =
  let dest = record_path t key in
  let temp = Store.temp_path dest in
  match
    let data = encode ~key r in
    let fd =
      Unix.openfile temp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
    in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        write_fd fd data;
        Unix.fsync fd);
    Sys.rename temp dest
  with
  | () ->
      t.counters.Core.Metrics.sum_written <-
        t.counters.Core.Metrics.sum_written + 1
  | exception (Sys_error _ | Unix.Unix_error _) ->
      t.counters.Core.Metrics.sum_write_failures <-
        t.counters.Core.Metrics.sum_write_failures + 1;
      t.log (Printf.sprintf "summary record write failed for %s" key)
