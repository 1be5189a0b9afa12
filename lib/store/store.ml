(** Crash-safe content-addressed fixpoint store. See the interface for
    the directory layout, durability story, and the degrade-to-recompute
    guarantee. *)

module Codec = Codec
open Cfront
open Norm
open Core

type fault = Short_write | Bit_flip | Enospc | Crash_rename

exception Crashed
(** Raised by the injection layer to simulate dying before an operation
    completed. Never escapes the store: every public operation catches
    it, counts a write failure, and degrades to not-stored. *)

type row = { r_key : string; r_cfg : string; r_size : int }

type t = {
  dir : string;
  snaps_dir : string;
  records_dir : string;
  quarantine_dir : string;
  index_path : string;
  max_bytes : int;
  inject : int -> fault option;
  mutable write_ops : int;
  mutable rows : row list;  (** live snapshots and records, most recent first *)
  mutable index_lines : int;  (** physical lines, for compaction *)
  counters : Metrics.store;
  log : string -> unit;
}

let counters st = st.counters
let dir st = st.dir
let snap_path st key = Filename.concat st.snaps_dir (key ^ ".snap")
let record_path st key = Filename.concat st.records_dir (key ^ ".rec")
let quarantine_path st key = Filename.concat st.quarantine_dir (key ^ ".snap")

(* Index rows of report records carry this marker where a snapshot row
   carries its configuration digest (32 hex digits), so the ancestor
   scan never mistakes a record for a snapshot. *)
let record_cfg = "record"

let row_path st r =
  if r.r_cfg = record_cfg then record_path st r.r_key else snap_path st r.r_key

let live st = List.map (fun r -> (r.r_key, r.r_size)) st.rows

(* ------------------------------------------------------------------ *)
(* Fault-injected writes                                               *)
(* ------------------------------------------------------------------ *)

(* Every physical write draws one ordinal from the injection hook.
   Short_write truncates the bytes (the fsync and rename still happen:
   a torn-but-visible file the checksum must catch); Bit_flip corrupts
   one bit mid-payload; Enospc fails before anything reaches the disk;
   Crash_rename stops after the temp file is durable but before it
   becomes visible — the injected equivalent of kill -9 between fsync
   and rename. *)
let mangle st (data : string) : string * bool =
  st.write_ops <- st.write_ops + 1;
  match st.inject st.write_ops with
  | None -> (data, false)
  | Some Enospc -> raise (Sys_error "No space left on device (injected)")
  | Some Short_write -> (String.sub data 0 (String.length data / 2), false)
  | Some Bit_flip ->
      let b = Bytes.of_string data in
      let i = Bytes.length b / 2 in
      if Bytes.length b > 0 then
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x10));
      (Bytes.to_string b, false)
  | Some Crash_rename -> (data, true)

let write_fd fd (data : string) =
  let n = String.length data in
  let rec go off =
    if off < n then go (off + Unix.write_substring fd data off (n - off))
  in
  go 0

(* Temp names carry the writer's pid, so processes sharing a store (the
   server's forked workers) never truncate, rename or sweep each other's
   in-flight temp. *)
let temp_path dest = Printf.sprintf "%s.%d.tmp" dest (Unix.getpid ())

let pid_alive pid =
  match Unix.kill pid 0 with
  | () -> true
  | exception Unix.Unix_error (Unix.EPERM, _, _) -> true
  | exception Unix.Unix_error _ -> false

(* Remove the temps in [dir] whose writer is this process (none of its
   writes is in flight while it opens a store) or no longer runs;
   pid-less temps come from older versions and go too. *)
let sweep_temps dir =
  let me = Unix.getpid () in
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".tmp" then
        let owner =
          let ext = Filename.extension (Filename.chop_suffix f ".tmp") in
          if ext = "" then None
          else int_of_string_opt (String.sub ext 1 (String.length ext - 1))
        in
        let stale =
          match owner with
          | Some pid when pid > 0 -> pid = me || not (pid_alive pid)
          | _ -> true
        in
        if stale then
          try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (try Sys.readdir dir with Sys_error _ -> [||])

(* temp + fsync + rename: after this returns, [dest] holds exactly
   [data] (or its injected mangling); a crash at any point leaves
   either the old [dest] or a stray temp file cleaned at next open. *)
let atomic_write st ~temp ~dest (data : string) : unit =
  let data, crash = mangle st data in
  let fd =
    Unix.openfile temp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      write_fd fd data;
      Unix.fsync fd);
  if crash then raise Crashed;
  Sys.rename temp dest

(* [sync:false] is for [touch] lines: losing one costs eviction order,
   never an answer, so a hit does not pay for an fsync. *)
let append_index ?(sync = true) st (line : string) : unit =
  let data, crash = mangle st (line ^ "\n") in
  if crash then raise Crashed;
  let fd =
    Unix.openfile st.index_path
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
      0o644
  in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      write_fd fd data;
      if sync then Unix.fsync fd);
  st.index_lines <- st.index_lines + 1

(* Index bookkeeping must never fail an operation that already
   succeeded on the snapshot files themselves: a lost index line only
   costs recency/size accounting, which the next open rebuilds. *)
let append_index_soft ?sync st line =
  try append_index ?sync st line
  with Crashed | Sys_error _ | Unix.Unix_error _ ->
    st.log "index append failed (snapshot state unaffected)"

let drop_row st key =
  st.rows <- List.filter (fun r -> r.r_key <> key) st.rows

(* ------------------------------------------------------------------ *)
(* Index load, torn-tail recovery, compaction                          *)
(* ------------------------------------------------------------------ *)

let read_file path : string =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_index (contents : string) : row list * int =
  let parts = String.split_on_char '\n' contents in
  (* the last element is "" after a complete final newline, or a torn
     fragment from a write that died mid-line: both are dropped *)
  let lines =
    match List.rev parts with [] -> [] | _last :: rest -> List.rev rest
  in
  let rows =
    List.fold_left
      (fun rows line ->
        match String.split_on_char '\t' line with
        | [ "v1"; "add"; key; cfg; size ] when key <> "" -> (
            match int_of_string_opt size with
            | Some sz ->
                { r_key = key; r_cfg = cfg; r_size = sz }
                :: List.filter (fun r -> r.r_key <> key) rows
            | None -> rows)
        | [ "v1"; "touch"; key ] -> (
            match List.partition (fun r -> r.r_key = key) rows with
            | [ r ], rest -> r :: rest
            | _ -> rows)
        | [ "v1"; "del"; key; _reason ] ->
            List.filter (fun r -> r.r_key <> key) rows
        | _ -> rows (* corrupt line: recovered by skipping *))
      [] lines
  in
  (rows, List.length lines)

let compact_threshold = 512

let compact st =
  let temp = temp_path st.index_path in
  let b = Buffer.create 4096 in
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "v1\tadd\t%s\t%s\t%d\n" r.r_key r.r_cfg r.r_size))
    (List.rev st.rows);
  match atomic_write st ~temp ~dest:st.index_path (Buffer.contents b) with
  | () -> st.index_lines <- List.length st.rows
  | exception (Crashed | Sys_error _ | Unix.Unix_error _) ->
      st.log "index compaction failed; keeping the old log"

let mkdir_p path =
  try Unix.mkdir path 0o755
  with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let open_store ?(max_bytes = 256 * 1024 * 1024) ?(inject = fun _ -> None)
    ?(log = ignore) dir : t =
  mkdir_p dir;
  let snaps_dir = Filename.concat dir "snaps" in
  let records_dir = Filename.concat dir "records" in
  let quarantine_dir = Filename.concat dir "quarantine" in
  List.iter mkdir_p [ snaps_dir; records_dir; quarantine_dir ];
  let index_path = Filename.concat dir "index.log" in
  let rows, lines =
    if Sys.file_exists index_path then parse_index (read_file index_path)
    else ([], 0)
  in
  (* a crash between fsync and rename leaves a durable temp: discard
     it once its writer is gone *)
  List.iter sweep_temps [ dir; snaps_dir; records_dir ];
  let st =
    {
      dir;
      snaps_dir;
      records_dir;
      quarantine_dir;
      index_path;
      max_bytes;
      inject;
      write_ops = 0;
      rows;
      index_lines = lines;
      counters = Metrics.store_create ();
      log;
    }
  in
  if lines - List.length rows > compact_threshold then compact st;
  st

(* ------------------------------------------------------------------ *)
(* Quarantine, eviction, put                                           *)
(* ------------------------------------------------------------------ *)

(* Corrupt snapshots and records are moved, never deleted: the bytes
   stay available for a post-mortem, and the store stops consulting
   them. *)
let quarantine_file st key ~path ~what ~why =
  (try
     Sys.rename path
       (Filename.concat st.quarantine_dir (Filename.basename path))
   with Sys_error _ -> ());
  append_index_soft st (Printf.sprintf "v1\tdel\t%s\tcorrupt" key);
  drop_row st key;
  st.counters.Metrics.corrupt_quarantined <-
    st.counters.Metrics.corrupt_quarantined + 1;
  st.log (Printf.sprintf "quarantined %s %s: %s" what key why)

let quarantine st key ~why =
  quarantine_file st key ~path:(snap_path st key) ~what:"snapshot" ~why

let rec evict st =
  let total = List.fold_left (fun a r -> a + r.r_size) 0 st.rows in
  if total > st.max_bytes && List.length st.rows > 1 then begin
    match List.rev st.rows with
    | oldest :: _ ->
        (try Sys.remove (row_path st oldest) with Sys_error _ -> ());
        append_index_soft st
          (Printf.sprintf "v1\tdel\t%s\tevict" oldest.r_key);
        drop_row st oldest.r_key;
        st.counters.Metrics.evictions <- st.counters.Metrics.evictions + 1;
        st.log
          (Printf.sprintf "evicted %s" (Filename.basename (row_path st oldest)));
        evict st
    | [] -> ()
  end

(* One file per key, snapshot or record: [true] once it is durable,
   indexed and counted against the byte budget. *)
let put_file st ~key ~cfg ~dest (bytes : string) : bool =
  match atomic_write st ~temp:(temp_path dest) ~dest bytes with
  | () ->
      append_index_soft st
        (Printf.sprintf "v1\tadd\t%s\t%s\t%d" key cfg (String.length bytes));
      drop_row st key;
      st.rows <-
        { r_key = key; r_cfg = cfg; r_size = String.length bytes } :: st.rows;
      evict st;
      true
  | exception (Crashed | Sys_error _ | Unix.Unix_error _) ->
      (* not stored; the answer this run computed is unaffected *)
      st.counters.Metrics.write_failures <-
        st.counters.Metrics.write_failures + 1;
      st.log (Printf.sprintf "write failed for %s" (Filename.basename dest));
      false

let put st ~key ~cfg_digest (bytes : string) : unit =
  if put_file st ~key ~cfg:cfg_digest ~dest:(snap_path st key) bytes then
    st.counters.Metrics.snapshots_written <-
      st.counters.Metrics.snapshots_written + 1

let touch st key = append_index_soft ~sync:false st ("v1\ttouch\t" ^ key)

(* ------------------------------------------------------------------ *)
(* Lookup                                                              *)
(* ------------------------------------------------------------------ *)

(* Exact lookup probes the snapshot file directly — content addressing
   makes the filesystem the authoritative index; index rows only feed
   recency, sizes, and the ancestor scan. *)
let lookup_exact st key : Codec.decoded option =
  let path = snap_path st key in
  if not (Sys.file_exists path) then None
  else
    match read_file path with
    | exception Sys_error why ->
        st.log (Printf.sprintf "unreadable snapshot %s: %s" key why);
        None
    | bytes -> (
        match Codec.decode bytes with
        | Ok d when Codec.decoded_key d = key -> Some d
        | Ok _ ->
            quarantine st key ~why:"key does not match its content";
            None
        | Error why ->
            quarantine st key ~why;
            None)

let ancestor_scan_cap = 8

let find_ancestor st ~cfg_digest ~exact_key ~request_keys :
    (Codec.decoded * int) option =
  let req_n = List.length request_keys in
  let limit = max 1 (req_n / 2) in
  let candidates =
    List.filteri
      (fun i _ -> i < ancestor_scan_cap)
      (List.filter
         (fun r -> r.r_cfg = cfg_digest && r.r_key <> exact_key)
         st.rows)
  in
  List.fold_left
    (fun best r ->
      match lookup_exact st r.r_key with
      | None -> best
      | Some d -> (
          match Codec.ancestor_distance d ~request_keys with
          | Some dist
            when dist <= limit
                 && (match best with
                    | None -> true
                    | Some (_, b) -> dist < b) ->
              Some (d, dist)
          | _ -> best))
    None candidates

(* ------------------------------------------------------------------ *)
(* Serving                                                             *)
(* ------------------------------------------------------------------ *)

type origin = [ `Hit | `Ancestor of int | `Cold ]

type served = {
  sv_json : string;
  sv_result : Analysis.result option;
  sv_origin : origin;
}

let serve st ~(want : [ `Json | `Solver ]) ~(diags : Diag.payload list)
    ~name ~strategy_id ~engine ~layout ~layout_id ?(arith = `Spread)
    ~budget (prog : Nast.program) : served =
  let strategy =
    match Analysis.strategy_of_id strategy_id with
    | Some s -> s
    | None -> invalid_arg ("store: unknown strategy " ^ strategy_id)
  in
  let cfg =
    { Codec.strategy_id; engine; layout_id; arith; budget }
  in
  let cfg_digest = Codec.config_digest cfg in
  let diags_fp = String.concat "" (List.map Report.json_of_diag diags) in
  (* one keyer for the whole request: key, ancestor search, restore and
     encode all render the same variables *)
  let keyer = Incr.Progdiff.Keyer.create () in
  let key = Codec.key ~keyer cfg ~name ~diags_fp prog in
  let c = st.counters in
  let mk_result solver time_s =
    {
      Analysis.solver;
      metrics = Metrics.summarize solver;
      time_s;
      degraded = Solver.degradations solver;
      diags;
    }
  in
  let render r = Report.json_of_result ~timing:false ~solver_stats:false ~name r in
  let save solver json =
    if Solver.degradations solver = [] then
      match
        Codec.encode ~keyer solver ~config:cfg ~name ~key ~report_json:json
      with
      | Ok bytes -> put st ~key ~cfg_digest bytes
      | Error why -> st.log ("snapshot refused: " ^ why)
  in
  (* restore + resume; [added] empty on an exact repeat, so the resume
     returns without one solver visit *)
  let warm d =
    match Codec.restore ~keyer d ~config:cfg ~layout ~strategy prog with
    | Error why ->
        quarantine st (Codec.decoded_key d) ~why:("restore: " ^ why);
        None
    | Ok (solver, added) ->
        let t0 = Sys.time () in
        List.iter (Solver.enqueue solver) added;
        Solver.resume solver;
        solver.Solver.incr_stmts_added <- List.length added;
        solver.Solver.incr_warm_visits <- solver.Solver.rounds;
        Some (solver, added, Sys.time () -. t0)
  in
  let cold () =
    let t0 = Sys.time () in
    let solver =
      Solver.run ~layout ~arith ~budget ~engine ~track:true ~strategy prog
    in
    let r = mk_result solver (Sys.time () -. t0) in
    let json = render r in
    save solver json;
    { sv_json = json; sv_result = Some r; sv_origin = `Cold }
  in
  let miss () =
    c.Metrics.misses <- c.Metrics.misses + 1;
    match
      find_ancestor st ~cfg_digest ~exact_key:key
        ~request_keys:(Codec.stmt_keys ~keyer prog)
    with
    | None -> cold ()
    | Some (d, dist) -> (
        match warm d with
        | None -> cold ()
        | Some (solver, _, dt) ->
            c.Metrics.ancestor_warm_starts <-
              c.Metrics.ancestor_warm_starts + 1;
            touch st (Codec.decoded_key d);
            let r = mk_result solver dt in
            let json = render r in
            save solver json;
            { sv_json = json; sv_result = Some r; sv_origin = `Ancestor dist })
  in
  match lookup_exact st key with
  | None -> miss ()
  | Some d -> (
      match want with
      | `Json ->
          c.Metrics.hits <- c.Metrics.hits + 1;
          touch st key;
          {
            sv_json = Codec.decoded_report d;
            sv_result = None;
            sv_origin = `Hit;
          }
      | `Solver -> (
          match warm d with
          | None -> miss () (* quarantined by [warm] *)
          | Some (solver, _, dt) ->
              c.Metrics.hits <- c.Metrics.hits + 1;
              touch st key;
              let r = mk_result solver dt in
              {
                sv_json = Codec.decoded_report d;
                sv_result = Some r;
                sv_origin = `Hit;
              }))

(* ------------------------------------------------------------------ *)
(* Report records (direct mode)                                        *)
(* ------------------------------------------------------------------ *)

let record_version = "structcast-report v1"

(* Everything a request has before its frontend runs. The included
   files are not in the key — the record lists them, and a hit
   re-checks each one — so an edited header is a plain miss whose
   answer then overwrites the record. *)
let record_key (cfg : Codec.config) ~name ~source =
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          [
            record_version;
            Codec.config_line cfg;
            Codec.enc_str name;
            Digest.to_hex (Digest.string source);
          ]))

type record = {
  rc_key : string;
  rc_includes : (string * string option) list;
  rc_diag_errors : bool;
  rc_report : string;
}

let encode_record r =
  let b = Buffer.create (String.length r.rc_report + 256) in
  let line s =
    Buffer.add_string b s;
    Buffer.add_char b '\n'
  in
  line record_version;
  line ("key " ^ r.rc_key);
  List.iter
    (fun (rel, d) ->
      line
        (Printf.sprintf "inc %s %s" (Codec.enc_str rel)
           (Option.value d ~default:"absent")))
    r.rc_includes;
  line (if r.rc_diag_errors then "diag_errors 1" else "diag_errors 0");
  line "report";
  line r.rc_report;
  Codec.seal (Buffer.contents b)

let decode_record bytes : (record, string) result =
  let include_of line =
    match String.split_on_char ' ' line with
    | [ "inc"; rel; d ] ->
        Option.map
          (fun rel -> (rel, if d = "absent" then None else Some d))
          (Codec.dec_str_opt rel)
    | _ -> None
  in
  Result.bind (Codec.unseal bytes) (fun payload ->
      (* the report is one line, like a snapshot's *)
      match List.rev (String.split_on_char '\n' payload) with
      | "" :: report :: "report" :: diag :: rest -> (
          match List.rev rest with
          | version :: key_line :: inc_lines -> (
              let includes = List.filter_map include_of inc_lines in
              match (String.split_on_char ' ' key_line, diag) with
              | _ when version <> record_version ->
                  Error "unsupported format version"
              | [ "key"; key ], ("diag_errors 0" | "diag_errors 1")
                when List.length includes = List.length inc_lines ->
                  Ok
                    {
                      rc_key = key;
                      rc_includes = includes;
                      rc_diag_errors = diag = "diag_errors 1";
                      rc_report = report;
                    }
              | _ -> Error "malformed record header")
          | _ -> Error "truncated record header")
      | _ -> Error "malformed record")

let put_record st ~key ~includes ~diag_errors report =
  ignore
    (put_file st ~key ~cfg:record_cfg ~dest:(record_path st key)
       (encode_record
          {
            rc_key = key;
            rc_includes = includes;
            rc_diag_errors = diag_errors;
            rc_report = report;
          }))

let find_record st ~key ~include_digest : (string * bool) option =
  let path = record_path st key in
  let quarantine why =
    quarantine_file st key ~path ~what:"report record" ~why;
    None
  in
  if not (Sys.file_exists path) then None
  else
    match read_file path with
    | exception Sys_error why ->
        st.log (Printf.sprintf "unreadable record %s: %s" key why);
        None
    | bytes -> (
        match decode_record bytes with
        | Error why -> quarantine why
        | Ok r when r.rc_key <> key ->
            quarantine "key does not match its content"
        | Ok r ->
            let unchanged (rel, d) =
              match include_digest rel with
              | now -> now = d
              | exception Sys_error _ -> false
            in
            if List.for_all unchanged r.rc_includes then begin
              st.counters.Metrics.hits <- st.counters.Metrics.hits + 1;
              touch st key;
              Some (r.rc_report, r.rc_diag_errors)
            end
            else None)

(* Splice the counter block into a report object so a fault is visible
   in the run that saw it, without ever entering the report proper. *)
let with_counters st (json : string) : string =
  let n = String.length json in
  if n >= 2 && json.[n - 1] = '}' then
    String.sub json 0 (n - 1)
    ^ ",\"store\":"
    ^ Metrics.store_json st.counters
    ^ "}"
  else json
