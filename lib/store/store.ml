(** Crash-safe content-addressed report store. See the interface for
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
   carries its configuration digest (32 hex digits), so eviction
   knows which directory a row's file lives in. *)
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

let touch st key = append_index_soft ~sync:false st ("v1\ttouch\t" ^ key)

(* ------------------------------------------------------------------ *)
(* Lookup                                                              *)
(* ------------------------------------------------------------------ *)

(* Read and verify the file at [path]: [None] when it is absent or
   unreadable, and, after quarantining it, when it fails its checksum,
   version or key check. Content addressing makes the filesystem the
   authoritative index; index rows only feed recency and sizes. *)
let read_verified st ~key ~path ~what : Codec.report_file option =
  if not (Sys.file_exists path) then None
  else
    match read_file path with
    | exception Sys_error why ->
        st.log (Printf.sprintf "unreadable %s %s: %s" what key why);
        None
    | bytes -> (
        let quarantine why =
          quarantine_file st key ~path ~what ~why;
          None
        in
        match Codec.decode bytes with
        | Error why -> quarantine why
        | Ok f when f.Codec.key <> key ->
            quarantine "key does not match its content"
        | Ok f -> Some f)

let hit st key =
  st.counters.Metrics.hits <- st.counters.Metrics.hits + 1;
  touch st key

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
    ~name ~strategy_id ~engine ~layout ~layout_id ~budget
    (prog : Nast.program) : served =
  let strategy =
    match Analysis.strategy_of_id strategy_id with
    | Some s -> s
    | None -> invalid_arg ("store: unknown strategy " ^ strategy_id)
  in
  let cfg =
    { Codec.strategy_id; engine; layout_id; arith = `Spread; budget }
  in
  let diags_fp = String.concat "" (List.map Report.json_of_diag diags) in
  let keyer = Incr.Progdiff.Keyer.create () in
  let key = Codec.key ~keyer cfg ~name ~diags_fp prog in
  let path = snap_path st key in
  let shadowed = Codec.shadowed_key ~keyer prog in
  (* a live solver cannot come from a report: [`Solver] always solves *)
  let cached =
    match (want, shadowed) with
    | `Json, None -> read_verified st ~key ~path ~what:"snapshot"
    | _ -> None
  in
  match cached with
  | Some f ->
      hit st key;
      { sv_json = f.Codec.report; sv_result = None; sv_origin = `Hit }
  | None ->
      st.counters.Metrics.misses <- st.counters.Metrics.misses + 1;
      let r =
        { (Analysis.run ~layout ~budget ~engine ~strategy prog) with diags }
      in
      let json =
        Report.json_of_result ~timing:false ~solver_stats:false ~name r
      in
      (match shadowed with
      | Some k -> st.log ("snapshot refused: shadowed variable key " ^ k)
      | None when r.Analysis.degraded = [] ->
          let diag_errors =
            List.exists (fun d -> d.Diag.severity = Diag.Error_sev) diags
          in
          let bytes =
            Codec.encode { key; includes = []; diag_errors; report = json }
          in
          if put_file st ~key ~cfg:(Codec.config_digest cfg) ~dest:path bytes
          then
            st.counters.Metrics.snapshots_written <-
              st.counters.Metrics.snapshots_written + 1
      | None -> ());
      { sv_json = json; sv_result = Some r; sv_origin = `Cold }

(* ------------------------------------------------------------------ *)
(* Report records (direct mode)                                        *)
(* ------------------------------------------------------------------ *)

let put_record st ~key ~includes ~diag_errors report =
  ignore
    (put_file st ~key ~cfg:record_cfg ~dest:(record_path st key)
       (Codec.encode { key; includes; diag_errors; report }))

let find_record st ~key ~include_digest : (string * bool) option =
  match
    read_verified st ~key ~path:(record_path st key) ~what:"report record"
  with
  | None -> None
  | Some f ->
      let unchanged (rel, d) =
        match include_digest rel with
        | now -> now = d
        | exception Sys_error _ -> false
      in
      if List.for_all unchanged f.Codec.includes then begin
        hit st key;
        Some (f.Codec.report, f.Codec.diag_errors)
      end
      else None

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
