(** Request inputs: corpus program or C file, with recorded includes. *)

type t = {
  spec : string;
  name : string;
  text : string;
  mutable resolved : (string * string option) list;
}

let read_file path = In_channel.with_open_bin path In_channel.input_all

let load spec : t =
  let name, text =
    match Suite.find spec with
    | Some p -> (p.Suite.name, p.Suite.source)
    | None ->
        if Sys.file_exists spec then (Filename.basename spec, read_file spec)
        else
          failwith
            (Printf.sprintf
               "%s: not a file and not a corpus program (try 'structcast \
                corpus')"
               spec)
  in
  { spec; name; text; resolved = [] }

let read_include t rel =
  let candidate = Filename.concat (Filename.dirname t.spec) rel in
  if Sys.file_exists candidate then Some (read_file candidate) else None

let digest = Option.map (fun text -> Digest.to_hex (Digest.string text))
let include_digest t rel = digest (read_include t rel)

let resolve t rel =
  let text = read_include t rel in
  if not (List.mem_assoc rel t.resolved) then
    t.resolved <- (rel, digest text) :: t.resolved;
  text

let includes t = List.rev t.resolved
