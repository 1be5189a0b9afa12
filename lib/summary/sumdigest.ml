(** Summary keys; see the interface for the recursion. *)

open Norm

module K = Incr.Progdiff.Keyer

let body_digest ?(keyer = K.create ()) ~(iface : string -> string)
    (f : Nast.func) : string =
  let b = Buffer.create 1024 in
  Buffer.add_string b (K.interface keyer f);
  Buffer.add_char b '\n';
  List.iter
    (fun s ->
      Buffer.add_string b (K.stmt keyer ~iface ~scope:f.Nast.fname s);
      Buffer.add_char b '\n')
    f.Nast.fstmts;
  Digest.to_hex (Digest.string (Buffer.contents b))

type keys = (string, string) Hashtbl.t

let keys ?(keyer = K.create ()) ~(config_line : string) (prog : Nast.program)
    (cg : Callgraph.t) : keys =
  let iface = K.iface_of_program keyer prog in
  let scc_key : (int, string) Hashtbl.t = Hashtbl.create 32 in
  let by_fn : keys = Hashtbl.create 32 in
  (* bottom-up order: every callee SCC's key exists when needed *)
  List.iteri
    (fun si members ->
      let bodies =
        List.sort compare
          (List.map (fun f -> body_digest ~keyer ~iface f) members)
      in
      let callee_keys =
        List.sort compare
          (List.map
             (fun sj -> Hashtbl.find scc_key sj)
             (Callgraph.callee_sccs cg si))
      in
      let k =
        Digest.to_hex
          (Digest.string
             (String.concat "\n"
                ((config_line :: bodies) @ ("--" :: callee_keys))))
      in
      Hashtbl.replace scc_key si k;
      (* members share the SCC key but carry distinct records: the
         cache key is the SCC key refined by the function name *)
      List.iter
        (fun (f : Nast.func) ->
          Hashtbl.replace by_fn f.Nast.fname
            (Digest.to_hex (Digest.string (k ^ "\n" ^ f.Nast.fname))))
        members)
    (Callgraph.sccs_bottom_up cg);
  by_fn

let key_of (t : keys) (name : string) : string option =
  Hashtbl.find_opt t name
