(** Identity-free summary keys, composed over the SCC-DAG.

    A function's summary records constraints derived from its SCC's
    downward closure alone, so the key must change exactly when that
    closure (or the analysis configuration) changes:

    [key(SCC) = digest(config ++ sorted member body digests
                       ++ sorted external callee SCC keys)]

    The recursion bottoms out at leaf SCCs; editing one body changes
    its own key and — through the callee-key operand — the key of every
    transitive caller, and nothing else. Body digests build on
    {!Incr.Progdiff}'s statement and interface keys, which never
    mention statement ids, variable ids, or source locations, so
    recompiling unchanged source reproduces the keys byte-for-byte
    (the {!Norm.Tempnames} canonicalization keeps lowering temporaries
    stable under edits elsewhere in the function). *)

open Norm

val body_digest :
  ?keyer:Incr.Progdiff.Keyer.t -> iface:(string -> string) -> Nast.func -> string
(** Digest of one function's interface key plus its statement keys in
    body order ([iface] from {!Incr.Progdiff.iface_of_program}). Pass
    one [keyer] to every digest of a program so each variable is
    rendered once; the bytes are those of a fresh keyer. *)

type keys

val keys :
  ?keyer:Incr.Progdiff.Keyer.t ->
  config_line:string ->
  Nast.program ->
  Callgraph.t ->
  keys
(** Compute every SCC's key bottom-up. [config_line] must pin strategy,
    engine, layout, arithmetic mode, and budget — anything that changes
    what a summary records. *)

val key_of : keys -> string -> string option
(** The summary key of the named function: its SCC's key refined by the
    function name (SCC members share a closure but carry distinct
    records); [None] for functions not defined in the program. *)
