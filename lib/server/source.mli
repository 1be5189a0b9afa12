(** Request inputs, shared by the CLI and the worker: a corpus program
    name or a path to a C file, whose [#include "x.h"] lines resolve
    relative to the file's directory. The loader remembers every
    include the preprocessor asks for, so a stored answer can list
    what it was computed from. *)

type t = private {
  spec : string;  (** as given: a corpus name or a file path *)
  name : string;  (** report name: the corpus name or the file's basename *)
  text : string;  (** the raw source bytes *)
  mutable resolved : (string * string option) list;
      (** includes asked for so far, newest first *)
}

val load : string -> t
(** @raise Failure when [spec] is neither a file nor a corpus program. *)

val resolve : t -> string -> string option
(** The preprocessor's [#include] resolver: the current text of the
    file, [None] when it is absent. Records each answer's digest. *)

val include_digest : t -> string -> string option
(** MD5 hex of an included file's current text, [None] when it is
    absent — what {!includes} would record for it now. *)

val includes : t -> (string * string option) list
(** Each include {!resolve} answered, first request first, as (path,
    MD5 hex of the text it returned, or [None] when absent). *)
