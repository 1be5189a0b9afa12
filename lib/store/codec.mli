(** Store file codec: the store key and the one report-file format.

    Every store file — the program-key file [snaps/<key>.snap] and the
    source-key report record [records/<key>.rec] — is a
    {!report_file}: the key it was written under, the [#include]s its
    source resolved (records only; a program-key file lists none), the
    front-end error bit, and the stats-free report JSON of a clean run.
    The analysis is one whole-program fixpoint per (program,
    configuration), and the stats-free report is a pure function of
    both, so the report is all a store needs to keep.

    {b Integrity.} The last line of a file is an MD5 checksum of
    everything before it; {!decode} verifies it and the format version
    before trusting a single field, so a truncated, bit-flipped, or
    adversarial file — or one an older binary wrote in another format —
    yields [Error], never a wrong answer. *)

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
(** Everything besides the program that shapes the report. The engine
    is part of the identity, so a store filled by one engine never
    answers another. *)

val config_line : config -> string
(** Canonical one-line rendering of a configuration. *)

val config_digest : config -> string
(** Digest of {!config_line} alone: the configuration column of a
    program-key file's [index.log] line. *)

(** [?keyer] below: pass one {!Incr.Progdiff.Keyer.t} to every call
    about the same request so each variable is rendered once; the bytes
    are those of a fresh keyer. *)

val stmt_keys : ?keyer:Incr.Progdiff.Keyer.t -> Nast.program -> string list
(** The program's statements as {!Incr.Progdiff.stmt_key} strings, in
    program order (initializers first, then each function in order). *)

val key :
  ?keyer:Incr.Progdiff.Keyer.t ->
  config ->
  name:string ->
  diags_fp:string ->
  Nast.program ->
  string
(** The store key: digest of the configuration, the report name, the
    front-end diagnostics rendering, and the {e sorted} variable and
    statement key multisets. Two requests share a key exactly when a
    stored report for one is byte-correct for the other ([diags_fp]
    folds the diagnostics in because the report embeds them — the same
    normalized program reached with different warnings must not
    collide), unless {!shadowed_key} finds two variables under one
    variable key. *)

val shadowed_key : keyer:Incr.Progdiff.Keyer.t -> Nast.program -> string option
(** [Some k] when two of the program's variables share the variable key
    [k] — a shadowed local with its outer namesake's name and type.
    Programs that differ only in which of the two a statement names
    then share one {!key} but not one report, so the store must neither
    answer nor file such a program under its key. *)

val record_key : config -> name:string -> source:string -> string
(** The record key: digest of the report-file version line,
    {!config_line}, the report name and the MD5 of the raw source bytes
    — everything a request has before its frontend runs. *)

type report_file = {
  key : string;  (** the key the file is stored under *)
  includes : (string * string option) list;
      (** each [#include] the preprocessor resolved, as its path and the
          MD5 of its text, [None] when it was absent *)
  diag_errors : bool;  (** the front end reported an error *)
  report : string;  (** the stats-free report JSON, byte-exact *)
}

val encode : report_file -> string
(** Deterministic bytes under the [sum <md5>] trailer. *)

val decode : string -> (report_file, string) result
(** Verify checksum and version, then parse. Pure. *)
