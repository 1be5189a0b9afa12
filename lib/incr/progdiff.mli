(** Program diffing for incremental re-analysis.

    Two compiles of (nearly) the same source produce structurally equal
    but physically distinct programs: every {!Cfront.Cvar.t} gets a
    fresh [vid] and every statement a per-compile id. To hand the solver
    a small statement delta instead of a new program, each normalized
    statement is keyed by a canonical rendering of its lowered form plus
    its enclosing function — independent of variable identity, statement
    ids, and source locations — and the two versions are diffed as
    multisets of keys.

    [align] additionally rebuilds the edited program over the base
    program's variables: statements present in both versions reuse the
    base statement value verbatim (ids, and hence the solver's cursors
    and subscriptions, stay valid), and unmatched statements have their
    variables remapped to the base variable with the same key where one
    exists. Solving the aligned program from scratch is therefore
    directly comparable — cell by cell — with warm-starting the base
    solver, which is the incremental engine's differential oracle.

    Matching runs in two passes: exact keys first, then the leftovers
    re-matched with the [is_source_deref] flag ignored. The flag feeds
    only deref diagnostics — never a derived constraint — so a mutation
    that merely flips it is {e equivalent after alignment}: the base
    statement is kept (with the edited flag), the diff stays empty, and
    the incremental engine skips retraction entirely for such edits.

    Call statements embed their callee's interface fingerprint in the
    key (indirect calls a fingerprint of {e all} defined interfaces), so
    a signature change or a function gaining/losing a body invalidates
    exactly the calls whose parameter/return bindings it alters.

    Approximation: two distinct variables with the same name, kind,
    scope and type (shadowed block locals) share one key and are
    conflated by the remapping. Four corpus programs produce such a
    pair: [bc], [less], [gzip] and [tbl]. The report store refuses
    their snapshots ([Store.Codec.shadowed_key]), and [align] conflates
    the two variables of the pair. Heap objects are keyed by their program-wide allocation
    ordinal (never by source coordinates, so line shifts are invisible);
    an edit that inserts or removes an allocation site shifts the
    ordinals after it, and those heap objects diff as removed +
    re-added. *)

open Cfront
open Norm

val var_key : Cvar.t -> string
(** Identity-free key: name, kind (with enclosing scope), and declared
    type. A type change makes a different key — the variable is treated
    as removed and re-added. *)

val interface_key : Nast.func -> string
(** Identity-free fingerprint of a function's calling interface: its
    name plus the {!var_key}s of parameters, return slot, and vararg
    sink. Embedded in call-statement keys. *)

val stmt_key : iface:(string -> string) -> scope:string -> Nast.stmt -> string
(** Canonical key of a statement inside [scope] (a function name, or
    ["<init>"] for global initializers). [iface] renders a called
    function's interface fingerprint (["*"] queries the fingerprint of
    all defined functions, used for indirect calls). *)

val iface_of_program : Nast.program -> string -> string
(** The interface-fingerprint oracle of a program, for {!stmt_key}. *)

(** Per-call key renderer. A keyer renders each variable's {!var_key}
    once (memoized by [vid]) and gives exactly the bytes of the
    one-shot functions above. A [Cvar.t] is immutable and only built by
    [Cvar.fresh], so a [vid] stands for one value for the life of the
    process and the memo can never go stale; it is still meant to live
    for one call (one alignment, one store key) and be
    dropped with the programs it keyed. *)
module Keyer : sig
  type t

  val create : ?size:int -> unit -> t
  (** [size]: the number of variables expected, so the memo never
      grows. *)

  val var : t -> Cvar.t -> string
  (** {!var_key}, memoized. *)

  val interface : t -> Nast.func -> string
  (** {!interface_key}. *)

  val iface_of_program : t -> Nast.program -> string -> string
  (** {!iface_of_program}. *)

  val stmt : t -> iface:(string -> string) -> scope:string -> Nast.stmt -> string
  (** {!stmt_key}. *)
end

type t = {
  added : Nast.stmt list;
      (** statements of the aligned program with no base counterpart, in
          program order, with fresh ids past the base program's maximum *)
  removed : Nast.stmt list;
      (** base statements absent from the edited version, in base
          program order *)
  added_vars : Cvar.t list;  (** edited variables with no base-key match *)
  removed_vars : Cvar.t list;  (** base variables keyed out of existence *)
}

type index
(** The alignment side of one program version: every statement's kind
    key, bucketed by (scope, key) in program order, and every variable's
    key with the key → variable map that remapping uses.

    Contract: [index p] renders the keys of [p] from scratch; the index
    {!align} returns for the program it builds holds exactly what
    [index] would build from that program (same buckets in the same
    order, same variable map, same largest statement id), from keys it
    rendered for the edited version, so an edit session keys each
    version once. An alignment leaves the index it reads as it found
    it: aligning twice from one index gives the same result twice. A
    cache of indexes is keyed by the program value itself (physical
    identity), as {!Engine.reanalyze} does. *)

val index : Nast.program -> index
(** Key [p] from scratch. *)

val program : index -> Nast.program
(** The program an index describes. *)

val align : base:index -> Nast.program -> index * t
(** [align ~base edited] is the edited program rebuilt over [base]'s
    variables and statement values (returned as the new index's
    {!program}), plus the delta between the two. *)
