(** Deterministic fault injection inside workers.

    The supervisor's recovery paths — reaping a dead worker, killing a
    hung one, retrying, quarantining — are tested by {e asking} a worker
    to misbehave on an exact (job, attempt) pair, rather than hoping a
    real crash shows up. A plan is parsed from the [STRUCTCAST_FAULTS]
    environment variable and/or a CLI flag; syntax:

    {v kind@job_id[#attempt][,kind@job_id[#attempt]…] v}

    e.g. ["crash@job2#1,hang@job5"]. Without [#attempt] the fault fires
    on every attempt. Kinds:

    - [crash] — the worker kills itself with SIGABRT (simulated
      segfault/OOM-kill: the supervisor sees a signal death);
    - [exit] — the worker exits with an unexpected code;
    - [hang] — the worker sleeps past any job timeout (it exits on its
      own only when orphaned, so killed supervisors leak no processes);
    - [raise] — an exception is raised inside the job (contained by the
      worker itself, reported as a clean failure);
    - [allocbomb] — a bounded allocation burst followed by
      [Out_of_memory] (contained by the worker like [raise]);
    - [burst] — the job sleeps 200 ms before running, occupying its
      worker slot so a burst of arrivals queues up behind it (the
      overload tests' traffic generator);
    - [slowread] — the worker dribbles its response line back to the
      supervisor in small chunks with pauses between them (a slow
      reader on the response pipe; exercises partial-line buffering);
    - [allochold] — the worker allocates ~48 MB, holds it live, and
      hangs (the RSS watchdog's target; exits on its own only when
      orphaned, like [hang]). *)

type kind =
  | Crash
  | Exit
  | Hang
  | Raise
  | Alloc_bomb
  | Burst
  | Slow_read
  | Alloc_hold

type trigger = { kind : kind; job_id : string; attempt : int option }

type plan = trigger list

val none : plan

val parse : string -> (plan, string) result
(** Parse the comma-separated syntax above; [""] is the empty plan. *)

val of_env : unit -> plan
(** Plan from [STRUCTCAST_FAULTS]; malformed values raise [Failure]. *)

val merge : plan -> plan -> plan

val find : plan -> job_id:string -> attempt:int -> kind option
(** First trigger matching this job and attempt, if any. *)

val inject : kind -> unit
(** Perform the fault. [Crash], [Exit], [Hang], and [Alloc_hold] do not
    return; [Raise] and [Alloc_bomb] raise; [Burst] sleeps then returns;
    [Slow_read] returns immediately (it acts at response-write time). *)

val kind_to_string : kind -> string

val to_string : plan -> string
(** Round-trips through {!parse}. *)

(** {1 Store-I/O faults}

    A second plan family for the report store ({!Store}): each
    trigger names a fault kind and the 1-based {e write ordinal} it
    fires on, counted across every physical write the store performs
    (snapshot temp files, index appends, compaction). Parsed from
    [STRUCTCAST_STORE_FAULTS] and/or a CLI flag; syntax:

    {v kind@N[,kind@N…] v}

    e.g. ["shortwrite@2,enospc@5"]. Kinds: [shortwrite] (torn payload,
    operation completes), [bitflip] (one bit corrupted mid-payload),
    [enospc] (the write fails before any byte lands), [crash] (die
    between fsync and rename: the temp file is durable, the snapshot
    never becomes visible). *)

type store_trigger = { skind : Store.fault; op : int }

type store_plan = store_trigger list

val store_parse : string -> (store_plan, string) result
(** Parse the syntax above; [""] is the empty plan. *)

val store_of_env : unit -> store_plan
(** Plan from [STRUCTCAST_STORE_FAULTS]; malformed values raise
    [Failure]. *)

val store_hook : store_plan -> int -> Store.fault option
(** The injection hook {!Store.open_store} accepts: ordinal → fault. *)

val store_kind_to_string : Store.fault -> string

val store_to_string : store_plan -> string
(** Round-trips through {!store_parse}. *)
