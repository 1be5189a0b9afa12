(** Clocks. [now] is wall-clock time; [cpu] is process CPU time.

    The two must not be conflated: time budgets ([Budget.elapsed]) are
    wall-clock deadlines, and CPU time stops while the process waits. *)

(* Monotonized: gettimeofday can step backwards under NTP adjustment,
   which would make [Budget.elapsed] negative mid-run. *)
let last_wall = ref neg_infinity

let monotonize (t : float) : float =
  if t > !last_wall then last_wall := t;
  !last_wall

let now () : float = monotonize (Unix.gettimeofday ())

(** CPU time in seconds (user time of this process) — matches the
    paper's "CPU times" measurement; unaffected by sleeps. *)
let cpu () : float = Sys.time ()
