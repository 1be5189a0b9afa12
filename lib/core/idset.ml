(** Compact sets of interned cell ids: the points-to set representation
    behind {!Graph}.

    Two parallel dynamic arrays back each set: [srt] keeps the member ids
    sorted (O(log n) membership, O(n) insertion by blit — points-to sets
    are small and cache-friendly), and [ord] keeps them in insertion
    order. Because a set only ever grows, the insertion-order array is an
    append-only log: a suffix [ord[k ..]] is exactly "the facts added
    since cursor [k]", which is what the delta-propagation solver consumes
    ({!iter_from}, {!get_ord}). *)

type t = {
  mutable srt : int array;  (** sorted member ids, first [len] entries *)
  mutable ord : int array;  (** same ids in insertion order *)
  mutable len : int;
}

let create ?(cap = 4) () =
  let cap = max cap 1 in
  { srt = Array.make cap (-1); ord = Array.make cap (-1); len = 0 }

let cardinal s = s.len

let is_empty s = s.len = 0

(* Index of the first sorted entry >= x (= s.len when none). *)
let lower_bound s x =
  let lo = ref 0 and hi = ref s.len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if s.srt.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

let mem s x =
  let i = lower_bound s x in
  i < s.len && s.srt.(i) = x

let grow s =
  if s.len = Array.length s.srt then begin
    let cap = 2 * Array.length s.srt in
    let srt = Array.make cap (-1) and ord = Array.make cap (-1) in
    Array.blit s.srt 0 srt 0 s.len;
    Array.blit s.ord 0 ord 0 s.len;
    s.srt <- srt;
    s.ord <- ord
  end

(** Add [x]; [true] iff it was not already a member. *)
let add s x =
  let i = lower_bound s x in
  if i < s.len && s.srt.(i) = x then false
  else begin
    grow s;
    Array.blit s.srt i s.srt (i + 1) (s.len - i);
    s.srt.(i) <- x;
    s.ord.(s.len) <- x;
    s.len <- s.len + 1;
    true
  end

(** The [i]-th member in insertion order. Stable under later additions,
    so an integer cursor into a set never invalidates. *)
let get_ord s i = s.ord.(i)

(** Iterate members in insertion order. *)
let iter f s =
  for i = 0 to s.len - 1 do
    f s.ord.(i)
  done

(** Iterate the members added at or after cursor [k] (insertion order).
    Additions made by [f] itself are *not* visited — the caller re-reads
    [cardinal] to pick up the new tail. *)
let iter_from k f s =
  let stop = s.len in
  for i = k to stop - 1 do
    f s.ord.(i)
  done

let fold f s init =
  let acc = ref init in
  for i = 0 to s.len - 1 do
    acc := f s.ord.(i) !acc
  done;
  !acc

(** [union_into dst src] adds every member of [src] missing from [dst]
    with one merge pass over the two sorted arrays — a single rebuild
    instead of a per-element O(n) insertion blit. The new members are
    appended to [dst]'s insertion-order log in [src]'s insertion order,
    after the existing entries, so cursors into [dst]'s log stay valid
    (the old prefix is untouched). Returns the number of members added. *)
let union_into dst src =
  if dst == src || src.len = 0 then 0
  else begin
    (* collect src's members missing from dst, in src insertion order
       (membership tested against dst's pre-merge sorted array) *)
    let fresh = Array.make src.len 0 in
    let nf = ref 0 in
    for i = 0 to src.len - 1 do
      let x = src.ord.(i) in
      if not (mem dst x) then begin
        fresh.(!nf) <- x;
        incr nf
      end
    done;
    let n = !nf in
    if n = 0 then 0
    else begin
      let len = dst.len + n in
      let fits = len <= Array.length dst.srt in
      let srt = if fits then dst.srt else Array.make len (-1) in
      (* merge the two sorted runs from the top down, skipping src's
         members dst already holds; writing at [k >= i] never clobbers
         an unread dst entry, so the merge may run in place, and once
         src is spent dst's remaining prefix [0 .. i] is where it
         belongs *)
      let i = ref (dst.len - 1) and j = ref (src.len - 1) in
      let k = ref (len - 1) in
      while !j >= 0 do
        let y = src.srt.(!j) in
        if !i >= 0 && dst.srt.(!i) > y then begin
          srt.(!k) <- dst.srt.(!i);
          decr i;
          decr k
        end
        else begin
          if !i < 0 || dst.srt.(!i) <> y then begin
            srt.(!k) <- y;
            decr k
          end;
          decr j
        end
      done;
      if not fits then begin
        Array.blit dst.srt 0 srt 0 (!i + 1);
        let ord = Array.make len (-1) in
        Array.blit dst.ord 0 ord 0 dst.len;
        dst.srt <- srt;
        dst.ord <- ord
      end;
      Array.blit fresh 0 dst.ord dst.len n;
      dst.len <- len;
      n
    end
  end

(** Members in ascending id order. *)
let elements s = Array.to_list (Array.sub s.srt 0 s.len)

let copy s =
  { srt = Array.copy s.srt; ord = Array.copy s.ord; len = s.len }
