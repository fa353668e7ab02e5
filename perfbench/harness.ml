(* The closed loop: one client, the next operation starts when the previous
   one (and its output check) has finished. Only the operation itself is
   timed; its output check runs after the clock stops, untraced. *)

type runner = {
  op : int -> unit -> string option;
      (** [op i] runs operation [i] (timed) and returns its output check,
          which yields [Some reason] when the output is wrong; workloads
          define it as [fun i -> (work); fun () -> (check)] *)
  cycle : int;
      (** the operation schedule repeats every [cycle] operations; a timed
          phase always ends on a cycle boundary, so every run measures the
          same mix *)
  warm : int;  (** operations run as warm-up during set-up *)
  settle : bool;
      (** start each operation with a full major collection, timed as part
          of it: each operation then collects the previous one's garbage
          itself and starts from a settled heap, instead of paying for it
          at whichever point the GC happens to reach *)
  parallel : bool;
      (** operations run on several domains: their allocation is read from
          the GC statistics of all domains, brought up to date by a minor
          collection before and after each operation (untimed) *)
  close : unit -> unit;
}

let now = Unix.gettimeofday

(* ---- statistics ---------------------------------------------------------- *)

(* Linear interpolation between order statistics (the "inclusive" rule,
   as numpy's default). *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let h = q *. float_of_int (n - 1) in
    let lo = truncate h in
    let hi = min (n - 1) (lo + 1) in
    sorted.(lo) +. ((h -. float_of_int lo) *. (sorted.(hi) -. sorted.(lo)))

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  quantile a 0.5

(* ---- set-up -------------------------------------------------------------- *)

(* Set-up is input generation plus warm-up. It runs from a compacted heap
   three to five times — five when that takes under two seconds — and the
   last runner is kept; [setup_s] is the median time. *)
let setup make ~seed =
  let rec go k spent times kept =
    if k >= 5 || (k >= 3 && spent >= 2.) then (Option.get kept, median times)
    else begin
      Option.iter (fun r -> r.close ()) kept;
      Gc.compact ();
      let t0 = now () in
      let r = make ~seed in
      for i = 0 to r.warm - 1 do
        let (_ : unit -> string option) = r.op i in
        ()
      done;
      let t = now () -. t0 in
      go (k + 1) (spent +. t) (t :: times) (Some r)
    end
  in
  go 0 0. [] None

(* ---- timed phase ----------------------------------------------------------- *)

type phase = {
  lat : float array;  (** seconds per operation, in order *)
  alloc : float;  (** bytes allocated by operations *)
  attempted : int;
  failed : int;
  minor : int;
  major : int;
  promoted : float;  (** words *)
  top_heap_words : int;  (** at the end of the timed phase *)
}

(* Latencies go into a growable unboxed array, so recording them adds
   neither heap growth nor GC work proportional to the operation count. *)
type acc = {
  mutable lats : Float.Array.t;
  mutable bytes : float;
  mutable ops : int;
  mutable fails : int;
  mutable minors : int;
  mutable majors : int;
  mutable promoted_words : float;
}

let acc () =
  {
    lats = Float.Array.create 1024;
    bytes = 0.;
    ops = 0;
    fails = 0;
    minors = 0;
    majors = 0;
    promoted_words = 0.;
  }

let record a t =
  if a.ops = Float.Array.length a.lats then begin
    let bigger = Float.Array.create (2 * a.ops) in
    Float.Array.blit a.lats 0 bigger 0 a.ops;
    a.lats <- bigger
  end;
  Float.Array.set a.lats a.ops t;
  a.ops <- a.ops + 1

let phase a top =
  {
    lat = Array.init a.ops (Float.Array.get a.lats);
    alloc = a.bytes;
    attempted = a.ops;
    failed = a.fails;
    minor = a.minors;
    major = a.majors;
    promoted = a.promoted_words;
    top_heap_words = top;
  }

let max_reported_failures = 5

(* Bytes allocated so far: by this domain, exactly, or by all domains. *)
let allocated r =
  if not r.parallel then Gc.allocated_bytes ()
  else begin
    Gc.minor ();
    let s = Gc.quick_stat () in
    (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words)
    *. float_of_int (Sys.word_size / 8)
  end

(* The collection that settles the heap before an operation. Its time is
   the operation's; its collections are left out of the GC counts, which
   then describe what the operation itself triggered. *)
let settle a =
  let s0 = Gc.quick_stat () in
  Gc.full_major ();
  let s1 = Gc.quick_stat () in
  a.minors <- a.minors - (s1.Gc.minor_collections - s0.Gc.minor_collections);
  a.majors <- a.majors - (s1.Gc.major_collections - s0.Gc.major_collections);
  a.promoted_words <- a.promoted_words -. (s1.Gc.promoted_words -. s0.Gc.promoted_words)

(* Operations an untraced run completes at least, so that ten latency
   samples lie beyond its p90. *)
let min_ops = 100

(* Runs operations from index 0 for [seconds] and [min_ops] operations,
   then to the end of the current cycle. With [alternate], the run is split into six blocks of
   whole cycles that alternate between untraced and traced
   ([Spans.start]/[Spans.stop]), so both halves see the same heap history,
   and it lasts until at least one block is traced; the result is then
   (untraced, Some traced). *)
let run ?(alternate = false) r ~seconds =
  Gc.compact ();
  let plain = acc () and traced = acc () in
  let block = if alternate then seconds /. 6. else infinity in
  let cur = ref plain in
  let total_fails = ref 0 in
  let fail i why =
    incr total_fails;
    !cur.fails <- !cur.fails + 1;
    if !total_fails <= max_reported_failures then
      Printf.eprintf "perfbench: op %d failed: %s\n%!" i why
  in
  let gc0 = ref (Gc.quick_stat ()) in
  let close_block () =
    let s = Gc.quick_stat () in
    let a = !cur in
    a.minors <- a.minors + s.Gc.minor_collections - !gc0.Gc.minor_collections;
    a.majors <- a.majors + s.Gc.major_collections - !gc0.Gc.major_collections;
    a.promoted_words <- a.promoted_words +. s.Gc.promoted_words -. !gc0.Gc.promoted_words;
    gc0 := s
  in
  let start = now () in
  let block_start = ref start in
  let i = ref 0 in
  let more () =
    !i = 0
    || now () -. start < seconds
    || !i mod r.cycle <> 0
    || (if alternate then traced.ops = 0 else plain.ops < min_ops)
  in
  while more () do
    if !i mod r.cycle = 0 && now () -. !block_start >= block then begin
      close_block ();
      if !cur == plain then (cur := traced; Spans.start ())
      else (Spans.stop (); cur := plain);
      block_start := now ()
    end;
    let a = !cur in
    let a0 = allocated r in
    let t0 = now () in
    let check =
      match
        Spans.op !i (fun () ->
            if r.settle then Spans.span "gc.settle" (fun () -> settle a);
            r.op !i)
      with
      | c -> Ok c
      | exception e -> Error e
    in
    let t1 = now () in
    a.bytes <- a.bytes +. (allocated r -. a0);
    record a (t1 -. t0);
    Spans.attribute_op ();
    (match check with
    | Error e -> fail !i ("uncaught " ^ Printexc.to_string e)
    | Ok check -> (
        match Spans.quiet check with
        | None -> ()
        | Some why -> fail !i why
        | exception e -> fail !i ("check raised " ^ Printexc.to_string e)));
    incr i
  done;
  close_block ();
  Spans.stop ();
  let top = (Gc.quick_stat ()).Gc.top_heap_words in
  (phase plain top, if alternate then Some (phase traced top) else None)

(* A run's operations in about ten blocks of whole cycles, as (first,
   length). Figures taken per block and reduced to their median move with
   a burst of contention from outside the process in one block, not with
   it. *)
let blocks ~cycle p =
  let n = Array.length p.lat in
  let per = max cycle (n / 10 / cycle * cycle) in
  if n / per < 2 then [ (0, n) ] else List.init (n / per) (fun b -> (b * per, per))

(* Throughput over operation time: the median of the blocks' rates. *)
let ops_per_s ~cycle p =
  median
    (List.map
       (fun (lo, len) ->
         let t = ref 0. in
         for i = lo to lo + len - 1 do
           t := !t +. p.lat.(i)
         done;
         float_of_int len /. !t)
       (blocks ~cycle p))

(* Latency quantile [q]: the median of the blocks' quantiles. With
   [min_ops] operations or more, a tenth of them, at least ten, lie beyond
   the blocks' p90s. *)
let latency ~cycle p q =
  median
    (List.map
       (fun (lo, len) ->
         let a = Array.sub p.lat lo len in
         Array.sort compare a;
         quantile a q)
       (blocks ~cycle p))

(* ---- output ---------------------------------------------------------------- *)

type metric = { key : string; value : float; unit_ : string }

let m key unit_ value = { key; value; unit_ }

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun x -> Printf.printf "  %-28s %14.6g %s\n" x.key x.value x.unit_)
    metrics;
  let body =
    String.concat ","
      (List.map
         (fun x ->
           Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}"
             (Obs.Event.json_string x.key)
             (json_number x.value)
             (Obs.Event.json_string x.unit_))
         metrics)
  in
  Printf.printf
    "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    correct attempted failed body
