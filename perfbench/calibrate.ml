(* Host calibration: the measured speedup of two domains over one on a
   fixed integer kernel and on an allocating kernel. [batch-refine] is read
   against these, not against the processor count: on a host whose two
   processors are shared or throttled, two domains give less than 2×, and
   allocation-heavy domains can run slower together than alone, because
   every minor collection stops both. *)

let int_unit () =
  let acc = ref 0 in
  for i = 1 to 40_000_000 do
    acc := (!acc * 1103515245) + i land 0xffff
  done;
  Sys.opaque_identity !acc |> ignore

let alloc_unit () =
  for _ = 1 to 3_000 do
    Sys.opaque_identity (List.init 1_000 (fun i -> (i, i))) |> ignore
  done

let time f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

(* Two units on one domain, over two units on two domains: the median of
   three trials, after a first one that is dropped (a process's first
   two-domain trial reads low). Run at start-up, on a fresh heap, so the
   figure describes the host rather than the workload's heap. *)
let speedup unit_ =
  let trial () =
    let seq = time (fun () -> unit_ (); unit_ ()) in
    let par =
      time (fun () ->
          let d = Domain.spawn unit_ in
          unit_ ();
          Domain.join d)
    in
    seq /. par
  in
  ignore (trial ());
  Harness.median (List.init 3 (fun _ -> trial ()))

let run () = (speedup int_unit, speedup alloc_unit)
