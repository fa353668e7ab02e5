(* Layer spans for the traced run.

   The benchmark wraps every call it makes into a program layer in
   [span "<layer>" f], and every operation in [op i f]. With tracing off
   both are a flag test and a call. With tracing on, the spans go through
   the program's own observability layer (Obs) into an in-memory sink,
   together with the spans the program already emits (engine.*, ocl.check,
   weave, pipeline.*, ...). Each operation is an Obs request, so its id is
   stamped on all of its events.

   After the clock stops, [attribute_op] rebuilds the operation's span tree
   with [Obs.Trace.spans] and folds it into the per-layer totals below; for
   the first [keep_ops] operations it also keeps the spans as records that
   [write] dumps as JSON lines when the run ends. *)

let on = ref false

let span name f = if !on then Obs.span ~cat:"bench" name f else f ()

let op i f =
  if !on then Obs.with_request ~id:(i + 1) (fun () -> Obs.span ~cat:"bench" "op" f)
  else f ()

(* Work the workload counts itself (bytes imported, interpreter events,
   batch items, ...). Recorded in traced runs only, output checks
   included. *)
let recording = ref false
let counters : (string, float) Hashtbl.t = Hashtbl.create 16

let count name v =
  if !recording then
    Hashtbl.replace counters name
      (v +. Option.value ~default:0. (Hashtbl.find_opt counters name))

let counter name = Option.value ~default:0. (Hashtbl.find_opt counters name)

(* The current operation's events, newest first. *)
let events : Obs.Event.t list ref = ref []

(* ---- attribution ------------------------------------------------------- *)

(* Bench spans whose calls contain several program layers: inside them the
   program's own spans name the layer. Elsewhere a program span belongs to
   the bench span around it (e.g. the weave inside [weaver.initial]). *)
let composite = [ "core.refine"; "core.build"; "par.refine_all" ]

let program_layer = function
  | "pipeline.refine" -> Some "core.refine"
  | "engine.pre" -> Some "transform.pre"
  | "engine.rewrite" -> Some "transform.rewrite"
  | "engine.post" -> Some "transform.post"
  | "engine.diff" -> Some "mof.diff"
  | "engine.wf" -> Some "mof.wf"
  | "ocl.check" -> Some "ocl.check"
  | "pipeline.codegen" -> Some "code.generate"
  | "pipeline.aspects" -> Some "aspects.generate"
  | "weave" -> Some "weaver.weave"
  | _ -> None

(* Per layer: inclusive time of its topmost spans, their allocation and
   count; self time (duration minus the children's); and inclusive time by
   raw span name. All in ns / bytes, summed over traced operations. *)
type totals = {
  incl : (string, float) Hashtbl.t;
  alloc : (string, float) Hashtbl.t;
  spans : (string, float) Hashtbl.t;
  self : (string, float) Hashtbl.t;
  by_name : (string, float) Hashtbl.t;
  mutable ops : int;
  mutable op_ns : float;
}

let totals =
  {
    incl = Hashtbl.create 32;
    alloc = Hashtbl.create 32;
    spans = Hashtbl.create 32;
    self = Hashtbl.create 32;
    by_name = Hashtbl.create 32;
    ops = 0;
    op_ns = 0.;
  }

let add tbl k v =
  Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))

let get tbl k = Option.value ~default:0. (Hashtbl.find_opt tbl k)

let rec attribute ~parent_layer ~ctx (n : Obs.Trace.span) =
  let name = n.Obs.Trace.sp_name in
  let layer, ctx =
    if n.Obs.Trace.sp_cat = "bench" then (name, name)
    else
      match program_layer name with
      | Some l when List.mem ctx composite -> (l, ctx)
      | _ -> (parent_layer, ctx)
  in
  let dur = Int64.to_float n.Obs.Trace.sp_wall_ns in
  if layer <> parent_layer then begin
    add totals.incl layer dur;
    add totals.alloc layer n.Obs.Trace.sp_alloc;
    add totals.spans layer 1.
  end;
  add totals.by_name name dur;
  let children = n.Obs.Trace.sp_children in
  let covered =
    List.fold_left (fun s (c : Obs.Trace.span) -> s +. Int64.to_float c.Obs.Trace.sp_wall_ns) 0. children
  in
  add totals.self layer (Float.max 0. (dur -. covered));
  List.iter (attribute ~parent_layer:layer ~ctx) children

(* The events another domain recorded on behalf of the current operation
   (a [Par.Batch] item): attributed as part of [par.refine_all]; returns
   the item's busy time, the summed duration of its top-level spans. *)
let attribute_item item_events =
  List.fold_left
    (fun busy root ->
      attribute ~parent_layer:"par.item" ~ctx:"par.refine_all" root;
      busy +. Int64.to_float root.Obs.Trace.sp_wall_ns)
    0. (Obs.Trace.spans item_events)

(* ---- recorded spans and their dump -------------------------------------- *)

let keep_ops = 200
let kept : Buffer.t = Buffer.create 4096
let next_id = ref 0

(* One record per span, in start order. A span forest lists its spans in
   the order they began, which is the order of the begin events, so the
   two are zipped for the start times. *)
let dump roots begins =
  let begins = ref begins in
  let rec go ~parent (n : Obs.Trace.span) =
    let t0 =
      match !begins with
      | (b : Obs.Event.t) :: rest ->
          begins := rest;
          b.Obs.Event.ts_ns
      | [] -> 0L
    in
    incr next_id;
    let id = !next_id in
    Buffer.add_string kept
      (Printf.sprintf
         "{\"op\":%d,\"id\":%d,\"parent\":%d,\"name\":%s,\"cat\":%s,\"start_ns\":%Ld,\"end_ns\":%Ld,\"alloc_bytes\":%.0f}\n"
         n.Obs.Trace.sp_req id parent
         (Obs.Event.json_string n.Obs.Trace.sp_name)
         (Obs.Event.json_string n.Obs.Trace.sp_cat)
         t0 (Int64.add t0 n.Obs.Trace.sp_wall_ns) n.Obs.Trace.sp_alloc);
    List.iter (go ~parent:id) n.Obs.Trace.sp_children
  in
  List.iter (go ~parent:0) roots

(* Folds the operation just finished into the totals; a no-op untraced. *)
let attribute_op () =
  if !events <> [] then begin
    let evs = List.rev !events in
    events := [];
    let roots = Obs.Trace.spans evs in
    List.iter
      (fun (n : Obs.Trace.span) ->
        if n.Obs.Trace.sp_cat = "bench" && n.Obs.Trace.sp_name = "op" then begin
          totals.ops <- totals.ops + 1;
          totals.op_ns <- totals.op_ns +. Int64.to_float n.Obs.Trace.sp_wall_ns;
          attribute ~parent_layer:"" ~ctx:"" n
        end)
      roots;
    if totals.ops <= keep_ops then
      dump roots
        (List.filter (fun (e : Obs.Event.t) -> e.Obs.Event.kind = Obs.Event.Span_begin) evs)
  end

(* Tracing on: the bench spans and the program's spans go to the memory
   sink, and Obs metrics are recorded, so [Obs.Metric.rows ()] holds the
   counters of the traced operations only. *)
let sink = Obs.Sink.Emit (fun e -> events := e :: !events)

let start () =
  Obs.set_sink sink;
  Obs.Metric.enable ();
  on := true;
  recording := true

let stop () =
  on := false;
  recording := false;
  Obs.Metric.disable ();
  Obs.set_sink Obs.Sink.Null

(* Runs [f] with tracing and metrics suspended — for output checks, which
   are not part of any operation. *)
let quiet f =
  if not !on then f ()
  else begin
    on := false;
    Obs.Metric.disable ();
    Fun.protect
      ~finally:(fun () ->
        on := true;
        Obs.Metric.enable ())
      (fun () -> Obs.with_sink Obs.Sink.Null f)
  end

let metric name =
  List.fold_left
    (fun acc (r : Obs.Metric.row) ->
      if r.Obs.Metric.metric = name then acc +. r.Obs.Metric.value else acc)
    0. (Obs.Metric.rows ())

let write path =
  let dir = Filename.dirname path in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let oc = open_out_bin path in
  Buffer.output_buffer oc kept;
  close_out oc
