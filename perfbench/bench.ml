(* The benchmark's entry point: one workload, one seed, one closed-loop run.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]

   With --trace 0 it prints the end-to-end metrics, measured with tracing
   off. With --trace 1 it alternates untraced and traced blocks of
   operations and prints the per-layer metrics. The last line
   of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}. *)

let workloads =
  [
    ("pim-build", Pim_build.setup);
    ("woven-run", Woven_run.setup);
    ("edit-session", Edit_session.setup);
    ("batch-refine", Batch_refine.setup);
  ]

let mb bytes = bytes /. 1e6

let end_to_end ~cycle ~setup_s (p : Harness.phase) =
  Printf.printf "  latency samples %d in %d blocks\n" (Array.length p.Harness.lat)
    (List.length (Harness.blocks ~cycle p));
  let ms q = 1000. *. Harness.latency ~cycle p q in
  Harness.
    [
      m "ops_per_s" "1/s" (ops_per_s ~cycle p);
      m "op_p50_ms" "ms" (ms 0.5);
      m "op_p90_ms" "ms" (ms 0.9);
      m "alloc_mb_per_op" "MB" (mb p.alloc /. float_of_int p.attempted);
      m "peak_heap_mb" "MB" (mb (float_of_int (p.top_heap_words * (Sys.word_size / 8))));
      m "setup_s" "s" setup_s;
    ]

let per_layer ~cycle ~(base : Harness.phase) ~(traced : Harness.phase) =
  let traced_ops_per_s = Harness.ops_per_s ~cycle traced in
  let open Spans in
  let n = float_of_int (max 1 totals.ops) in
  let ms layer = get totals.incl layer /. 1e6 /. n in
  let alloc layer = mb (get totals.alloc layer) /. n in
  let per_op v = v /. n in
  let ratio a b = if b > 0. then a /. b else 0. in
  let gc v = v /. float_of_int base.Harness.attempted in
  Harness.
    [
      m "xmi.import_ms" "ms" (ms "xmi.import");
      m "xmi.import_alloc_mb" "MB" (alloc "xmi.import");
      m "xmi.import_mb_per_s" "MB/s"
        (ratio (mb (counter "xmi.import_bytes")) (get totals.incl "xmi.import" /. 1e9));
      m "xmi.export_ms" "ms" (ms "xmi.export");
      m "transform.pre_ms" "ms" (ms "transform.pre");
      m "transform.rewrite_ms" "ms" (ms "transform.rewrite");
      m "transform.rewrite_alloc_mb" "MB" (alloc "transform.rewrite");
      m "transform.post_ms" "ms" (ms "transform.post");
      m "mof.diff_ms" "ms" (ms "mof.diff");
      m "mof.wf_ms" "ms" (ms "mof.wf");
      m "mof.edit_ms" "ms" (ms "mof.edit");
      m "ocl.check_ms" "ms" (ms "ocl.check");
      m "ocl.checks" "count" (per_op (get totals.spans "ocl.check"));
      m "ocl.parse_hit_ratio" "ratio"
        (ratio (metric "ocl.parse.hit") (metric "ocl.parse.hit" +. metric "ocl.parse.miss"));
      m "ocl.extent_hit_ratio" "ratio"
        (ratio (metric "ocl.extent.hit") (metric "ocl.extent.hit" +. metric "ocl.extent.miss"));
      m "core.create_ms" "ms" (ms "core.create");
      m "core.refine_self_ms" "ms"
        ((get totals.incl "core.refine" -. get totals.by_name "engine.apply") /. 1e6 /. n);
      m "core.refine_errors" "count" (per_op (counter "core.refine_errors"));
      m "core.undo_ms" "ms" (ms "core.undo");
      m "code.generate_ms" "ms" (ms "code.generate");
      m "code.generate_alloc_mb" "MB" (alloc "code.generate");
      m "aspects.generate_ms" "ms" (ms "aspects.generate");
      m "aspects.generated" "count" (per_op (metric "pipeline.aspects.generated"));
      m "weaver.weave_ms" "ms" (ms "weaver.weave");
      m "weaver.applications" "count" (per_op (counter "weaver.applications"));
      m "weaver.reweave_ms" "ms" (ms "weaver.reweave");
      m "weaver.initial_ms" "ms" (ms "weaver.initial");
      m "weaver.rewoven_ratio" "ratio"
        (ratio (metric "weave.inc.rewoven") (metric "weave.inc.rewoven" +. metric "weave.inc.skipped"));
      m "interp.run_ms" "ms" (ms "interp.run");
      m "interp.events_per_op" "count" (per_op (counter "interp.events"));
      m "interp.exceptions_per_op" "count" (per_op (counter "interp.exceptions"));
      m "interp.commit_skipped_ratio" "ratio"
        (ratio (counter "interp.commit_skipped") (counter "interp.tx_unfaulted"));
      m "repository.snapshot_ms" "ms" (ms "repository.snapshot");
      m "repository.commit_ms" "ms" (ms "repository.commit");
      m "repository.read_ms" "ms" (ms "repository.read");
      m "par.wall_ms" "ms" (ms "par.refine_all");
      m "par.items" "count" (per_op (counter "par.items"));
      m "par.busy_ratio" "ratio"
        (ratio (counter "par.busy_ns")
           (get totals.incl "par.refine_all" *. float_of_int (Batch_refine.jobs ())));
      m "gc.settle_ms" "ms" (ms "gc.settle");
      m "gc.minor_per_op" "count" (gc (float_of_int base.Harness.minor));
      m "gc.major_per_op" "count" (gc (float_of_int base.Harness.major));
      m "gc.promoted_mb_per_op" "MB"
        (gc (mb (base.Harness.promoted *. float_of_int (Sys.word_size / 8))));
      m "trace.overhead_ratio" "ratio" (ratio traced_ops_per_s (Harness.ops_per_s ~cycle base));
      m "trace.op_ms" "ms" (totals.op_ns /. 1e6 /. n);
      m "trace.unattributed_ms" "ms" (get totals.self "op" /. 1e6 /. n);
      m "trace.unattributed_share" "ratio" (ratio (get totals.self "op") totals.op_ns);
    ]

let usage =
  "bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let spans = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the measured phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--spans", Arg.Set_string spans, "FILE where a traced run writes its spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let setup =
    match List.assoc_opt !workload workloads with
    | Some setup -> setup
    | None ->
        prerr_endline ("unknown workload " ^ !workload ^ "\n" ^ usage);
        exit 2
  in
  Printf.printf "workload %s seed %d seconds %g trace %d\n%!" !workload !seed !seconds !trace;
  let int_speedup, alloc_speedup = Calibrate.run () in
  Printf.printf "  host two-domain speedup: integer %.3fx, allocating %.3fx\n%!"
    int_speedup alloc_speedup;
  let runner, setup_s = Harness.setup setup ~seed:!seed in
  let cycle = runner.Harness.cycle in
  let phases, metrics =
    match Harness.run ~alternate:(!trace <> 0) runner ~seconds:!seconds with
    | p, None -> ([ p ], end_to_end ~cycle ~setup_s p)
    | base, Some traced -> ([ base; traced ], per_layer ~cycle ~base ~traced)
  in
  runner.Harness.close ();
  if !trace <> 0 && !spans <> "" then Spans.write !spans;
  let attempted = List.fold_left (fun a p -> a + p.Harness.attempted) 0 phases in
  let failed = List.fold_left (fun a p -> a + p.Harness.failed) 0 phases in
  Printf.printf "  fail_ratio %g ratio (%d of %d operations)\n"
    (float_of_int failed /. float_of_int attempted) failed attempted;
  Harness.print_result ~correct:(failed = 0) ~attempted ~failed metrics
