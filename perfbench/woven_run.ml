(* woven-run: run time of the generated code, with XMI, OCL and the
   transformation engine idle.

   Set-up refines seeded 40-class PIMs with transactions, security,
   concurrency and logging and builds them. In the functional code it then
   replaces the bodies of [m0], [m1] and [m2] with a loop and calls parsed
   from source — [m0] sums [this.m1(i)] over [i < x], [m1] returns
   [this.m2(x) * a + b], [m2] returns [x + c] with seeded constants — and
   weaves the generated aspects in once. One operation is one interpreted
   run of a seeded class's [m0], as [mdweave run] does it, with a loop
   count drawn from 1–100; about one operation in ten injects a fault on
   entry to [m1]. *)

let pims = 4
let classes = 40
let chain = [ "transactions"; "security"; "concurrency"; "logging" ]

(* Which concerns target the [i]-th class of a seeded permutation: a
   quarter of the classes get transactions; security and concurrency each
   get another quarter plus an eighth that already has transactions; every
   other class gets logging. Every seed thus has the same mix of advice per
   class — only which class gets which differs — so operation costs are
   comparable across seeds. *)
let targets_of_slot i = function
  | "transactions" -> i mod 4 = 0
  | "security" -> i mod 4 = 1 || i mod 8 = 0
  | "concurrency" -> i mod 4 = 2 || i mod 8 = 4
  | _ -> i mod 2 = 0

type cls = {
  name : string;
  a : int;
  b : int;
  c : int;
  transactional : bool;
}

type program = { woven : Code.Junit.program; classes : cls array }

(* m0 (x) = sum over i < x of ((i + c) * a + b). *)
let closed_form k x = (k.a * ((x * (x - 1) / 2) + (k.c * x))) + (k.b * x)

let block src =
  match Code.Jparser.parse_stmt src with
  | Code.Jstmt.S_block stmts -> stmts
  | s -> [ s ]

let bodies k = function
  | "m0" ->
      Some
        (block
           "{ int s = 0; int i = 0; while (i < x) { s = s + this.m1(i); i = i \
            + 1; } return s; }")
  | "m1" -> Some (block (Printf.sprintf "{ return this.m2(x) * %d + %d; }" k.a k.b))
  | "m2" -> Some (block (Printf.sprintf "{ return x + %d; }" k.c))
  | _ -> None

let make_program seed p =
  let rng = Inputs.rng seed (100 + p) in
  let pim = Inputs.pim rng ~name:(Printf.sprintf "app%d" p) ~classes in
  let slots = Inputs.shuffle rng pim.Inputs.classes in
  let targets =
    List.map
      (fun c ->
        (c, List.filteri (fun i _ -> targets_of_slot i c) (Array.to_list slots)))
      chain
  in
  let project =
    List.fold_left
      (fun project (concern, names) ->
        Core.Pipeline.refine_exn project ~concern
          ~params:[ (Inputs.target_param concern, Inputs.names_value names) ])
      (Core.Project.create pim.Inputs.model)
      targets
  in
  let artifacts =
    match Core.Pipeline.build project with
    | Ok a -> a
    | Error e -> failwith (Core.Pipeline.error_to_string e)
  in
  let tx = List.assoc "transactions" targets in
  let classes =
    Array.map
      (fun name ->
        {
          name;
          a = 1 + Random.State.int rng 9;
          b = Random.State.int rng 10;
          c = Random.State.int rng 10;
          transactional = List.mem name tx;
        })
      pim.Inputs.classes
  in
  let by_name = Hashtbl.create 64 in
  Array.iter (fun k -> Hashtbl.replace by_name k.name k) classes;
  let functional =
    Code.Junit.map_classes
      (fun (c : Code.Jdecl.class_) ->
        match Hashtbl.find_opt by_name c.Code.Jdecl.class_name with
        | None -> c
        | Some k ->
            Code.Jdecl.map_methods
              (fun (mth : Code.Jdecl.method_) ->
                match bodies k mth.Code.Jdecl.method_name with
                | Some body -> { mth with Code.Jdecl.body = Some body }
                | None -> mth)
              c)
      artifacts.Core.Artifacts.functional
  in
  let woven =
    (Weaver.Weave.weave artifacts.Core.Artifacts.generated_aspects functional)
      .Weaver.Weave.program
  in
  { woven; classes }

let count source action events =
  List.length (List.filter (fun e -> Interp.Event.matches ~source ~action e) events)

(* The output check, against the closed form of the injected bodies: an
   unfaulted run returns it and, on a transactional class, begins its
   transactions without rolling any back; a faulted run throws the injected
   exception and, on a transactional class, rolls back.

   Commits are checked to be all present (one per begin, AspectJ's
   semantics) or all absent: the weaver splices the advised body at
   [proceed()], so a [return] in it skips the around advice's commit — a
   documented deviation (EXPERIMENTS.md, "Known deviations") that the
   interpreter tests pin. [m0]..[m2] return values, so today every commit
   is skipped; the traced run reports how often as
   [interp.commit_skipped_ratio] instead of failing the operation. *)
let check k ~x ~faulted (outcome : Interp.Machine.outcome) =
  let events = outcome.Interp.Machine.events in
  let tx action = count "TransactionManager" action events in
  match (faulted, outcome.Interp.Machine.result) with
  | false, Ok (Interp.Rvalue.V_int v) when v <> closed_form k x ->
      Some (Printf.sprintf "%s.m0(%d) = %d, expected %d" k.name x v (closed_form k x))
  | false, Ok (Interp.Rvalue.V_int _) ->
      if not k.transactional then None
      else if tx "begin" = 0 || tx "rollback" > 0 then
        Some (k.name ^ ": unfaulted transactional run did not begin, or rolled back")
      else if tx "commit" <> 0 && tx "commit" <> tx "begin" then
        Some (Printf.sprintf "%s: %d commits for %d begins" k.name (tx "commit") (tx "begin"))
      else None
  | false, Ok v -> Some ("m0 returned " ^ Interp.Rvalue.to_string v)
  | false, Error cls -> Some ("unfaulted run threw " ^ cls)
  | true, Ok _ -> Some "faulted run returned normally"
  | true, Error "RuntimeException" ->
      if k.transactional && tx "rollback" = 0 then
        Some (k.name ^ ": faulted transactional run did not roll back")
      else None
  | true, Error cls -> Some ("faulted run threw " ^ cls)

let setup ~seed =
  let programs = Array.init pims (make_program seed) in
  let rng = Inputs.rng seed 2000 in
  let op _ =
    let p = programs.(Random.State.int rng pims) in
    let k = p.classes.(Random.State.int rng classes) in
    let x = 1 + Random.State.int rng 100 in
    let faulted = Random.State.int rng 10 = 0 in
    let faults = if faulted then [ (k.name, "m1") ] else [] in
    let outcome =
      Spans.span "interp.run" (fun () ->
          Interp.Machine.run ~faults ~args:[ Interp.Rvalue.V_int x ] p.woven
            ~class_name:k.name ~method_name:"m0")
    in
    fun () ->
      let events = outcome.Interp.Machine.events in
      Spans.count "interp.events" (float_of_int (List.length events));
      (match outcome.Interp.Machine.result with
      | Error _ -> Spans.count "interp.exceptions" 1.
      | Ok _ when k.transactional ->
          Spans.count "interp.tx_unfaulted" 1.;
          if count "TransactionManager" "commit" events = 0 then
            Spans.count "interp.commit_skipped" 1.
      | Ok _ -> ());
      check k ~x ~faulted outcome
  in
  { Harness.op; cycle = 1; warm = 200; settle = false; parallel = false; close = ignore }
