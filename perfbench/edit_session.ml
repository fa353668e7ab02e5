(* edit-session: the repository, code generator and weaver of pim-build,
   used the way an editor uses them — many small writes beside reads, and
   incremental re-weave instead of a full weave.

   Set-up refines one seeded 200-class PIM with transactions and logging,
   starts a [Repository.Service] on the project's repository and a
   [Weaver.Weave.initial] state. One operation is one edit cycle:
   snapshot, a seeded small edit through [Mof.Builder] (add an operation,
   add an attribute, or rename an attribute), commit with [expect_head],
   one read ([Repo.model_at] on one operation in four, else
   [Repo.diff_between], against the commit ten back), then code
   generation and [Weaver.Weave.reweave].

   Every 20th operation is a reconfigure instead: [Pipeline.undo] of the
   logging step, [refine] with a new target set and level, [aspects], a
   new repository session on the reconfigured model, and [Weave.initial].
   Starting over from the reconfigured model drops the edits and the
   history of the last 20 operations, so neither the model nor the
   repository grows over a run and every run measures the same work. *)

let classes = 200
let every = 20
let options =
  {
    Code.Generator.accessors = true;
    exclude_stereotypes = Core.Pipeline.exclude_stereotypes;
  }

type edit =
  | Add_operation of string * string  (** class, operation *)
  | Add_attribute of string * string
  | Rename_attribute of string * Mof.Id.t * string  (** class, attribute, new name *)

let draw_edit rng names m i =
  let cls = names.(Random.State.int rng (Array.length names)) in
  match Random.State.int rng 3 with
  | 0 -> Add_operation (cls, Printf.sprintf "e%d" i)
  | 1 -> Add_attribute (cls, Printf.sprintf "g%d" i)
  | _ -> (
      let id = (Option.get (Mof.Query.find_class m cls)).Mof.Element.id in
      match Mof.Query.attributes_of m id with
      | [] -> Add_attribute (cls, Printf.sprintf "g%d" i)
      | attrs ->
          let a = List.nth attrs (Random.State.int rng (List.length attrs)) in
          Rename_attribute (cls, a.Mof.Element.id, Printf.sprintf "h%d" i))

let apply_edit m = function
  | Add_operation (cls, name) ->
      let owner = (Option.get (Mof.Query.find_class m cls)).Mof.Element.id in
      let m, op = Mof.Builder.add_operation m ~owner ~name in
      let m, _ = Mof.Builder.add_parameter m ~op ~name:"x" ~typ:Mof.Kind.Dt_integer in
      Mof.Builder.set_result m ~op ~typ:Mof.Kind.Dt_integer
  | Add_attribute (cls, name) ->
      let cls = (Option.get (Mof.Query.find_class m cls)).Mof.Element.id in
      fst (Mof.Builder.add_attribute m ~cls ~name ~typ:Mof.Kind.Dt_integer)
  | Rename_attribute (_, id, name) -> Mof.Builder.rename m id name

(* Does the committed model hold the edit? Checked on the version the
   repository rematerializes, not on the model the edit produced. *)
let holds m = function
  | (Add_operation (cls, name) | Add_attribute (cls, name)) as edit -> (
      match Mof.Query.find_class m cls with
      | None -> false
      | Some c ->
          let id = c.Mof.Element.id in
          List.exists
            (fun (e : Mof.Element.t) -> e.Mof.Element.name = name)
            (match edit with
            | Add_operation _ -> Mof.Query.operations_of m id
            | _ -> Mof.Query.attributes_of m id))
  | Rename_attribute (_, id, name) -> (
      match Mof.Model.find m id with
      | Some e -> e.Mof.Element.name = name
      | None -> false)

type state = {
  mutable svc : Repository.Service.t;
  mutable branch : string;
  mutable project : Core.Project.t;
  mutable generated : Aspects.Generator.generated list;
  mutable woven : Weaver.Weave.state;
}

let pipeline what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ Core.Pipeline.error_to_string e)

(* Commit with [expect_head]. With one client no other writer can move the
   head between the snapshot and the commit, so a stale parent is an error
   like any other. *)
let commit st ~message make =
  let view = Spans.span "repository.snapshot" (fun () -> Repository.Service.snapshot st.svc) in
  let head = (Repository.Repo.head view).Repository.Commit.id in
  let model = make (Repository.Repo.head_model view) in
  match
    Spans.span "repository.commit" (fun () ->
        Repository.Service.commit st.svc ~branch:st.branch ~expect_head:head ~message model)
  with
  | Ok id -> (id, model)
  | Error e -> failwith (Repository.Service.error_to_string e)

(* One read in four rematerializes a whole version; an operation that does
   takes about four times as long as one that reads a diff. The slow reads
   then set the p90 and the others the median. With half of each, the
   median would sit in the gap between the two costs and jump with any
   small shift of either. *)
let read st ~id i =
  Spans.span "repository.read" (fun () ->
      let view = Repository.Service.snapshot st.svc in
      let back = max 0 (id - 10) in
      if i mod 4 = 0 then ignore (Repository.Repo.model_at view back)
      else ignore (Repository.Repo.diff_between view ~from_id:back ~to_id:id))

let committed st id = Option.get (Repository.Repo.model_at (Repository.Service.snapshot st.svc) id)

let edit st rng names i =
  let edit = ref None in
  let id, model =
    commit st ~message:(Printf.sprintf "edit %d" i) (fun head ->
        let e = draw_edit rng names head i in
        edit := Some e;
        Spans.span "mof.edit" (fun () -> apply_edit head e))
  in
  read st ~id i;
  let code = Spans.span "code.generate" (fun () -> Code.Generator.generate ~options model) in
  st.woven <- Spans.span "weaver.reweave" (fun () -> Weaver.Weave.reweave st.woven code);
  let edit = Option.get !edit and woven = st.woven and generated = st.generated in
  fun () ->
    let same (a : Weaver.Weave.result) (b : Weaver.Weave.result) =
      Code.Junit.equal a.Weaver.Weave.program b.Weaver.Weave.program
      && a.Weaver.Weave.applications = b.Weaver.Weave.applications
    in
    if not (holds (committed st id) edit) then Some (Printf.sprintf "commit %d lacks edit %d" id i)
    else if i mod 5 = 0
            && not
                 (same (Weaver.Weave.result_of woven)
                    (Weaver.Weave.result_of (Weaver.Weave.initial generated code)))
    then Some "reweave differs from a full weave"
    else None

let levels = [| "debug"; "info"; "warn" |]

let reconfigure st rng names i =
  let targets = Inputs.sample rng (classes / 10) names in
  let level = levels.(i / every mod Array.length levels) in
  let project =
    match Spans.span "core.undo" (fun () -> Core.Pipeline.undo st.project) with
    | Some p -> p
    | None -> failwith "nothing to undo"
  in
  let project, _ =
    pipeline "refine logging"
      (Spans.span "core.refine" (fun () ->
           Core.Pipeline.refine project ~concern:"logging"
             ~params:
               [
                 ("targets", Inputs.names_value targets);
                 ("level", Transform.Params.V_string level);
               ]))
  in
  st.project <- project;
  st.generated <- pipeline "aspects" (Spans.span "aspects.generate" (fun () -> Core.Pipeline.aspects project));
  let model = Core.Project.model project in
  let repo = Spans.span "repository.commit" (fun () -> Repository.Repo.init model) in
  st.svc <- Repository.Service.create repo;
  st.branch <- Repository.Repo.branch repo;
  let id = (Repository.Repo.head repo).Repository.Commit.id in
  let code = Spans.span "code.generate" (fun () -> Code.Generator.generate ~options model) in
  st.woven <- Spans.span "weaver.initial" (fun () -> Weaver.Weave.initial st.generated code);
  fun () ->
    let m = committed st id in
    List.find_map
      (fun cls ->
        match Mof.Query.find_class m cls with
        | Some e
          when Mof.Element.has_stereotype "logged" e
               && Mof.Element.tag "logLevel" e = Some level ->
            None
        | _ -> Some (Printf.sprintf "commit %d: %s not logged at %s" id cls level))
      targets

let setup ~seed =
  let rng = Inputs.rng seed 3000 in
  let pim = Inputs.pim rng ~name:"session" ~classes in
  let names = pim.Inputs.classes in
  let refine project concern param targets =
    pipeline concern
      (Core.Pipeline.refine project ~concern
         ~params:[ (param, Inputs.names_value targets) ])
    |> fst
  in
  let project = Core.Project.create pim.Inputs.model in
  let project = refine project "transactions" "transactional" (Inputs.sample rng (classes / 10) names) in
  let project = refine project "logging" "targets" (Inputs.sample rng (classes / 10) names) in
  let generated = pipeline "aspects" (Core.Pipeline.aspects project) in
  let st =
    {
      svc = Repository.Service.create project.Core.Project.repo;
      branch = Repository.Repo.branch project.Core.Project.repo;
      project;
      generated;
      woven = Weaver.Weave.initial generated (Core.Pipeline.functional_code project);
    }
  in
  let op i =
    if i mod every = every - 1 then reconfigure st rng names i else edit st rng names i
  in
  { Harness.op; cycle = every; warm = every; settle = false; parallel = false; close = ignore }
