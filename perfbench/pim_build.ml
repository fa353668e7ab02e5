(* pim-build: the compile path of Fig. 2, with the interpreter idle.

   Set-up generates seeded PIMs of 200–1000 classes and exports them to
   XMI bytes. One operation takes one document through
   import → project → refine (distribution, transactions, security,
   concurrency) → build → export of the refined model. Each concern gets
   its own seeded target set, so the sets overlap; the share of classes
   targeted varies from 2% to 10% because rewrite cost grows with
   targets × model size. *)

let concerns = [ "distribution"; "transactions"; "security"; "concurrency" ]

(* The fixed schedule of (classes, target share in percent): fifteen sizes
   evenly spaced over 200–1000 classes, each paired with one of fifteen
   shares evenly spaced over 2–10% by a fixed permutation, run in a fixed
   order that interleaves small and large models. Costs then spread evenly
   instead of in clusters, which keeps the latency percentiles steady; the
   seed only changes the content of each model and which classes are
   targeted. *)
let schedule =
  List.init 15 (fun k ->
      let j = k * 8 mod 15 in
      (200 + (800 * j / 14), 2. +. (8. *. float_of_int (j * 7 mod 15) /. 14.)))

type input = {
  xmi : string;
  targets : (string * string list) list;  (** concern, target classes *)
}

let make_input seed k (classes, share) =
  let rng = Inputs.rng seed k in
  let p = Inputs.pim rng ~name:(Printf.sprintf "pim%d" k) ~classes in
  let n = max 1 (int_of_float (Float.round (float_of_int classes *. share /. 100.))) in
  {
    xmi = Xmi.Export.to_string p.Inputs.model;
    targets = List.map (fun c -> (c, Inputs.sample rng n p.Inputs.classes)) concerns;
  }

(* The output check: the exported refined model is a byte fixpoint under
   import → export, and every target class carries its concern's mark. *)
let check input out =
  let m = Xmi.Import.from_string out in
  if Xmi.Export.to_string m <> out then Some "refined XMI is not an export fixpoint"
  else
    List.find_map
      (fun (concern, classes) ->
        List.find_map
          (fun cls ->
            match Mof.Query.find_class m cls with
            | Some e when Mof.Element.has_stereotype (Inputs.mark concern) e -> None
            | _ -> Some (Printf.sprintf "%s lacks the %s mark" cls concern))
          classes)
      input.targets

let refine_all project targets =
  List.fold_left
    (fun acc (concern, classes) ->
      match acc with
      | Error _ -> acc
      | Ok project -> (
          let params = [ (Inputs.target_param concern, Inputs.names_value classes) ] in
          match
            Spans.span "core.refine" (fun () ->
                Core.Pipeline.refine project ~concern ~params)
          with
          | Ok (project, _) -> Ok project
          | Error e ->
              Spans.count "core.refine_errors" 1.;
              Error (concern ^ ": " ^ Core.Pipeline.error_to_string e)))
    (Ok project) targets

let setup ~seed =
  let inputs = Array.mapi (make_input seed) (Array.of_list schedule) in
  let op i =
    let input = inputs.(i mod Array.length inputs) in
    let m = Spans.span "xmi.import" (fun () -> Xmi.Import.from_string input.xmi) in
    let project = Spans.span "core.create" (fun () -> Core.Project.create m) in
    match refine_all project input.targets with
    | Error why -> fun () -> Some why
    | Ok project -> (
        match Spans.span "core.build" (fun () -> Core.Pipeline.build project) with
        | Error e -> fun () -> Some ("build: " ^ Core.Pipeline.error_to_string e)
        | Ok artifacts ->
            let out =
              Spans.span "xmi.export" (fun () ->
                  Xmi.Export.to_string (Core.Project.model project))
            in
            fun () ->
              Spans.count "xmi.import_bytes" (float_of_int (String.length input.xmi));
              Spans.count "weaver.applications"
                (float_of_int (List.length artifacts.Core.Artifacts.applications));
              check input out)
  in
  { Harness.op; cycle = Array.length inputs; warm = 2; settle = true; parallel = false; close = ignore }
