(* batch-refine: the one workload on [Par]. One operation is one
   [Par.Batch.refine_all] of a three-concern chain (distribution,
   transactions, security) over 16 seeded 200-class models on a [Par.Pool]
   of min(2, recommended domain count) domains. The models share their
   class names, so one chain applies to all; their attributes differ. *)

let models = 16
let classes = 200
let chain = [ "distribution"; "transactions"; "security" ]

let jobs () = min 2 (Domain.recommended_domain_count ())

(* A model's content digest: the canonical digests of its elements in id
   order. *)
let digest m =
  Mof.Model.elements m
  |> List.sort (fun (a : Mof.Element.t) b -> Mof.Id.compare a.Mof.Element.id b.Mof.Element.id)
  |> List.map Mof.Canon.digest
  |> String.concat ""
  |> Digest.string

let setup ~seed =
  let rng = Inputs.rng seed 4000 in
  let names = Inputs.class_names rng classes in
  let batch =
    List.init models (fun k ->
        (Inputs.pim ~names (Inputs.rng seed (4001 + k)) ~name:(Printf.sprintf "item%d" k) ~classes)
          .Inputs.model)
  in
  let steps =
    List.map
      (fun concern ->
        Par.Batch.step ~concern
          ~params:[ (Inputs.target_param concern, Inputs.names_value (Inputs.sample rng 10 names)) ])
      chain
  in
  (* The reference: each item refined on its own, in this domain. *)
  let expected =
    List.map
      (fun m ->
        match Par.Batch.refine_one ~steps m with
        | Ok p -> Some (digest (Core.Project.model p))
        | Error _ -> None)
      batch
  in
  let pool = Par.Pool.create ~jobs:(jobs ()) () in
  let check outcomes =
    List.find_map Fun.id
      (List.mapi
         (fun k (outcome, reference) ->
           match (outcome, reference) with
           | Ok p, Some d when digest (Core.Project.model p) = d -> None
           | Ok _, _ -> Some (Printf.sprintf "item %d differs from its sequential refinement" k)
           | Error e, _ -> Some (Printf.sprintf "item %d: %s" k (Core.Pipeline.error_to_string e)))
         (List.combine outcomes expected))
  in
  let op _ =
    if !Spans.on then begin
      let traced =
        Spans.span "par.refine_all" (fun () -> Par.Batch.refine_all_traced ~pool ~steps batch)
      in
      (* Attribute the items' own traces after the operation, untimed. *)
      fun () ->
        List.iter (fun (_, events) -> Spans.count "par.busy_ns" (Spans.attribute_item events)) traced;
        Spans.count "par.items" (float_of_int (List.length traced));
        check (List.map fst traced)
    end
    else
      let outcomes = Spans.span "par.refine_all" (fun () -> Par.Batch.refine_all ~pool ~steps batch) in
      fun () -> check outcomes
  in
  { Harness.op; cycle = 1; warm = 1; settle = false; parallel = true; close = (fun () -> Par.Pool.shutdown pool) }
