module Sm = Map.Make (String)

type application = {
  aspect_name : string;
  advice_name : string;
  at : string;
}

type result = {
  program : Code.Junit.program;
  applications : application list;
}

(* Substitute the pseudo-variables of advice bodies for a concrete shadow. *)
let instantiate_body shadow stmts =
  let rewrite_names e =
    let rec walk e =
      match e with
      | Code.Jexpr.E_name "thisJoinPoint" ->
          Code.Jexpr.E_string (Joinpoint.describe shadow)
      | Code.Jexpr.E_name "targetName" ->
          Code.Jexpr.E_string (Joinpoint.enclosing_class shadow)
      | Code.Jexpr.E_null | Code.Jexpr.E_this | Code.Jexpr.E_bool _
      | Code.Jexpr.E_int _ | Code.Jexpr.E_double _ | Code.Jexpr.E_string _
      | Code.Jexpr.E_name _ ->
          e
      | Code.Jexpr.E_field (r, f) -> Code.Jexpr.E_field (walk r, f)
      | Code.Jexpr.E_call (r, m, args) ->
          Code.Jexpr.E_call (Option.map walk r, m, List.map walk args)
      | Code.Jexpr.E_new (c, args) -> Code.Jexpr.E_new (c, List.map walk args)
      | Code.Jexpr.E_binary (op, a, b) -> Code.Jexpr.E_binary (op, walk a, walk b)
      | Code.Jexpr.E_unary (op, a) -> Code.Jexpr.E_unary (op, walk a)
      | Code.Jexpr.E_assign (l, r) -> Code.Jexpr.E_assign (walk l, walk r)
      | Code.Jexpr.E_cast (t, a) -> Code.Jexpr.E_cast (t, walk a)
      | Code.Jexpr.E_instanceof (a, c) -> Code.Jexpr.E_instanceof (walk a, c)
    in
    walk e
  in
  List.map (Code.Jstmt.map_expr rewrite_names) stmts

(* Replace the statement containing the proceed() marker by the original
   body (wrapped in a block). *)
let rec splice_proceed original stmts =
  List.concat_map
    (fun stmt ->
      let is_marker =
        match stmt with
        | Code.Jstmt.S_expr (Code.Jexpr.E_call (None, "proceed", [])) -> true
        | _ -> false
      in
      if is_marker then [ Code.Jstmt.S_block original ]
      else
        match stmt with
        | Code.Jstmt.S_if (c, t, f) ->
            [ Code.Jstmt.S_if (c, splice_proceed original t, splice_proceed original f) ]
        | Code.Jstmt.S_while (c, b) ->
            [ Code.Jstmt.S_while (c, splice_proceed original b) ]
        | Code.Jstmt.S_try (b, catches, fin) ->
            [
              Code.Jstmt.S_try
                ( splice_proceed original b,
                  List.map
                    (fun (t, n, stmts) -> (t, n, splice_proceed original stmts))
                    catches,
                  splice_proceed original fin );
            ]
        | Code.Jstmt.S_sync (e, b) ->
            [ Code.Jstmt.S_sync (e, splice_proceed original b) ]
        | Code.Jstmt.S_block b -> [ Code.Jstmt.S_block (splice_proceed original b) ]
        | stmt -> [ stmt ])
    stmts

(* Weave one piece of execution advice into a method body. *)
let weave_execution_advice (a : Aspects.Advice.t) shadow body =
  let advice_body = instantiate_body shadow a.Aspects.Advice.body in
  match a.Aspects.Advice.time with
  | Aspects.Advice.Before -> advice_body @ body
  | Aspects.Advice.After -> [ Code.Jstmt.S_try (body, [], advice_body) ]
  | Aspects.Advice.After_returning -> (
      match List.rev body with
      | Code.Jstmt.S_return _ as ret :: prefix ->
          List.rev prefix @ advice_body @ [ ret ]
      | _ -> body @ advice_body)
  | Aspects.Advice.Around -> splice_proceed body advice_body

(* Wrap individual statements that contain matching call/set shadows.
   [decide] is the staged [Matcher.matches a.pointcut] — resolved once per
   (class, advice) by the caller so the rewrite recursion below never pays
   the decider-cache lookup per statement group. *)
let weave_statement_advice (a : Aspects.Advice.t) decide scope ~within_method
    record body =
  let rec rewrite stmts =
    List.map
      (fun stmt ->
        let nested =
          match stmt with
          | Code.Jstmt.S_if (c, t, f) -> Code.Jstmt.S_if (c, rewrite t, rewrite f)
          | Code.Jstmt.S_while (c, b) -> Code.Jstmt.S_while (c, rewrite b)
          | Code.Jstmt.S_try (b, catches, fin) ->
              Code.Jstmt.S_try
                ( rewrite b,
                  List.map (fun (t, n, s) -> (t, n, rewrite s)) catches,
                  rewrite fin )
          | Code.Jstmt.S_sync (e, b) -> Code.Jstmt.S_sync (e, rewrite b)
          | Code.Jstmt.S_block b -> Code.Jstmt.S_block (rewrite b)
          | stmt -> stmt
        in
        (* only direct expressions of this statement, not nested ones —
           nested statements were handled by the recursion above *)
        let shadows = Joinpoint.statement_shadows scope ~within_method nested in
        let matching = List.filter decide shadows in
        match matching with
        | [] -> nested
        | shadow :: _ ->
            record shadow;
            let advice_body = instantiate_body shadow a.Aspects.Advice.body in
            (match a.Aspects.Advice.time with
            | Aspects.Advice.Before ->
                Code.Jstmt.S_block (advice_body @ [ nested ])
            | Aspects.Advice.After | Aspects.Advice.After_returning ->
                Code.Jstmt.S_block ([ nested ] @ advice_body)
            | Aspects.Advice.Around ->
                Code.Jstmt.S_block (splice_proceed [ nested ] advice_body)))
      stmts
  in
  rewrite body

let is_execution_advice (a : Aspects.Advice.t) =
  Matcher.kinds a.Aspects.Advice.pointcut

(* Apply every inter-type declaration of an aspect to one class
   (declaration order preserved). Returns the class physically unchanged
   when nothing applied. *)
let apply_intertypes_to_class intertypes (c : Code.Jdecl.class_) =
  List.fold_left
    (fun c it ->
      match it with
      | Aspects.Aspect.It_field (pattern, field) ->
          if Aspects.Pattern.matches pattern c.Code.Jdecl.class_name then
            Code.Jdecl.add_field field c
          else c
      | Aspects.Aspect.It_method (pattern, m) ->
          if Aspects.Pattern.matches pattern c.Code.Jdecl.class_name then
            Code.Jdecl.add_method m c
          else c)
    c intertypes

(* One traversal of the program applies every inter-type declaration to each
   class it reaches, instead of one full rebuild of the program per
   declaration. *)
let apply_intertypes (aspect : Aspects.Aspect.t) program =
  match aspect.Aspects.Aspect.intertypes with
  | [] -> program
  | intertypes ->
      Code.Junit.map_classes (apply_intertypes_to_class intertypes) program

(* Weave a list of one aspect's advice (declaration order) into one class;
   [record] receives each advice application. The scope of a method only
   reads the class itself, so per-class weaving is a pure function of
   (class, advice). *)
let weave_advices_into_class advices record (c : Code.Jdecl.class_) =
  (* Stage each advice's decider once per class: [Matcher.matches pc] pays
     the decider-cache lookup (a structural hash of the pointcut AST) at
     partial application, so resolving it here keeps the per-method and
     per-statement loops below lookup-free. *)
  let advices =
    List.map
      (fun (a : Aspects.Advice.t) ->
        let wants_exec, wants_stmt = is_execution_advice a in
        (a, wants_exec, wants_stmt, Matcher.matches a.Aspects.Advice.pointcut))
      advices
  in
  Code.Jdecl.map_methods
    (fun m ->
      match m.Code.Jdecl.body with
      | None -> m
      | Some body ->
          let scope = Joinpoint.scope_of_method c m in
          let within_method = m.Code.Jdecl.method_name in
          let exec_shadow =
            Joinpoint.Sh_execution
              {
                class_name = c.Code.Jdecl.class_name;
                method_name = m.Code.Jdecl.method_name;
              }
          in
          let body =
            List.fold_left
              (fun body ((a : Aspects.Advice.t), wants_exec, wants_stmt, decide)
                 ->
                let body =
                  if wants_stmt then
                    weave_statement_advice a decide scope ~within_method
                      (record a.Aspects.Advice.advice_name)
                      body
                  else body
                in
                if wants_exec && decide exec_shadow then begin
                  record a.Aspects.Advice.advice_name exec_shadow;
                  weave_execution_advice a exec_shadow body
                end
                else body)
              body advices
          in
          { m with Code.Jdecl.body = Some body })
    c

let weave_class_with (aspect : Aspects.Aspect.t) =
  weave_advices_into_class aspect.Aspects.Aspect.advices

let weave_one (aspect : Aspects.Aspect.t) program =
  let applications = ref [] in
  let record advice_name shadow =
    Obs.incr "weave.joinpoint.match" [];
    applications :=
      {
        aspect_name = aspect.Aspects.Aspect.aspect_name;
        advice_name;
        at = Joinpoint.describe shadow;
      }
      :: !applications
  in
  let program = apply_intertypes aspect program in
  let program =
    Code.Junit.map_classes (weave_class_with aspect record) program
  in
  { program; applications = List.rev !applications }

(* The pre-index weaver, kept as the differential baseline (like
   [Repository.Naive]): one full program traversal per aspect, every
   advice tested against every shadow. The [weave] oracle pins
   [weave ≡ weave_scan ≡ fold of weave_one]. *)
let weave_scan generated program =
  List.fold_left
    (fun acc (g : Aspects.Generator.generated) ->
      let r = weave_one g.Aspects.Generator.aspect acc.program in
      { program = r.program; applications = acc.applications @ r.applications })
    { program; applications = [] }
    (List.rev (Precedence.order generated))

(* --- advice dispatch ---------------------------------------------------- *)

(* One aspect's advice and inter-type declarations, split by the literal
   class they can reach: advice whose pointcut pins an enclosing class
   ([Matcher.class_key]) and inter-types with a star-free pattern go in a
   table under that class name; the rest apply anywhere. Each item keeps
   its declaration position, so a class's share is the merge of its
   keyed items with the keyless ones in declaration order — exactly the
   sublist of the aspect's declarations that can apply to it. Per-class
   aspects (one [execution] advice per target class) thus cost
   O(classes + advices) instead of O(classes × advices). *)
type 'a split = {
  keyed : (string, (int * 'a) list) Hashtbl.t;  (* declaration order *)
  keyless : (int * 'a) list;
  keyless_items : 'a list;
}

let split key_of items =
  let keyed = Hashtbl.create 16 in
  let keyless = ref [] in
  List.iteri
    (fun pos item ->
      match key_of item with
      | Some k ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt keyed k) in
          Hashtbl.replace keyed k ((pos, item) :: prev)
      | None -> keyless := (pos, item) :: !keyless)
    items;
  Hashtbl.filter_map_inplace (fun _ l -> Some (List.rev l)) keyed;
  let keyless = List.rev !keyless in
  { keyed; keyless; keyless_items = List.map snd keyless }

(* The declarations of [sp] that can apply to the class named [name]. *)
let for_class sp name =
  match Hashtbl.find_opt sp.keyed name with
  | None -> sp.keyless_items
  | Some keyed ->
      let rec merge a b =
        match (a, b) with
        | [], l | l, [] -> List.map snd l
        | (i, x) :: a', (j, _) :: _ when i < j -> x :: merge a' b
        | _, (_, y) :: b' -> y :: merge a b'
      in
      merge keyed sp.keyless

type dispatch = {
  aspect : Aspects.Aspect.t;
  advices : Aspects.Advice.t split;
  intertypes : Aspects.Aspect.intertype split;
}

let intertype_key = function
  | Aspects.Aspect.It_field (p, _) | Aspects.Aspect.It_method (p, _) ->
      if Aspects.Pattern.is_wildcard p then None else Some p

let dispatch_of (aspect : Aspects.Aspect.t) =
  {
    aspect;
    advices =
      split
        (fun (a : Aspects.Advice.t) -> Matcher.class_key a.Aspects.Advice.pointcut)
        aspect.Aspects.Aspect.advices;
    intertypes = split intertype_key aspect.Aspects.Aspect.intertypes;
  }

(* --- the indexed, class-major weaver --------------------------------- *)

(* Weave the whole ordered aspect chain into one class. Each aspect
   contributes only its declarations that can reach this class (the
   dispatch above); the per-class joinpoint index then answers "can this
   advice apply here at all" — when none can, the class is not traversed
   for that aspect. The execution table survives advice weaving
   (statement rewrites never add or remove methods); only inter-type
   declarations invalidate it. Returns the woven class and the
   applications per aspect position. *)
let weave_class_chain (dispatch : dispatch array) (c0 : Code.Jdecl.class_) =
  let n = Array.length dispatch in
  let name = c0.Code.Jdecl.class_name in
  let apps = Array.make n [] in
  let c = ref c0 in
  let exec_ix = ref None in
  let stmt_ix = ref None in
  let exec_index () =
    match !exec_ix with
    | Some ix -> ix
    | None ->
        let ix = Index.exec_index_of_class !c in
        exec_ix := Some ix;
        ix
  in
  let stmt_index () =
    match !stmt_ix with
    | Some ix -> ix
    | None ->
        let ix = Index.stmt_index_of_class !c in
        stmt_ix := Some ix;
        ix
  in
  for i = 0 to n - 1 do
    let d = dispatch.(i) in
    (match for_class d.intertypes name with
    | [] -> ()
    | intertypes ->
        let c' = apply_intertypes_to_class intertypes !c in
        if c' != !c then begin
          c := c';
          exec_ix := None;
          stmt_ix := None
        end);
    let advices = for_class d.advices name in
    let touches =
      List.exists
        (fun (a : Aspects.Advice.t) ->
          let wants_exec, wants_stmt = is_execution_advice a in
          (wants_exec
          && Index.exec_touches (exec_index ()) a.Aspects.Advice.pointcut)
          || wants_stmt
             && Index.stmt_touches (stmt_index ()) a.Aspects.Advice.pointcut)
        advices
    in
    if touches then begin
      let recorded = ref [] in
      let record advice_name shadow =
        Obs.incr "weave.joinpoint.match" [];
        recorded :=
          {
            aspect_name = d.aspect.Aspects.Aspect.aspect_name;
            advice_name;
            at = Joinpoint.describe shadow;
          }
          :: !recorded
      in
      c := weave_advices_into_class advices record !c;
      apps.(i) <- List.rev !recorded;
      (* statement rewrites invalidate the call/set tables only *)
      stmt_ix := None
    end
  done;
  (!c, apps)

type cached = {
  src : Code.Jdecl.class_;  (* the class as it was before weaving *)
  woven : Code.Jdecl.class_;
  apps : application list array;  (* per aspect position *)
}

let class_equal a b =
  a == b || Code.Jdecl.equal_type_decl (Code.Jdecl.Class a) (Code.Jdecl.Class b)

(* The aspects in weave order (reverse precedence), each with its
   dispatch — built once per weave, and kept across re-weaves. *)
let ordered_dispatch generated =
  Array.of_list
    (List.map
       (fun (g : Aspects.Generator.generated) ->
         dispatch_of g.Aspects.Generator.aspect)
       (List.rev (Precedence.order generated)))

let emit_precedence generated =
  if Obs.enabled () then
    (* the precedence decision, as one structured event: position in the
       model-level transformation order -> aspect woven at that rank *)
    Obs.event ~cat:"weaver" "weave.precedence"
      ~args:
        (List.mapi
           (fun i (g : Aspects.Generator.generated) ->
             ( string_of_int (i + 1),
               Obs.Event.V_string
                 g.Aspects.Generator.aspect.Aspects.Aspect.aspect_name ))
           (Precedence.order generated))

(* Weave every class of a program through the aspect chain, consulting
   [lookup] for a cached result first. Applications are reassembled
   aspect-major (aspect, then class, then method — the order the
   aspect-major baseline reports them in). *)
let weave_classes (dispatch : dispatch array) ~lookup program =
  let n = Array.length dispatch in
  let per_aspect = Array.make n [] in
  let cache = ref Sm.empty in
  let program' =
    Code.Junit.map_classes
      (fun c ->
        let entry =
          match lookup c with
          | Some e -> e
          | None ->
              let woven, apps = weave_class_chain dispatch c in
              { src = c; woven; apps }
        in
        cache :=
          Sm.update entry.src.Code.Jdecl.class_name
            (function Some l -> Some (entry :: l) | None -> Some [ entry ])
            !cache;
        for i = 0 to n - 1 do
          match entry.apps.(i) with
          | [] -> ()
          | l -> per_aspect.(i) <- l :: per_aspect.(i)
        done;
        entry.woven)
      program
  in
  let applications =
    List.concat
      (List.init n (fun i ->
           let apps = List.concat (List.rev per_aspect.(i)) in
           Obs.incr "weave.applications" []
             ~by:(float_of_int (List.length apps));
           apps))
  in
  ({ program = program'; applications }, !cache)

let weave generated program =
  Obs.span ~cat:"weaver" "weave"
    ~args:[ ("aspects", Obs.Event.V_int (List.length generated)) ]
  @@ fun () ->
  emit_precedence generated;
  let dispatch = ordered_dispatch generated in
  fst (weave_classes dispatch ~lookup:(fun _ -> None) program)

(* --- incremental re-weave -------------------------------------------- *)

type state = {
  generated : Aspects.Generator.generated list;
  dispatch : dispatch array;  (* weave order; built once by [initial] *)
  cache : cached list Sm.t;  (* by class name; lists cover duplicates *)
  last : result;
}

let initial generated program =
  Obs.span ~cat:"weaver" "weave"
    ~args:[ ("aspects", Obs.Event.V_int (List.length generated)) ]
  @@ fun () ->
  emit_precedence generated;
  let dispatch = ordered_dispatch generated in
  let last, cache = weave_classes dispatch ~lookup:(fun _ -> None) program in
  { generated; dispatch; cache; last }

let result_of st = st.last

let reweave st program =
  Obs.span ~cat:"weaver" "weave.reweave"
    ~args:[ ("aspects", Obs.Event.V_int (List.length st.generated)) ]
  @@ fun () ->
  let lookup (c : Code.Jdecl.class_) =
    let hit =
      match Sm.find_opt c.Code.Jdecl.class_name st.cache with
      | None -> None
      | Some entries -> List.find_opt (fun e -> class_equal e.src c) entries
    in
    (match hit with
    | Some _ -> Obs.incr "weave.inc.skipped" []
    | None -> Obs.incr "weave.inc.rewoven" []);
    hit
  in
  let last, cache = weave_classes st.dispatch ~lookup program in
  { st with cache; last }
