(* Which shadow domains a pointcut can match: [(wants_exec, wants_stmt)].
   A pure [within] pointcut constrains but never selects, so it wants
   neither — advice gated on it is inert, and the weaver, the joinpoint
   index and the interference analysis must all agree on that. *)
let rec kinds = function
  | Aspects.Pointcut.Execution _ -> (true, false)
  | Aspects.Pointcut.Call _ | Aspects.Pointcut.Set_field _ -> (false, true)
  | Aspects.Pointcut.Within _ -> (false, false)
  | Aspects.Pointcut.And (x, y) | Aspects.Pointcut.Or (x, y) ->
      let ex, st = kinds x and ey, sy = kinds y in
      (ex || ey, st || sy)
  | Aspects.Pointcut.Not x -> kinds x

(* The literal class every shadow a pointcut matches must be lexically
   within, when the pointcut pins one: [execution(C.m)] and [within(C)]
   with a star-free [C] name the enclosing class of every match; a
   conjunction inherits either side's key; a disjunction keeps a key only
   when both sides agree. [call]/[set] class patterns name the *receiver*
   (or field target), which may differ from the enclosing class — and an
   unresolved receiver matches any class pattern — so they never key, and
   neither does [Not]. *)
let rec class_key = function
  | Aspects.Pointcut.Execution { Aspects.Pattern.mp_class = p; _ }
  | Aspects.Pointcut.Within p ->
      if Aspects.Pattern.is_wildcard p then None else Some p
  | Aspects.Pointcut.And (x, y) -> (
      match class_key x with Some _ as k -> k | None -> class_key y)
  | Aspects.Pointcut.Or (x, y) -> (
      match (class_key x, class_key y) with
      | Some kx, Some ky when String.equal kx ky -> Some kx
      | _ -> None)
  | Aspects.Pointcut.Call _ | Aspects.Pointcut.Set_field _
  | Aspects.Pointcut.Not _ ->
      None

(* ---- tree-walking baseline ----------------------------------------------- *)

(* The original interpreter over the pointcut AST: re-examines the node
   structure and runs the generic wildcard DP at every shadow. Kept verbatim
   as the differential baseline for the compiled deciders below (the [vm]
   oracle checks decider ≡ tree on random pointcut × shadow pairs) and as
   the [Vm.with_vm false] ablation arm. *)
let rec matches_tree pc shadow =
  match (pc, shadow) with
  | Aspects.Pointcut.Execution mp, Joinpoint.Sh_execution { class_name; method_name } ->
      Aspects.Pattern.matches_method mp ~class_name ~method_name
  | Aspects.Pointcut.Call mp, Joinpoint.Sh_call { receiver_class; method_name; _ }
    -> (
      match receiver_class with
      | Some class_name ->
          Aspects.Pattern.matches_method mp ~class_name ~method_name
      | None ->
          (* Unresolved receiver: the shadow could belong to any class, so
             the class pattern never excludes it — only the method pattern
             filters. Narrow with [within] when precision matters. *)
          Aspects.Pattern.matches mp.Aspects.Pattern.mp_method method_name)
  | ( Aspects.Pointcut.Set_field (cls_pat, field_pat),
      Joinpoint.Sh_field_set { target_class; field_name; _ } ) ->
      Aspects.Pattern.matches cls_pat target_class
      && Aspects.Pattern.matches field_pat field_name
  | Aspects.Pointcut.Within cls_pat, shadow ->
      Aspects.Pattern.matches cls_pat (Joinpoint.enclosing_class shadow)
  | Aspects.Pointcut.And (a, b), shadow ->
      matches_tree a shadow && matches_tree b shadow
  | Aspects.Pointcut.Or (a, b), shadow ->
      matches_tree a shadow || matches_tree b shadow
  | Aspects.Pointcut.Not a, shadow -> not (matches_tree a shadow)
  | Aspects.Pointcut.Execution _, (Joinpoint.Sh_call _ | Joinpoint.Sh_field_set _)
  | Aspects.Pointcut.Call _, (Joinpoint.Sh_execution _ | Joinpoint.Sh_field_set _)
  | Aspects.Pointcut.Set_field _, (Joinpoint.Sh_execution _ | Joinpoint.Sh_call _)
    ->
      false

(* ---- compiled deciders --------------------------------------------------- *)

(* Per-node-kind execution counters ([vm.exec.matcher.<op>]), shared with
   the coverage assertion in the check driver. *)
let op_names =
  [
    "exec";
    "call";
    "set";
    "within";
    "and";
    "or";
    "not";
    "pat_lit";
    "pat_any";
    "pat_prefix";
    "pat_suffix";
    "pat_infix";
    "pat_generic";
  ]

let profile = Vm.Profile.create ~prefix:"matcher" op_names

(* Pattern specialization: the generic '*'-substring DP allocates a
   position array and scans it per pattern character; almost every
   pattern the concern library produces is one of five cheap shapes.
   Each compiled pattern is a [string -> bool] with the DP's exact
   semantics ('*' matches any substring, including empty).

   Compiled closures capture the profile shard [sh] of the compiling
   domain directly — one DLS fetch per compile instead of one per node
   hit. Sound because the decider cache is domain-local, so a closure
   only ever runs on the domain that compiled it. *)
let contains_sub s needle =
  let n = String.length needle and len = String.length s in
  (* compared in place: no [String.sub] per scanned position *)
  let rec at i j = j = n || (s.[i + j] = needle.[j] && at i (j + 1)) in
  let rec from i = i + n <= len && (at i 0 || from (i + 1)) in
  from 0

let compile_pattern sh p =
  let len = String.length p in
  let star_free s = not (String.contains s '*') in
  if star_free p then fun name ->
    Vm.Profile.hit sh 7;
    String.equal p name
  else if String.equal p "*" then fun _ ->
    Vm.Profile.hit sh 8;
    true
  else if p.[0] = '*' && star_free (String.sub p 1 (len - 1)) then
    let suffix = String.sub p 1 (len - 1) in
    fun name ->
      Vm.Profile.hit sh 10;
      String.ends_with ~suffix name
  else if p.[len - 1] = '*' && star_free (String.sub p 0 (len - 1)) then
    let prefix = String.sub p 0 (len - 1) in
    fun name ->
      Vm.Profile.hit sh 9;
      String.starts_with ~prefix name
  else if len >= 2 && p.[0] = '*' && p.[len - 1] = '*'
          && star_free (String.sub p 1 (len - 2)) then
    let core = String.sub p 1 (len - 2) in
    fun name ->
      Vm.Profile.hit sh 11;
      contains_sub name core
  else fun name ->
    Vm.Profile.hit sh 12;
    Aspects.Pattern.matches p name

let rec compile sh pc =
  match pc with
  | Aspects.Pointcut.Execution mp ->
      let cls = compile_pattern sh mp.Aspects.Pattern.mp_class in
      let meth = compile_pattern sh mp.Aspects.Pattern.mp_method in
      fun shadow ->
        Vm.Profile.hit sh 0;
        (match shadow with
        | Joinpoint.Sh_execution { class_name; method_name } ->
            cls class_name && meth method_name
        | _ -> false)
  | Aspects.Pointcut.Call mp ->
      let cls = compile_pattern sh mp.Aspects.Pattern.mp_class in
      let meth = compile_pattern sh mp.Aspects.Pattern.mp_method in
      fun shadow ->
        Vm.Profile.hit sh 1;
        (match shadow with
        | Joinpoint.Sh_call { receiver_class; method_name; _ } -> (
            match receiver_class with
            | Some class_name -> cls class_name && meth method_name
            | None -> meth method_name)
        | _ -> false)
  | Aspects.Pointcut.Set_field (cls_pat, field_pat) ->
      let cls = compile_pattern sh cls_pat in
      let field = compile_pattern sh field_pat in
      fun shadow ->
        Vm.Profile.hit sh 2;
        (match shadow with
        | Joinpoint.Sh_field_set { target_class; field_name; _ } ->
            cls target_class && field field_name
        | _ -> false)
  | Aspects.Pointcut.Within cls_pat ->
      let cls = compile_pattern sh cls_pat in
      fun shadow ->
        Vm.Profile.hit sh 3;
        cls (Joinpoint.enclosing_class shadow)
  | Aspects.Pointcut.And (a, b) ->
      let da = compile sh a and db = compile sh b in
      fun shadow ->
        Vm.Profile.hit sh 4;
        da shadow && db shadow
  | Aspects.Pointcut.Or (a, b) ->
      let da = compile sh a and db = compile sh b in
      fun shadow ->
        Vm.Profile.hit sh 5;
        da shadow || db shadow
  | Aspects.Pointcut.Not a ->
      let da = compile sh a in
      fun shadow ->
        Vm.Profile.hit sh 6;
        not (da shadow)

(* Deciders are cached per pointcut value, domain-locally (a shared table
   would race under Par.Pool): one compile per distinct pointcut per
   domain, then every weave/index probe reuses the closure. The table is
   dropped wholesale on pathological churn, like the OCL parse cache. *)
let capacity = 512

let cache_key : (Aspects.Pointcut.t, Joinpoint.shadow -> bool) Hashtbl.t Domain.DLS.key
    =
  Domain.DLS.new_key (fun () -> Hashtbl.create 64)

let decider pc =
  let table = Domain.DLS.get cache_key in
  match Hashtbl.find_opt table pc with
  | Some d -> d
  | None ->
      Obs.incr "vm.compile.matcher" [];
      let d = compile (Vm.Profile.shard profile) pc in
      if Hashtbl.length table >= capacity then Hashtbl.reset table;
      Hashtbl.add table pc d;
      d

(* Staged on the pointcut: [matches pc] pays the decider-cache lookup (a
   structural hash of the pointcut AST) once, and the returned closure is
   applied per shadow. The weaver's [List.filter (Matcher.matches pc)]
   call sites stage automatically. *)
let matches pc =
  if Vm.enabled () then decider pc else matches_tree pc
