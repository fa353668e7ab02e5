(** The static weaver: applies concrete aspects to a program.

    Weaving proceeds per aspect in *reverse* precedence order, so that the
    highest-precedence aspect (the concern whose transformation was applied
    first) wraps all others at shared join points:
    - inter-type fields and methods are added to matching classes;
    - [before] execution advice is prepended to the method body;
    - [after] execution advice is woven as [try { body } finally { advice }];
    - [after returning] advice is inserted before the trailing [return] (or
      appended when the body does not end in a return);
    - [around] execution advice replaces the body by the advice body with
      the [proceed()] marker statement replaced by the original body;
    - [call] and [set] advice wraps the innermost statement containing a
      matching shadow with before/after statements.

    Advice bodies may use two pseudo-variables, rewritten at each woven
    shadow: [thisJoinPoint] becomes a string literal describing the join
    point and [targetName] the enclosing class name.

    {!weave} resolves pointcuts against the per-class joinpoint index
    ({!Index}) and weaves class-major: each class runs the full aspect
    chain, skipping aspects the index proves cannot apply. Advice is
    dispatched by the literal enclosing class its pointcut pins
    ({!Matcher.class_key}), and inter-types by their star-free pattern,
    so a class only ever sees the declarations that can reach it, in
    declaration order; per-class aspects then weave in O(classes +
    advices) rather than O(classes × advices). Because a
    method's weave only reads its own class, this produces the same
    program and the same application list as the aspect-major full scan,
    which is kept as {!weave_scan} — the differential baseline pinned by
    the [weave] fuzz oracle.

    {!initial}/{!reweave} keep weaving incremental across model edits: the
    {!state} caches, per class, the source declaration, its woven form and
    its applications. The cached source declaration is the watermark — on
    re-weave, a class whose declaration is unchanged (physically, the O(1)
    fast path when the editor shares untouched declarations, or
    structurally) reuses its cached result; only changed, added or renamed
    classes are re-woven. The [weave-inc] oracle pins
    [reweave ≡ full weave] across random edit scripts. *)

(** One advice application, for reports. *)
type application = {
  aspect_name : string;
  advice_name : string;
  at : string;  (** shadow description *)
}

type result = {
  program : Code.Junit.program;
  applications : application list;  (** weave order *)
}

val weave_one : Aspects.Aspect.t -> Code.Junit.program -> result
(** Weaves a single aspect (full scan). *)

val weave :
  Aspects.Generator.generated list -> Code.Junit.program -> result
(** Orders the generated aspects by precedence and weaves them all,
    index-driven. *)

val weave_scan :
  Aspects.Generator.generated list -> Code.Junit.program -> result
(** The pre-index baseline: a fold of {!weave_one} over the ordered
    aspects, one full program traversal each. Semantically identical to
    {!weave}; kept for the differential oracle and the bench ablation
    arm. *)

(** {1 Incremental re-weave} *)

type state
(** A woven program plus the per-class cache that makes the next weave
    incremental. *)

val initial :
  Aspects.Generator.generated list -> Code.Junit.program -> state
(** Full weave, retaining the cache. *)

val result_of : state -> result

val reweave : state -> Code.Junit.program -> state
(** Re-weave after a model edit: classes whose source declaration still
    equals the cached one ([weave.inc.skipped]) reuse their woven form and
    applications; the rest ([weave.inc.rewoven]) run the aspect chain
    again. Equivalent to [initial st.generated program] for any program. *)
