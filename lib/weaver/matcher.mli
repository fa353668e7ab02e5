(** Matching pointcuts against join-point shadows. *)

val matches : Aspects.Pointcut.t -> Joinpoint.shadow -> bool
(** Kinded pointcuts ([execution], [call], [set]) only match shadows of
    their kind; [within] matches any shadow by enclosing class.

    A [call] shadow whose receiver class could not be statically resolved
    matches *optimistically*: the receiver could be any class at runtime,
    so the class pattern never excludes it and only the method pattern
    filters — [call(Acc*.deposit)] matches an unresolved-receiver call to
    [deposit]. (Earlier versions special-cased the literal ["*"] class
    pattern and silently dropped every other pattern at unresolved
    receivers.) Combine with [within(...)] to narrow where an optimistic
    match is too broad. Calls with a resolved receiver match the class
    pattern against that class, as before.

    Production dispatch: a closure-compiled decider (cached per pointcut,
    per domain) unless the {!Vm} ablation flag routes back to
    {!matches_tree}. Staged: [matches pc] performs the cache lookup once
    and returns the decider closure, so partially apply it outside loops
    over shadows. *)

val matches_tree : Aspects.Pointcut.t -> Joinpoint.shadow -> bool
(** The tree-walking baseline: same semantics as {!matches}, bypassing
    decider compilation and the cache. The [vm] oracle's reference arm. *)

val decider : Aspects.Pointcut.t -> Joinpoint.shadow -> bool
(** The compiled decider for [pc] (compiling and caching on first use):
    pattern-specialized closures — literal, ["*"], prefix, suffix and
    infix patterns skip the generic wildcard DP. Counters:
    [vm.compile.matcher] on compile, [vm.exec.matcher.*] per node. *)

val kinds : Aspects.Pointcut.t -> bool * bool
(** [(wants_exec, wants_stmt)]: which shadow domains advice on this
    pointcut applies to. Execution advice weaves at execution shadows,
    statement advice wraps statements at call/set shadows; a pure
    [within] pointcut wants neither (it constrains, it does not select),
    so advice gated on it is inert. The weaver, the joinpoint index and
    the interference analysis all share this gate. *)

val class_key : Aspects.Pointcut.t -> string option
(** [Some c] when every shadow the pointcut can match lies lexically within
    the class named [c]: [execution(c.m)] or [within(c)] with a star-free
    [c], either conjunct of an [And], both sides of an [Or] when they
    agree. [call], [set] and [Not] never key — their class patterns name
    the receiver, not the enclosing class. The weaver dispatches keyed
    advice only to the class of that name. *)
