(** Random case generators for the fuzz harness.

    All generators draw exclusively from a {!Prng.t}, so a case is fully
    determined by its seed. Strings come from pools that deliberately
    include dotted names, non-ASCII UTF-8 (accents, CJK, an emoji),
    XML-hostile characters ([&], [<], quotes) and embedded whitespace —
    the inputs the XMI layer and the name indexes historically got wrong. *)

val base_script : Prng.t -> Edit.script
(** A constructive script that, applied to a fresh model, yields a
    well-formed base: unique (suffix-numbered) names, generalizations only
    from later to earlier classes, abstract operations only on interfaces
    or abstract classes. Any sublist of a base script still yields a
    well-formed model, which is what makes greedy script shrinking sound
    for the oracles that require a clean base. *)

val edit_script : Prng.t -> base:Edit.script -> Edit.script
(** An arbitrary edit script over the slots of [base] (plus its own
    creations): constructive ops mixed with deletions, renames to
    colliding/empty/dotted names, cyclic generalizations, duplicate
    enumeration literals — edits that may break well-formedness, which is
    exactly what the scoped-WF and diff oracles must track faithfully. *)

(** A weaving case: a small program plus concrete aspects with pairwise
    distinct sequence numbers (the paper's transformation order). *)
type weave_case = {
  program : Code.Junit.program;
  aspects : Aspects.Generator.generated list;
}

val weave_case : Prng.t -> weave_case

val pp_weave_case : Format.formatter -> weave_case -> unit

val random_pointcut : Prng.t -> Aspects.Pointcut.t
(** One random pointcut over the generator's pattern vocabulary: every
    leaf kind, [And]/[Or] combinations, and [Not] over each leaf. Drives
    the matcher differential of the [vm] oracle. *)

(** A runnable interpreter case for the [vm] oracle: a terminating
    program (counted loops, recursion only on an explicitly decreasing
    argument, inter-method calls only to strictly-later methods) whose
    statement templates collectively reach every compiled node kind of
    {!Interp.Machine}. *)
type interp_case = {
  ip_program : Code.Junit.program;
  ip_entry : string * string;  (** class, method *)
  ip_args : Interp.Rvalue.t list;
  ip_faults : (string * string) list;
}

val interp_case : Prng.t -> interp_case

val runnable_aspects : Prng.t -> Aspects.Generator.generated list
(** Aspects whose advice bodies execute end to end (they log through the
    [Logger] builtin rather than calling unresolvable helpers), for
    differentials that run woven programs. *)

val program_edit : Prng.t -> Code.Junit.program -> Code.Junit.program
(** One random structural edit: replace a method body, add/remove a
    method, add a field, add/remove/rename a class. Declarations the edit
    does not touch are returned physically unchanged — the sharing the
    incremental weaver's watermark keys on — and degenerate draws fall
    back to the identity. Drives the [weave-inc] oracle. *)

val armor : Prng.t -> Xmi.Xml.t -> string
(** Renders an XML tree with a random subset of the characters in text and
    attribute values written as numeric character references
    ([&#233;]/[&#xE9;]), the rest escaped conventionally. Parsing the
    armored rendering must yield the same tree as parsing the plain
    rendering — the metamorphic relation that catches character-reference
    decoding bugs. *)

val xmi_mutants : Prng.t -> Xmi.Xml.t -> (string * string) list
(** Labelled renderings of an XMI tree, each with one structural defect or
    twist: an attribute dropped, a tag renamed (open and close) to another
    XMI role or an unknown one, the text truncated, the document root or
    the model's root element duplicated, and a comment, CDATA section or
    processing instruction inserted into a [Constraint.body]. Drives the
    streaming-vs-reference import relation of the [xmi] oracle. *)

val ocl_constraints :
  Prng.t -> base:Edit.script -> edits:Edit.script -> Ocl.Constraint_.t list
(** Random OCL constraints for the [ocl] differential oracle: planner
    shapes (both equality orientations, probes under outer iterators and
    contexts), shapes the planner must refuse (shadowed classifiers,
    iterator-dependent right-hand sides), plain extent walks, and
    ill-formed bodies. Probe targets are drawn from the names the scripts
    mention plus a never-existing one. *)
