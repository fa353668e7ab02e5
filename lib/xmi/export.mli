(** XMI export: models to interchange documents.

    The document follows the XMI 1.2 envelope ([XMI]/[XMI.header]/
    [XMI.content]) with one tag per metaclass. Containment is nesting;
    cross-references (supers, datatypes, constrained elements) are id-valued
    attributes. Stereotypes and tagged values become [Stereotype] and
    [TaggedValue] child nodes, so any element can carry them — the property
    the concern transformations rely on. *)

val to_string : Mof.Model.t -> string
(** Pretty-printed XMI text, including the XML declaration, written
    directly into one buffer (no {!Xml.t} tree is built).
    @raise Mof.Model.Element_not_found when an owned id is dangling. *)

val write_file : string -> Mof.Model.t -> unit
(** Writes {!to_string} to a file through {!replace_file}: a model that
    fails to render leaves the previous file as it was. *)

val replace_file : string -> string -> unit
(** [replace_file path contents] writes [contents] to a temporary file in
    [path]'s directory and renames it over [path]. If anything fails, the
    previous [path] is intact and the temporary file is removed. *)
