(** XMI import: interchange documents back to models.

    [import (Export.to_string m)] reconstructs a model structurally equal to
    [m] — ids, containment order, stereotypes, tagged values, and constraint
    bodies included. This round-trip property is what tool interoperability
    (the paper's Section 3 XMI requirement) rests on, and it is enforced by
    property-based tests.

    The importer reads the document in one pass over the {!Xml_parser}
    lexer and builds no {!Xml.t} tree. *)

exception Import_error of string

val from_string : string -> Mof.Model.t
(** Reads an XMI document.
    @raise Xml_parser.Xml_error on malformed XML
    @raise Import_error when the document is not valid XMI produced by
    {!Export} (missing attributes, unknown tags, malformed ids, a root that
    is not a top-level [Package], …). When a
    document has both kinds of defect, either may be reported. *)

val read_file : string -> Mof.Model.t
